// Observability walkthrough: run a multi-dimensional REMD simulation
// with the online analysis subsystem attached and inspect it over HTTP,
// exactly as a monitoring stack would.
//
// The pieces, bottom to top:
//
//  1. Spec.Bus — the dispatcher publishes typed events (MD completions,
//     exchange outcomes, fault actions) on a non-blocking bus;
//  2. analysis.Collector — subscribes and maintains per-pair acceptance
//     ratios, replica random walks with round-trip times, the mixing
//     metric and overhead histograms;
//  3. serve.Server — exposes GET /status, /stats and /metrics
//     (Prometheus text format) from the collector.
//
// The same wiring is available from the command line:
//
//	go run ./cmd/repex -sim configs/tsu_supermic.json \
//	    -res configs/supermic_144.json -listen 127.0.0.1:8080
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync/atomic"

	repex "repro"
	"repro/internal/analysis"
	"repro/internal/serve"
)

func main() {
	// A 24-replica T×U simulation, large enough for interesting mixing.
	spec := &repex.Spec{
		Name: "observed-tu",
		Dims: []repex.Dimension{
			{Type: repex.Temperature, Values: repex.GeometricTemperatures(273, 373, 6)},
			{Type: repex.Umbrella, Values: repex.UniformWindows(4), Torsion: "phi", K: repex.UmbrellaK002},
		},
		Pattern:         repex.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          6,
		Seed:            7,
	}

	// 1. Attach the event bus.
	spec.Bus = repex.NewBus()

	// 2. Subscribe an online collector, with a ring sized to hold the
	// whole run's event stream (it is only drained on demand).
	col := analysis.New(analysis.ConfigFromSpec(spec))
	col.Attach(spec.Bus, analysis.RunBuffer(spec))

	// 3. Serve it. Port 0 picks a free port; cmd/repex's -listen flag
	// gets this wiring from serve.NewRun (docs/architecture.md, "Run
	// assembly"). The HTTP handlers run concurrently with the
	// simulation, so anything the status closure reads must be
	// thread-safe — hence the atomic state value.
	var state atomic.Value
	state.Store("running")
	srv := serve.New(col, func() serve.RunStatus {
		return serve.RunStatus{
			Name: spec.Name, Engine: "amber", Trigger: spec.TriggerName(),
			State: state.Load().(string), Replicas: spec.Replicas(),
			CyclesTarget: spec.Cycles, BusPublished: spec.Bus.Published(),
		}
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("serving on http://%s\n\n", addr)

	// Run in virtual time: weeks of SuperMIC time in milliseconds.
	report, err := repex.RunVirtual(spec, repex.SuperMIC(), 24, repex.AmberSander, 2881, 7)
	if err != nil {
		log.Fatal(err)
	}
	state.Store("completed")
	fmt.Print(report.String())

	// What a dashboard would read.
	stats := col.Snapshot()
	fmt.Println("\nper-pair acceptance ratios:")
	for d, pairs := range stats.Acceptance {
		fmt.Printf("  dim %d (%s):", d, spec.Dims[d].Type)
		for _, p := range pairs {
			fmt.Printf(" %.2f", p.Ratio())
		}
		fmt.Println()
	}
	fmt.Printf("round trips: %d (mean %.1f events); full-ladder traversal: %.0f%% of replicas\n",
		stats.RoundTrips, stats.MeanRoundTripEvents, 100*stats.FullTraversalFraction)

	// And what Prometheus would scrape.
	for _, path := range []string{"/status", "/metrics"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			log.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nGET %s (%s):\n%s\n", path, resp.Status, excerpt(string(body), 12))
	}
}

// excerpt returns the first n lines of s.
func excerpt(s string, n int) string {
	lines := strings.Split(s, "\n")
	if len(lines) > n {
		lines = append(lines[:n], "...")
	}
	return strings.Join(lines, "\n")
}
