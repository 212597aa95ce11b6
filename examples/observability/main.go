// Observability walkthrough: run a multi-dimensional REMD simulation
// with the online analysis subsystem attached and inspect it over HTTP,
// exactly as a monitoring stack would.
//
// The pieces, bottom to top:
//
//  1. core.Bus — the dispatcher publishes typed events (MD completions,
//     exchange outcomes, fault actions) on a non-blocking bus;
//  2. analysis.Collector — subscribes and maintains per-pair acceptance
//     ratios, replica random walks with round-trip times, the mixing
//     metric and overhead histograms;
//  3. serve.Server — exposes GET /status, /stats and /metrics
//     (Prometheus text format) from the collector.
//
// serve.NewRun wires all three for a served run (docs/architecture.md,
// "Run assembly"): this program is the same assembly path as
//
//	go run ./cmd/repex -sim configs/tsu_supermic.json \
//	    -res configs/supermic_144.json -listen 127.0.0.1:8080
//
// with the two config files written as a config.Launch literal.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"strings"

	"repro/internal/config"
	"repro/internal/serve"
)

func main() {
	// A 24-replica T×U simulation, large enough for interesting mixing,
	// on 24 SuperMIC cores (Execution Mode I).
	launch := &config.Launch{
		Sim: &config.Simulation{
			Name: "observed-tu", Engine: "amber", Atoms: 2881,
			Dimensions: []config.Dim{
				{Type: "T", Count: 6, Min: 273, Max: 373},
				{Type: "U", Count: 4, Torsion: "phi"},
			},
			CoresPerReplica: 1, StepsPerCycle: 6000, Cycles: 6, Seed: 7,
		},
		Res: &config.Resource{Machine: "supermic", PilotCores: 24},
	}

	// served = true attaches the bus, the collector and the flight
	// recorder, and builds the run's Server over them.
	run, err := serve.NewRun(context.Background(), launch, true, false, 0)
	if err != nil {
		log.Fatal(err)
	}
	// Port 0 picks a free port. The handlers run concurrently with the
	// simulation; the Server reads only the collector and the run's
	// mutex-guarded status.
	srv, lis, err := serve.Listen("127.0.0.1:0", run.Server().Handler())
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = srv.Serve(lis) }()
	defer srv.Close()
	addr := lis.Addr().String()
	fmt.Printf("serving on http://%s\n\n", addr)

	// Run in virtual time: weeks of SuperMIC time in milliseconds.
	run.Start(slog.Default())
	<-run.Done()
	report, err := run.Result()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.String())

	// What a dashboard would read.
	stats := run.Collector().Snapshot()
	fmt.Println("\nper-pair acceptance ratios:")
	for d, pairs := range stats.Acceptance {
		fmt.Printf("  dim %d (%s):", d, run.Spec().Dims[d].Type)
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
