package bench

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
)

var updateBooking = flag.Bool("update", false, "rewrite testdata/booking.golden (never: it is pinned)")

// bookingShapes are the runs testdata/booking.golden pins: the shapes in
// which the order of metadata-server and launcher service decides who
// waits, and for how long. Each builds fresh params (specs are stateful).
func bookingShapes(t *testing.T) []struct {
	name   string
	params func() RunParams
} {
	quiet := cluster.SuperMIC()
	quiet.ExecJitter, quiet.FailureProb = 0, 0
	engine := func(seed int64) core.Engine { return engines.NewAmberVirtual(2881, seed) }
	tremd := func(n, cycles int, seed int64) *core.Spec {
		return &core.Spec{
			Name:            "t-remd",
			Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, n)}},
			Pattern:         core.PatternSynchronous,
			CoresPerReplica: 1,
			StepsPerCycle:   2000,
			Cycles:          cycles,
			Seed:            seed,
		}
	}
	ts := func(seed int64) *core.Spec {
		return &core.Spec{
			Name: "ts-remd",
			Dims: []core.Dimension{
				{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 4)},
				{Type: exchange.Salt, Values: []float64{0.1, 0.2, 0.4, 0.8}},
			},
			Pattern:         core.PatternSynchronous,
			CoresPerReplica: 1,
			StepsPerCycle:   2000,
			Cycles:          2,
			Seed:            seed,
		}
	}
	return []struct {
		name   string
		params func() RunParams
	}{
		{"zero-jitter-1-pilot", func() RunParams {
			return RunParams{Spec: tremd(32, 3, 5), Cluster: quiet, PilotCores: 32, NewEngine: engine, Seed: 5}
		}},
		{"zero-jitter-2-pilots", func() RunParams {
			return RunParams{Spec: tremd(32, 3, 6), Cluster: quiet, PilotCores: 32, Pilots: 2, NewEngine: engine, Seed: 6}
		}},
		{"mode2-16-cores-64-replicas", func() RunParams {
			return RunParams{Spec: tremd(64, 2, 7), Cluster: cluster.SuperMIC(), PilotCores: 16, NewEngine: engine, Seed: 7}
		}},
		{"mode2-2-pilots-window", func() RunParams {
			s := tremd(64, 3, 8)
			s.Pattern = core.PatternAsynchronous
			s.Trigger = core.NewWindowTrigger(60, 8)
			return RunParams{Spec: s, Cluster: cluster.SuperMIC(), PilotCores: 16, Pilots: 2, NewEngine: engine, Seed: 8}
		}},
		{"failures-walltime-failover-count", func() RunParams {
			cfg := cluster.Small(2, 8)
			cfg.FailureProb = 0.1
			s := tremd(32, 3, 9)
			s.Pattern = core.PatternAsynchronous
			s.Trigger = core.NewCountTrigger(8)
			s.FaultPolicy = core.FaultRelaunch
			return RunParams{Spec: s, Cluster: cfg, PilotCores: 16, PilotWalltime: 400, NewEngine: engine, Seed: 9}
		}},
		{"chaos-node-loss-preempt-resize", func() RunParams { return chaosParams(t) }},
		{"salt-spe-waves", func() RunParams {
			return RunParams{Spec: ts(10), Cluster: quiet, PilotCores: 8, NewEngine: engine, Seed: 10}
		}},
		{"salt-spe-waves-jitter", func() RunParams {
			return RunParams{Spec: ts(11), Cluster: cluster.Small(1, 8), PilotCores: 8, NewEngine: engine, Seed: 11}
		}},
	}
}

// TestBookingGolden pins, for every booking shape, the slot fingerprint,
// every cycle record, the makespan, the relaunches and the utilization
// against testdata/booking.golden, written while the metadata server and
// the pilot's launcher were queued sim.Resources. It is never
// regenerated: a mismatch means a unit waited a different time or woke
// in a different order — fix the code.
func TestBookingGolden(t *testing.T) {
	var got bytes.Buffer
	for _, shape := range bookingShapes(t) {
		rep, err := Run(shape.params())
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		h := fnv.New64a()
		fmt.Fprint(h, rep.Records)
		fmt.Fprintf(&got, "%s fingerprint=%#x rows=%d records=%#x makespan=%v relaunches=%d utilization=%v\n",
			shape.name, rep.SlotFingerprint, rep.SlotRows, h.Sum64(), rep.Makespan(), rep.Relaunches, rep.Utilization())
	}
	path := filepath.Join("testdata", "booking.golden")
	if *updateBooking {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("booking shapes moved off %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
