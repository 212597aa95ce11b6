package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/pilot"
)

// barrierFaultShapes are the runs testdata/barrier_faults.golden pins:
// the synchronous pattern on the failover pilot runtime while units fail
// and pilots change under it, where when the orchestrator learns of a
// completion decides when a relaunch goes out and in which order fault
// and resource records reach the bus.
func barrierFaultShapes(t *testing.T) []struct {
	name   string
	params func() RunParams
} {
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
			FaultPolicy:     core.FaultRelaunch,
		}
	}
	failing := func(cfg cluster.Config) cluster.Config {
		cfg.FailureProb = 0.15
		return cfg
	}
	return []struct {
		name   string
		params func() RunParams
	}{
		{"relaunch-15pct-64", func() RunParams {
			return RunParams{Spec: tremd(64, 4, 21), Cluster: failing(cluster.SuperMIC()), PilotCores: 64,
				NewEngine: engine, Seed: 21}
		}},
		{"relaunch-15pct-walltime", func() RunParams {
			return RunParams{Spec: tremd(32, 6, 22), Cluster: failing(cluster.Small(4, 8)), PilotCores: 32,
				PilotWalltime: 500, NewEngine: engine, Seed: 22}
		}},
		{"relaunch-15pct-preempt-mid-round", func() RunParams {
			return RunParams{Spec: tremd(32, 4, 23), Cluster: failing(cluster.Small(4, 8)), PilotCores: 32, Pilots: 2,
				Chaos: &pilot.ChaosPlan{Events: []pilot.ChaosEvent{
					{At: 150, Pilot: 1, Kind: pilot.ChaosPreempt, Notice: 40},
					{At: 330, Pilot: 0, Kind: pilot.ChaosResize, Cores: -2},
				}},
				NewEngine: engine, Seed: 23}
		}},
		{"relaunch-15pct-mode2-shrink", func() RunParams {
			return RunParams{Spec: tremd(32, 4, 24), Cluster: failing(cluster.Small(2, 8)), PilotCores: 16,
				Chaos: &pilot.ChaosPlan{Events: []pilot.ChaosEvent{
					{At: 40, Kind: pilot.ChaosResize, Cores: -2},
					{At: 300, Kind: pilot.ChaosNodeLoss, Cores: 2},
				}},
				NewEngine: engine, Seed: 24}
		}},
		{"chaos-small-plan", func() RunParams { return chaosParams(t) }},
	}
}

// busDigest hashes bus records in publication order, every field with
// its time stamp, and counts the fault and resource records by kind.
func busDigest(recs []core.BusRecord) (uint64, map[string]int) {
	h := fnv.New64a()
	kinds := map[string]int{}
	for _, rec := range recs {
		if rec.Other == nil {
			fmt.Fprintf(h, "%+v\n", rec.MD)
			continue
		}
		fmt.Fprintf(h, "%T%+v\n", rec.Other, rec.Other)
		switch ev := rec.Other.(type) {
		case core.FaultEvent:
			kinds[ev.Kind]++
		case core.ResourceEvent:
			kinds[ev.Kind]++
		}
	}
	return h.Sum64(), kinds
}

// TestBarrierFaultsGolden pins, for every barrier fault shape, the slot
// fingerprint, the relaunches and drops, the bits of the run's end time
// and every bus record in publication order against
// testdata/barrier_faults.golden, written while the orchestrator woke
// at every MD completion. It is never regenerated: a mismatch means a
// relaunch went out at another time or a record reached the bus in
// another order — fix the code.
func TestBarrierFaultsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, shape := range barrierFaultShapes(t) {
		p := shape.params()
		p.Spec.Bus = core.NewBus()
		sub := p.Spec.Bus.Subscribe(1 << 16)
		rep, err := Run(p)
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		recs := sub.Drain(nil)
		if sub.Dropped() != 0 {
			t.Fatalf("%s: the subscription dropped %d records", shape.name, sub.Dropped())
		}
		bus, kinds := busDigest(recs)
		fmt.Fprintf(&got, "%s fingerprint=%#x relaunches=%d dropped=%d end=%#x records=%d bus=%#x kinds=%v\n",
			shape.name, rep.SlotFingerprint, rep.Relaunches, rep.Dropped, math.Float64bits(rep.End),
			len(recs), bus, kinds)
	}
	path := filepath.Join("testdata", "barrier_faults.golden")
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
		t.Fatalf("barrier fault shapes moved off %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
