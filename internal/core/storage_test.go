package core_test

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/pilot"
	"repro/internal/sim"
)

// newRunMallocs counts the heap allocations of core.New plus Run on a
// 2-cycle barrier T-REMD run of n replicas, one core each, on a pilot
// runtime and the virtual engine. Only the orchestrator's process is
// measured: the cluster, pilot and engine exist before it starts.
func newRunMallocs(t *testing.T, n int) uint64 {
	t.Helper()
	spec := smallTREMD(n, 2)
	env := sim.NewEnv()
	cl := cluster.MustNew(env, quietCluster(), spec.Seed+1)
	pl, err := pilot.Launch(cl, pilot.Description{Cores: n})
	if err != nil {
		t.Fatal(err)
	}
	eng := engines.NewAmberVirtual(2881, spec.Seed+2)
	var mallocs uint64
	var runErr error
	env.Go("emm", func(p *sim.Proc) {
		rt := pilot.NewRuntime(pl, p)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		simu, err := core.New(spec, eng, rt)
		if err == nil {
			_, err = simu.Run()
		}
		runtime.ReadMemStats(&m1)
		mallocs, runErr = m1.Mallocs-m0.Mallocs, err
	})
	env.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return mallocs
}

// TestRunAllocationsDoNotScaleWithReplicas pins that a run allocates per
// run, not per replica: the replicas, their restraint and coordinate
// arrays and the pilot units come from a few backing arrays, so sixteen
// times the replicas adds only the logarithmic growth of those arrays
// and the kernel's queues: ~120 objects here. Allocating a unit, a
// replica and its arrays each on their own read 1 190 at 256 replicas
// and 16 665 at 4 096.
func TestRunAllocationsDoNotScaleWithReplicas(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 4 096 replicas")
	}
	small, large := newRunMallocs(t, 256), newRunMallocs(t, 4096)
	t.Logf("New + Run allocations: %d at 256 replicas, %d at 4096", small, large)
	const slack = 200
	if large > small+slack {
		t.Errorf("New + Run allocates %d objects at 4096 replicas against %d at 256: more than %d apart",
			large, small, slack)
	}
}

// storageSpec is a 2-D T×U barrier run: replicas carry restraints and
// three synthetic coordinates each, the ladders are close enough that
// swaps are accepted (so slot rows differ from event to event), and a
// capture taken at a barrier is an exact resume point.
func storageSpec() *core.Spec {
	return &core.Spec{
		Name: "storage",
		Dims: []core.Dimension{
			{Type: exchange.Temperature, Values: core.GeometricTemperatures(300, 310, 4)},
			{Type: exchange.Umbrella, Values: core.UniformWindows(4), Torsion: "phi", K: 1},
		},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   2000,
		Cycles:          6,
		Seed:            17,
		SnapshotEvery:   4,
	}
}

// TestCapturesOwnTheirArrays pins the storage rule of captures: a
// snapshot and a stats read each own one fresh backing array for what
// the run goes on writing, carved with full-slice caps, and a resume
// copies the replicas' state out of the snapshot; slot-history rows are
// written once and shared by all of them. It catches a carve without its
// cap, (*free)[:n] for (*free)[:n:n] in carve, in the rows slab or in the
// collector's trace copy (the append checks); a capture that shares a
// replica's live Synth (the live check); and an applySnapshot that keeps
// the snapshot's Synth arrays, or a history that writes a row again (the
// resume legs).
func TestCapturesOwnTheirArrays(t *testing.T) {
	var snaps []*core.Snapshot
	var encoded [][]byte
	spec := storageSpec()
	spec.OnSnapshot = func(sn *core.Snapshot) {
		data, err := sn.Encode()
		if err != nil {
			t.Fatal(err)
		}
		snaps, encoded = append(snaps, sn), append(encoded, data)
	}
	spec.Bus = core.NewBus()
	col := analysis.New(analysis.ConfigFromSpec(spec))
	col.Attach(spec.Bus, analysis.RunBuffer(spec))
	full, simu := runVirtualSim(t, spec, quietCluster(), 16, 2881)
	if len(snaps) < 2 {
		t.Fatalf("%d snapshots, want at least 2", len(snaps))
	}
	accepted := 0
	for _, rec := range full.Records {
		accepted += rec.Accepted
	}
	if accepted == 0 {
		t.Fatal("no swap accepted: the slot checks below would hold trivially")
	}

	// The run went on after every capture; the live replicas change
	// again now. No capture may see either.
	for _, r := range simu.Replicas() {
		for i := range r.Synth {
			r.Synth[i] = -1e9
		}
	}
	for i, sn := range snaps {
		if data := mustEncode(t, sn); !bytes.Equal(data, encoded[i]) {
			t.Fatalf("snapshot %d changed after its capture", i)
		}
	}

	// An append on one carved row must not reach the next.
	sn := snaps[0]
	next := sn.Replicas[1].Synth[0]
	_ = append(sn.Replicas[0].Synth, 42)
	if sn.Replicas[1].Synth[0] != next {
		t.Error("appending to one snapshot replica's Synth wrote into the next replica's")
	}
	row := sn.SlotHistory[1][0]
	_ = append(sn.SlotHistory[0], -7)
	if sn.SlotHistory[1][0] != row {
		t.Error("appending to one snapshot history row wrote into the next row")
	}
	st := col.Snapshot()
	if len(st.Traces) < 2 || len(st.Traces[1]) == 0 {
		t.Fatalf("stats carry %d traces", len(st.Traces))
	}
	trace := st.Traces[1][0]
	_ = append(st.Traces[0], -7)
	if st.Traces[1][0] != trace {
		t.Error("appending to one Stats.Traces row wrote into the next row")
	}

	// Two resumes from the same in-memory snapshot both end on the
	// uninterrupted run's fingerprint, and leave the snapshot as it was.
	// They run bus-free with a history tail, which rotates the history
	// rows the resume shares with the snapshot, and the engine resamples
	// Synth in place: a resume sharing Synth with the snapshot, or a
	// rotation that recycled a row in place, rewrites it.
	const tail = 2
	for leg := 1; leg <= 2; leg++ {
		resumed := storageSpec()
		resumed.HistoryTail = tail
		resumed.Resume = snaps[0]
		rep, _ := runVirtualSim(t, resumed, quietCluster(), 16, 2881)
		if rep.SlotFingerprint != full.SlotFingerprint || rep.SlotRows != full.SlotRows {
			t.Fatalf("resume %d: fingerprint %x over %d rows, uninterrupted %x over %d",
				leg, rep.SlotFingerprint, rep.SlotRows, full.SlotFingerprint, full.SlotRows)
		}
		want := full.SlotHistory[len(full.SlotHistory)-tail:]
		if !slices.EqualFunc(rep.SlotHistory, want, slices.Equal[[]int]) {
			t.Fatalf("resume %d: slot history tail differs from the uninterrupted run's", leg)
		}
		if data := mustEncode(t, snaps[0]); !bytes.Equal(data, encoded[0]) {
			t.Fatalf("resume %d changed the snapshot it resumed from", leg)
		}
	}
}
