package core_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/localexec"
)

// TestSnapshotResumeDeterminism is the checkpoint/restart acceptance
// test: a run killed after its snapshot and resumed from it must produce
// exactly the slot history of the uninterrupted run — same exchange
// decisions, same acceptance counts — because replica state and both RNG
// streams (orchestrator and engine) are restored exactly.
func TestSnapshotResumeDeterminism(t *testing.T) {
	mkSpec := func() *core.Spec {
		s := smallTREMD(8, 4)
		s.Name = "ckpt"
		return s
	}

	var snaps []*core.Snapshot
	spec := mkSpec()
	spec.SnapshotEvery = 2
	spec.OnSnapshot = func(sn *core.Snapshot) { snaps = append(snaps, sn) }
	full := runVirtual(t, spec, quietCluster(), 8, 2881)
	if len(snaps) != 2 {
		t.Fatalf("4 events at SnapshotEvery=2 produced %d snapshots, want 2", len(snaps))
	}
	if snaps[0].Events != 2 || snaps[0].Trigger != "barrier" {
		t.Fatalf("first snapshot at event %d under %q, want 2 under barrier",
			snaps[0].Events, snaps[0].Trigger)
	}

	// Serialize/deserialize, simulating the kill + restart.
	data, err := snaps[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}

	resumedSpec := mkSpec()
	resumedSpec.Resume = snap
	resumed := runVirtual(t, resumedSpec, quietCluster(), 8, 2881)

	if resumed.ExchangeEvents != full.ExchangeEvents {
		t.Fatalf("resumed run fired %d events, uninterrupted %d",
			resumed.ExchangeEvents, full.ExchangeEvents)
	}
	if len(resumed.SlotHistory) != len(full.SlotHistory) {
		t.Fatalf("resumed history %d rows, full %d",
			len(resumed.SlotHistory), len(full.SlotHistory))
	}
	if historyFingerprint(resumed.SlotHistory) != historyFingerprint(full.SlotHistory) {
		t.Fatalf("resumed slot history diverged from the uninterrupted run:\nfull    %v\nresumed %v",
			full.SlotHistory, resumed.SlotHistory)
	}
	// Post-resume records cover events 3 and 4 only; their exchange
	// attempts must match the uninterrupted run's last two records.
	_, resumedAcc := sumExchanges(resumed)
	wantAcc := 0
	for _, rec := range full.Records[2:] {
		wantAcc += rec.Accepted
	}
	if resumedAcc != wantAcc {
		t.Fatalf("resumed accepted %d exchanges, want %d (uninterrupted events 3-4)",
			resumedAcc, wantAcc)
	}
	// The resumed report stays cumulative: its start is back-dated by
	// the snapshot's elapsed time, so Makespan covers the whole
	// simulation (plus one fresh batch-queue wait) and Utilization stays
	// a physical fraction instead of counting pre-snapshot MD exec
	// against a post-resume span.
	if resumed.Makespan() < full.Makespan() {
		t.Fatalf("resumed makespan %v below uninterrupted %v: not cumulative",
			resumed.Makespan(), full.Makespan())
	}
	if u := resumed.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("resumed utilization %v out of (0,1]", u)
	}
}

func TestSnapshotRoundTripPreservesState(t *testing.T) {
	var snaps []*core.Snapshot
	spec := smallTREMD(6, 2)
	spec.SnapshotEvery = 1
	spec.OnSnapshot = func(sn *core.Snapshot) { snaps = append(snaps, sn) }
	runVirtual(t, spec, quietCluster(), 6, 2881)
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots, want 2 (SnapshotEvery=1, 2 events)", len(snaps))
	}
	sn := snaps[1]
	if sn.Version != core.SnapshotVersion || sn.Name != spec.Name {
		t.Fatalf("snapshot header %d/%q", sn.Version, sn.Name)
	}
	if sn.EngineDraws < 0 {
		t.Fatal("virtual engine must be replayable (EngineDraws >= 0)")
	}
	if sn.RNGDraws <= 0 {
		t.Fatal("orchestrator RNG draws not recorded")
	}
	data, err := sn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Events != sn.Events || back.RNGDraws != sn.RNGDraws ||
		back.EngineDraws != sn.EngineDraws || len(back.Replicas) != len(sn.Replicas) {
		t.Fatalf("round trip lost state: %+v vs %+v", back, sn)
	}
	slots := map[int]bool{}
	for _, rs := range back.Replicas {
		if slots[rs.Slot] {
			t.Fatal("snapshot slots are not a permutation")
		}
		slots[rs.Slot] = true
		if len(rs.Synth) == 0 {
			t.Fatal("virtual engine synth coordinates missing from snapshot")
		}
	}
}

func TestResumeValidation(t *testing.T) {
	var snaps []*core.Snapshot
	spec := smallTREMD(6, 2)
	spec.SnapshotEvery = 1
	spec.OnSnapshot = func(sn *core.Snapshot) { snaps = append(snaps, sn) }
	runVirtual(t, spec, quietCluster(), 6, 2881)
	snap := snaps[0]

	// The engine the snapshot was taken with, carving the same
	// coordinates a replica.
	eng := func() core.Engine { return engines.NewAmberVirtual(2881, spec.Seed+2) }

	// An engine that cannot restore its own state is refused by name.
	plain := smallTREMD(6, 2)
	plain.Resume = snap
	if _, err := core.New(plain, &rngEngine{rng: rand.New(rand.NewSource(5))}, localexec.New(8)); err == nil ||
		!strings.Contains(err.Error(), `engine "rng-stub" cannot resume`) {
		t.Fatalf("resume on an engine without ReplayableEngine: %v", err)
	}

	// Wrong replica count: the snapshot belongs to a different grid.
	other := smallTREMD(8, 2)
	other.Resume = snap
	if _, err := core.New(other, eng(), localexec.New(8)); err == nil {
		t.Fatal("snapshot with wrong replica count accepted")
	}

	// Wrong trigger: resuming a barrier snapshot under a count policy.
	mismatch := smallTREMD(6, 2)
	mismatch.Pattern = core.PatternAsynchronous
	mismatch.Trigger = core.NewCountTrigger(2)
	mismatch.Resume = snap
	if _, err := core.New(mismatch, eng(), localexec.New(8)); err == nil ||
		!strings.Contains(err.Error(), `taken under trigger "barrier", resuming under "count"`) {
		t.Fatalf("barrier snapshot resumed under count trigger: %v", err)
	}

	// Corrupt slots: two replicas in the same slot.
	dup := smallTREMD(6, 2)
	badSnap, err := core.DecodeSnapshot(mustEncode(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	badSnap.Replicas[1].Slot = badSnap.Replicas[0].Slot
	dup.Resume = badSnap
	if _, err := core.New(dup, eng(), localexec.New(8)); err == nil {
		t.Fatal("non-permutation snapshot slots accepted")
	}

	// Corrupt IDs: the same replica restored twice (distinct slots, so
	// the slot check alone would not catch it).
	dupID := smallTREMD(6, 2)
	badID, err := core.DecodeSnapshot(mustEncode(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	badID.Replicas[1].ID = badID.Replicas[0].ID
	dupID.Resume = badID
	if _, err := core.New(dupID, eng(), localexec.New(8)); err == nil {
		t.Fatal("duplicate snapshot replica IDs accepted")
	}

	// Format 1 files are rejected at decode with both versions named;
	// a snapshot stripped of its fingerprint is rejected at restore.
	old := *snap
	old.Version = 1
	if _, err := core.DecodeSnapshot(mustEncode(t, &old)); err == nil ||
		!strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 2") ||
		!strings.Contains(err.Error(), "restarted") {
		t.Fatalf("format-1 snapshot: err = %v, want a rejection naming versions 1 and 2", err)
	}
	noFP := smallTREMD(6, 2)
	bare, err := core.DecodeSnapshot(mustEncode(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	bare.SlotFingerprint = 0
	noFP.Resume = bare
	if _, err := core.New(noFP, eng(), localexec.New(8)); err == nil {
		t.Fatal("snapshot without a slot fingerprint accepted")
	}

	// A refit record naming a dimension the spec lacks: status readers
	// count refits per dimension from the history.
	badRefit := smallTREMD(6, 2)
	refitted, err := core.DecodeSnapshot(mustEncode(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	refitted.Respacings = []core.RespaceRecord{{Dim: 1, Refit: 1}}
	badRefit.Resume = refitted
	if _, err := core.New(badRefit, eng(), localexec.New(8)); err == nil ||
		!strings.Contains(err.Error(), "names dimension 1") {
		t.Fatalf("refit record on a missing dimension: %v", err)
	}

	// Impossible counters, each of which the run would otherwise panic
	// on: a negative event count (the dimension it resumes at) and a
	// replica with fewer coordinates than the engine carves.
	for name, corrupt := range map[string]func(*core.Snapshot){
		"negative events": func(sn *core.Snapshot) { sn.Events = -1 },
		"short synth":     func(sn *core.Snapshot) { sn.Replicas[2].Synth = sn.Replicas[2].Synth[:1] },
		"no synth":        func(sn *core.Snapshot) { sn.Replicas[0].Synth = nil },
	} {
		bad, err := core.DecodeSnapshot(mustEncode(t, snap))
		if err != nil {
			t.Fatal(err)
		}
		corrupt(bad)
		resumed := smallTREMD(6, 2)
		resumed.Resume = bad
		if _, err := core.New(resumed, eng(), localexec.New(8)); err == nil {
			t.Errorf("%s: snapshot accepted", name)
		}
	}

	// Counters past what the spec's run could reach, and a history tail
	// that disagrees with the counters or the slots. The spec's six
	// replicas have a budget of two segments each: at most six pairs,
	// each drawing one uniform, and one engine draw per replica at
	// initialisation and per segment. Each corruption leaves the
	// snapshot's other fields consistent, so its own check refuses it.
	for _, c := range []struct {
		name, want string
		corrupt    func(*core.Snapshot)
	}{
		{"events past the budget", "7 exchange events, outside [0, 6]",
			func(sn *core.Snapshot) { sn.Events, sn.SlotRows = 7, 7 }},
		{"negative events and rows", "-1 exchange events",
			func(sn *core.Snapshot) { sn.Events, sn.SlotRows = -1, -1 }},
		{"rows short of events", "0 slot-history rows (1 retained) for 1 exchange events",
			func(sn *core.Snapshot) { sn.SlotRows = 0 }},
		{"short history row", "row 0 has 5 slots",
			func(sn *core.Snapshot) { sn.SlotHistory[0] = sn.SlotHistory[0][:5] }},
		{"no history row", "1 slot-history rows (0 retained)",
			func(sn *core.Snapshot) { sn.SlotHistory = nil }},
		{"last row off the slots", "its last slot-history row says",
			func(sn *core.Snapshot) {
				sn.Replicas[0].Slot, sn.Replicas[1].Slot = sn.Replicas[1].Slot, sn.Replicas[0].Slot
			}},
		{"duplicated slot, history agreeing", "not a permutation",
			func(sn *core.Snapshot) {
				sn.Replicas[1].Slot = sn.Replicas[0].Slot
				sn.SlotHistory[0][1] = sn.Replicas[0].Slot
			}},
		{"negative exchange draws", "-1 exchange draws",
			func(sn *core.Snapshot) { sn.RNGDraws = -1 }},
		{"exchange draws past the pairs", "7 exchange draws, outside [0, 6]",
			func(sn *core.Snapshot) { sn.RNGDraws = 7 }},
		{"negative engine draws", "-1 engine draws",
			func(sn *core.Snapshot) { sn.EngineDraws = -1 }},
		{"engine draws past the segments", "19 engine draws, outside [0, 18]",
			func(sn *core.Snapshot) { sn.EngineDraws = 19 }},
		{"negative cycle", "completed -1 segments",
			func(sn *core.Snapshot) { sn.Replicas[3].Cycle = -1 }},
		{"cycle past the budget", "completed 3 segments, outside [0, 2]",
			func(sn *core.Snapshot) { sn.Replicas[3].Cycle = 3 }},
		{"trigger state on a stateless policy", "policy cannot restore it",
			func(sn *core.Snapshot) { sn.TriggerData = []byte(`{}`) }},
	} {
		bad, err := core.DecodeSnapshot(mustEncode(t, snap))
		if err != nil {
			t.Fatal(err)
		}
		c.corrupt(bad)
		resumed := smallTREMD(6, 2)
		resumed.Resume = bad
		if _, err := core.New(resumed, eng(), localexec.New(8)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}

	// Wrong simulation: a snapshot from a different run name.
	renamed := smallTREMD(6, 2)
	renamed.Name = "some-other-simulation"
	renamed.Resume = snap
	if _, err := core.New(renamed, eng(), localexec.New(8)); err == nil {
		t.Fatal("snapshot from a different simulation accepted")
	}
}

func mustEncode(t testing.TB, sn *core.Snapshot) []byte {
	t.Helper()
	data, err := sn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSnapshotsDisabledByDefault(t *testing.T) {
	spec := smallTREMD(4, 2)
	called := false
	spec.OnSnapshot = func(*core.Snapshot) { called = true } // SnapshotEvery unset
	runVirtual(t, spec, quietCluster(), 4, 2881)
	if called {
		t.Fatal("snapshot captured without SnapshotEvery")
	}
}
