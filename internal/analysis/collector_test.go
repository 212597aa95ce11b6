package analysis_test

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/pilot"
	"repro/internal/sim"
	"repro/internal/task"
)

func tremdSpec(n, cycles int) *core.Spec {
	return &core.Spec{
		Name:            "t-remd",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, n)}},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          cycles,
		Seed:            21,
	}
}

func quietCluster() cluster.Config {
	cfg := cluster.SuperMIC()
	cfg.ExecJitter = 0
	cfg.FailureProb = 0
	return cfg
}

func runVirtual(t *testing.T, spec *core.Spec, cores int) *core.Report {
	t.Helper()
	env := sim.NewEnv()
	cl := cluster.MustNew(env, quietCluster(), spec.Seed+1)
	pl, err := pilot.Launch(cl, pilot.Description{Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	eng := engines.NewAmberVirtual(2881, spec.Seed+2)
	var report *core.Report
	var runErr error
	env.Go("emm", func(p *sim.Proc) {
		rt := pilot.NewRuntime(pl, p)
		simu, err := core.New(spec, eng, rt)
		if err != nil {
			runErr = err
			return
		}
		report, runErr = simu.Run()
	})
	env.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return report
}

// TestAcceptanceMatchesSlotHistoryRecomputation runs a virtual-engine
// 1-D T-REMD simulation with the collector online and then recomputes
// the per-pair acceptance statistics post hoc from the slot history
// alone: replaying the alternating neighbour pairing over each
// pre-event slot assignment and detecting accepted swaps from the slot
// changes. Both views must agree exactly.
func TestAcceptanceMatchesSlotHistoryRecomputation(t *testing.T) {
	const n, cycles = 8, 6
	spec := tremdSpec(n, cycles)
	spec.Bus = core.NewBus()
	col := analysis.New(analysis.ConfigFromSpec(spec))
	col.Attach(spec.Bus, 1<<14)
	rep := runVirtual(t, spec, n)
	stats := col.Snapshot()

	if stats.Events != rep.ExchangeEvents || stats.Events != cycles {
		t.Fatalf("collector saw %d events, report %d, want %d",
			stats.Events, rep.ExchangeEvents, cycles)
	}

	// Post-hoc recomputation. Replica i starts in slot i; for 1-D
	// T-REMD event e the dispatcher pairs ladder neighbours with
	// alternating parity (sweep = e) over the pre-event assignment.
	attempted := make([]uint64, n-1)
	accepted := make([]uint64, n-1)
	prev := make([]int, n)
	for i := range prev {
		prev[i] = i
	}
	for e, row := range rep.SlotHistory {
		bySlot := make([]int, n) // slot -> replica ID
		for id, slot := range prev {
			bySlot[slot] = id
		}
		for _, pr := range exchange.AppendNeighborPairs(nil, bySlot, e) {
			lo := prev[pr.I]
			if prev[pr.J] < lo {
				lo = prev[pr.J]
			}
			attempted[lo]++
			if row[pr.I] == prev[pr.J] && row[pr.J] == prev[pr.I] && row[pr.I] != prev[pr.I] {
				accepted[lo]++
			}
		}
		copy(prev, row)
	}

	if len(stats.Acceptance) != 1 || len(stats.Acceptance[0]) != n-1 {
		t.Fatalf("acceptance shape %d dims, want 1 dim with %d pairs", len(stats.Acceptance), n-1)
	}
	totalAtt := uint64(0)
	for i, ps := range stats.Acceptance[0] {
		if ps.Attempted != attempted[i] || ps.Accepted != accepted[i] {
			t.Fatalf("pair %d: collector %d/%d, slot-history recomputation %d/%d",
				i, ps.Accepted, ps.Attempted, accepted[i], attempted[i])
		}
		totalAtt += ps.Attempted
	}
	if totalAtt == 0 {
		t.Fatal("no exchange attempts recorded: the comparison is vacuous")
	}
}

// exEvent builds a hand-crafted exchange event carrying only what the
// walk tracker consumes.
func exEvent(event int, slots []int) core.ExchangeEvent {
	return core.ExchangeEvent{Event: event, Slots: slots}
}

// TestRoundTripTimesOnHandBuiltTrace drives the round-trip state
// machine through fully known walks on a 3-slot ladder, three replicas
// A, B, C starting in slots 0, 1, 2 (collector time 0), unless a row
// sets a longer ladder. Each step is one exchange event's slot row,
// indexed by replica. The rows pin the definition: a round trip is one
// replica going from an end of the ladder to the other and back, timed
// from its last departure.
func TestRoundTripTimesOnHandBuiltTrace(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ladder int // slots and replicas; 0 means 3
		steps  [][]int
		trips  int
		mean   float64 // mean round-trip time in exchange events
		full   float64 // fraction of replicas that saw both ends
	}{
		{
			// A does 0 -> 1 -> 2 -> 1 -> 0: one round trip of 4 events.
			// B never sees the top, C never the bottom.
			name: "single replica",
			steps: [][]int{
				{1, 0, 2}, // t=1: A leaves bottom
				{2, 0, 1}, // t=2: A reaches top (armed)
				{1, 0, 2}, // t=3: coming back
				{0, 1, 2}, // t=4: A back at bottom
			},
			trips: 1, mean: 4, full: 1.0 / 3,
		},
		{
			// On a 4-slot ladder A walks 0 -> 3 -> 0 one step at a time:
			// one round trip of 6 events. D leaves the top and comes back
			// unarmed; only A sees both ends.
			name:   "full traversal",
			ladder: 4,
			steps: [][]int{
				{1, 0, 2, 3}, // t=1: A leaves bottom
				{2, 0, 1, 3}, // t=2
				{3, 0, 1, 2}, // t=3: A reaches top (armed)
				{2, 0, 1, 3}, // t=4: coming back
				{1, 0, 2, 3}, // t=5
				{0, 1, 2, 3}, // t=6: A back at bottom
			},
			trips: 1, mean: 6, full: 1.0 / 4,
		},
		{
			// Lingering at the starting end must not inflate the
			// round-trip time: the clock restarts on an unarmed revisit.
			name: "clock restarts on unarmed revisit",
			steps: [][]int{
				{0, 1, 2}, // t=1: A lingers at bottom (clock restarts)
				{0, 1, 2}, // t=2: still lingering (clock restarts)
				{1, 0, 2}, // t=3
				{2, 0, 1}, // t=4: top, armed
				{1, 0, 2}, // t=5
				{0, 1, 2}, // t=6: round trip measured from t=2, not t=0
			},
			trips: 1, mean: 4, full: 1.0 / 3,
		},
		{
			// Nobody moves: no trips, and no replica sees both ends.
			name:  "frozen ladder",
			steps: [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}},
			trips: 0, mean: 0, full: 0,
		},
		{
			// A climbs 0 -> 1 -> 2 and stays: half a trip counts 0.
			name:  "half traversal",
			steps: [][]int{{1, 0, 2}, {2, 0, 1}},
			trips: 0, mean: 0, full: 1.0 / 3,
		},
		{
			// A climbs 0 -> 2 and C descends 2 -> 0: two halves, but
			// by two replicas, so no round trip.
			name:  "opposite crossings",
			steps: [][]int{{1, 0, 2}, {2, 0, 1}, {2, 1, 0}},
			trips: 0, mean: 0, full: 2.0 / 3,
		},
		{
			// A goes 0 -> 2 -> 0 -> 2 -> 0: two round trips of 2 events.
			// C goes 2 -> 0 -> 1 -> 0 -> 1 and B 1 -> 1 -> 2 -> 1 -> 2;
			// neither gets back to the end it started from.
			name:  "two round trips",
			steps: [][]int{{2, 1, 0}, {0, 2, 1}, {2, 1, 0}, {0, 2, 1}},
			trips: 2, mean: 2, full: 2.0 / 3,
		},
		{
			// One slot is both ends: the replica covers the ladder
			// without moving, and makes no trip.
			name:   "one slot",
			ladder: 1,
			steps:  [][]int{{0}, {0}},
			trips:  0, mean: 0, full: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.ladder
			if n == 0 {
				n = 3
			}
			col := analysis.New(analysis.Config{DimSizes: []int{n}, Replicas: n})
			traceA := make([]int, 0, len(tc.steps))
			for e, slots := range tc.steps {
				col.Apply(exEvent(e, slots))
				traceA = append(traceA, slots[0])
			}
			st := col.Snapshot()
			if st.RoundTrips != tc.trips || st.MeanRoundTripEvents != tc.mean {
				t.Fatalf("got %d trips, mean %v events; want %d, mean %v",
					st.RoundTrips, st.MeanRoundTripEvents, tc.trips, tc.mean)
			}
			if st.FullTraversalFraction != tc.full {
				t.Fatalf("full-traversal fraction %v, want %v", st.FullTraversalFraction, tc.full)
			}
			if last := tc.steps[len(tc.steps)-1]; !reflect.DeepEqual(st.Slots, last) {
				t.Fatalf("final slots %v, want %v", st.Slots, last)
			}
			if !reflect.DeepEqual(st.Traces[0], traceA) {
				t.Fatalf("trace of replica 0 is %v, want %v", st.Traces[0], traceA)
			}
		})
	}
}

// TestCollectorStateSurvivesCheckpointRestart is the tentpole's
// checkpoint acceptance criterion: on the barrier-trigger golden
// workload, statistics from a run killed at its snapshot and resumed
// must equal the uninterrupted run's statistics exactly.
func TestCollectorStateSurvivesCheckpointRestart(t *testing.T) {
	const n, cycles = 8, 4
	mkSpec := func() *core.Spec { return tremdSpec(n, cycles) }

	// Uninterrupted run, collector online the whole time; snapshots are
	// captured with the collector state attached, exactly as cmd/repex
	// writes them.
	var snaps []*core.Snapshot
	full := mkSpec()
	full.Bus = core.NewBus()
	colFull := analysis.New(analysis.ConfigFromSpec(full))
	colFull.Attach(full.Bus, 1<<14)
	full.SnapshotEvery = 2
	full.OnSnapshot = func(sn *core.Snapshot) {
		data, err := colFull.EncodeState()
		if err != nil {
			t.Errorf("encoding collector state: %v", err)
			return
		}
		sn.Analysis = data
		snaps = append(snaps, sn)
	}
	runVirtual(t, full, n)
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots, want 2", len(snaps))
	}
	fullStats := colFull.Snapshot()

	// Kill + restart from the first snapshot (event 2), round-tripping
	// the snapshot through its serialized form.
	data, err := snaps[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Analysis) == 0 {
		t.Fatal("snapshot lost the embedded analysis state")
	}
	resumed := mkSpec()
	resumed.Resume = snap
	resumed.Bus = core.NewBus()
	colResumed := analysis.New(analysis.ConfigFromSpec(resumed))
	if err := colResumed.Restore(snap.Analysis); err != nil {
		t.Fatal(err)
	}
	colResumed.Attach(resumed.Bus, 1<<14)
	runVirtual(t, resumed, n)
	resumedStats := colResumed.Snapshot()

	// Histogram sums accumulate wall-time differences whose floating-
	// point rounding depends on the absolute time base, and a resumed
	// run's clock is offset by a fresh batch-queue wait — so the sums
	// may differ in the last ulp. Everything else must match bit-for-
	// bit: compare with the sums zeroed, then the sums with tolerance.
	checkSum := func(name string, a, b float64) {
		t.Helper()
		if diff := a - b; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("%s histogram sum diverged: full %v, resumed %v", name, a, b)
		}
	}
	checkSum("md_exec", fullStats.MDExec.Sum, resumedStats.MDExec.Sum)
	checkSum("exchange_overhead", fullStats.ExchangeOverhead.Sum, resumedStats.ExchangeOverhead.Sum)
	fullStats.MDExec.Sum, resumedStats.MDExec.Sum = 0, 0
	fullStats.ExchangeOverhead.Sum, resumedStats.ExchangeOverhead.Sum = 0, 0
	// A resumed run genuinely launches a fresh pilot, so it sees one more
	// resource (launch) event than the uninterrupted run; the science
	// statistics must still match exactly.
	if resumedStats.ResourceEvents != fullStats.ResourceEvents+1 {
		t.Fatalf("resumed run saw %d resource events, full run %d (want exactly one extra launch)",
			resumedStats.ResourceEvents, fullStats.ResourceEvents)
	}
	fullStats.ResourceEvents, resumedStats.ResourceEvents = 0, 0
	a, err := json.Marshal(fullStats)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(resumedStats)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("resumed statistics diverged from the uninterrupted run:\nfull    %s\nresumed %s", a, b)
	}
	if resumedStats.Events != cycles {
		t.Fatalf("resumed collector saw %d events, want %d", resumedStats.Events, cycles)
	}
}

// TestGapPairsExcludedFromNeighbourStats: an attempt bridging a dead
// replica's window (Hi > Lo+1) must not pollute the (Lo, Lo+1) ratio.
func TestGapPairsExcludedFromNeighbourStats(t *testing.T) {
	col := analysis.New(analysis.Config{DimSizes: []int{4}, Replicas: 4})
	col.Apply(core.ExchangeEvent{
		Event: 0, Dim: 0,
		Pairs: []core.PairOutcome{
			{Lo: 0, Hi: 1, ReplicaI: 0, ReplicaJ: 1, Accepted: true},
			{Lo: 1, Hi: 3, ReplicaI: 1, ReplicaJ: 3, Accepted: true}, // window 2 dead
		},
		Slots: []int{1, 0, 2, 3},
	})
	st := col.Snapshot()
	if st.Acceptance[0][0].Attempted != 1 || st.Acceptance[0][0].Accepted != 1 {
		t.Fatalf("pair (0,1) stats %+v, want 1/1", st.Acceptance[0][0])
	}
	for _, i := range []int{1, 2} {
		if st.Acceptance[0][i].Attempted != 0 {
			t.Fatalf("gap attempt (1,3) leaked into neighbour pair %d: %+v", i, st.Acceptance[0][i])
		}
	}
}

// TestRunBufferCoversWholeRun: a collector sized by RunBuffer and
// drained only at the end must lose nothing.
func TestRunBufferCoversWholeRun(t *testing.T) {
	spec := tremdSpec(8, 6)
	if n := analysis.RunBuffer(spec); n < 8*6*2 {
		t.Fatalf("RunBuffer %d below the run's segment count", n)
	}
	spec.Bus = core.NewBus()
	col := analysis.New(analysis.ConfigFromSpec(spec))
	col.Attach(spec.Bus, analysis.RunBuffer(spec))
	runVirtual(t, spec, 8)
	st := col.Snapshot()
	if st.BusDropped != 0 {
		t.Fatalf("RunBuffer-sized collector dropped %d events", st.BusDropped)
	}
	seen := uint64(st.MDSegments+st.Events) + st.ResourceEvents
	if seen != spec.Bus.Published() {
		t.Fatalf("collector saw %d events, bus published %d",
			seen, spec.Bus.Published())
	}
}

// TestRestoreShrinksOversizedTraces: a trace restored from a collector
// with a larger TraceLen must converge back to this collector's cap
// instead of growing without bound.
func TestRestoreShrinksOversizedTraces(t *testing.T) {
	big := analysis.New(analysis.Config{DimSizes: []int{3}, Replicas: 3, TraceLen: 8})
	rows := [][]int{{1, 0, 2}, {2, 0, 1}, {1, 0, 2}, {0, 1, 2}, {1, 0, 2}, {2, 0, 1}}
	for e, slots := range rows {
		big.Apply(exEvent(e, slots))
	}
	data, err := big.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	small := analysis.New(analysis.Config{DimSizes: []int{3}, Replicas: 3, TraceLen: 4})
	if err := small.Restore(data); err != nil {
		t.Fatal(err)
	}
	small.Apply(exEvent(6, []int{1, 0, 2}))
	small.Apply(exEvent(7, []int{0, 1, 2}))
	for id, tr := range small.Snapshot().Traces {
		if len(tr) > 4 {
			t.Fatalf("replica %d trace grew to %d entries past the cap of 4: %v", id, len(tr), tr)
		}
	}
	// The tail is the most recent slots.
	if got := small.Snapshot().Traces[0]; got[len(got)-1] != 0 || got[len(got)-2] != 1 {
		t.Fatalf("trace tail %v does not end with the latest slots", got)
	}
}

// TestSeedResumeUsesSnapshotBaseline: resuming without embedded
// analysis state must baseline walks at the checkpoint's slot
// assignment and event counter, not the fresh-run identity.
func TestSeedResumeUsesSnapshotBaseline(t *testing.T) {
	col := analysis.New(analysis.Config{DimSizes: []int{3}, Replicas: 3})
	sn := &core.Snapshot{
		Events: 10,
		Replicas: []core.ReplicaState{
			{ID: 0, Slot: 2}, {ID: 1, Slot: 0}, {ID: 2, Slot: 1},
		},
	}
	if err := col.SeedResume(sn); err != nil {
		t.Fatal(err)
	}
	st := col.Snapshot()
	if st.Events != 10 {
		t.Fatalf("seeded event clock %d, want 10", st.Events)
	}
	if st.Slots[0] != 2 || st.Slots[1] != 0 || st.Slots[2] != 1 {
		t.Fatalf("seeded slots %v, want snapshot assignment [2 0 1]", st.Slots)
	}
	// Replica 0 starts at the top post-seed; walking it to the bottom
	// and back must count one round trip timed from the seed point.
	col.Apply(exEvent(10, []int{1, 0, 2})) // t=11
	col.Apply(exEvent(11, []int{0, 1, 2})) // t=12: bottom (armed... no—opposite)
	col.Apply(exEvent(12, []int{1, 0, 2})) // t=13
	col.Apply(exEvent(13, []int{2, 0, 1})) // t=14: back at top -> round trip
	st = col.Snapshot()
	if st.RoundTrips != 1 || st.MeanRoundTripEvents != 4 {
		t.Fatalf("post-seed walk: %d trips, mean %v; want 1 trip of 4 events (10->14)",
			st.RoundTrips, st.MeanRoundTripEvents)
	}
	// Wrong replica count is rejected.
	if err := col.SeedResume(&core.Snapshot{Replicas: make([]core.ReplicaState, 5)}); err == nil {
		t.Fatal("snapshot with 5 replicas seeded a 3-replica collector")
	}
}

// TestRelaunchExecFeedsHistogram: every MD attempt's execution time is
// observed exactly once — relaunched attempts via their FaultEvent,
// final results via MDEvent — while the segment/failure counters track
// final results only.
func TestRelaunchExecFeedsHistogram(t *testing.T) {
	col := analysis.New(analysis.Config{DimSizes: []int{3}, Replicas: 3})
	col.Apply(core.FaultEvent{Replica: 0, Kind: core.FaultKindRelaunch, Retries: 1, Exec: 50})
	col.Apply(core.FaultEvent{Replica: 0, Kind: core.FaultKindResourceLost, Retries: 1, Exec: 20})
	col.Apply(core.MDEvent{Replica: 0, Cycle: 1, Exec: 100})
	col.Apply(core.MDEvent{Replica: 1, Cycle: 1, Exec: 110, Failed: true}) // terminal: dropped
	col.Apply(core.FaultEvent{Replica: 1, Kind: core.FaultKindDrop, Retries: 3})
	st := col.Snapshot()
	if st.MDExec.Count != 4 {
		t.Fatalf("histogram observed %d attempts, want 4 (2 relaunched + 2 final)", st.MDExec.Count)
	}
	if st.MDExec.Sum != 50+20+100+110 {
		t.Fatalf("histogram sum %v, want 280", st.MDExec.Sum)
	}
	if st.MDSegments != 2 || st.MDFailures != 1 {
		t.Fatalf("segments/failures %d/%d, want 2/1 (final results only)", st.MDSegments, st.MDFailures)
	}
	if st.Faults[core.FaultKindRelaunch] != 1 || st.Faults[core.FaultKindDrop] != 1 {
		t.Fatalf("fault counts %v", st.Faults)
	}
}

// TestRestoreRejectsMismatchedState guards resume against stale or
// foreign collector state.
func TestRestoreRejectsMismatchedState(t *testing.T) {
	col := analysis.New(analysis.Config{DimSizes: []int{4}, Replicas: 4})
	other := analysis.New(analysis.Config{DimSizes: []int{6}, Replicas: 6})
	data, err := other.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Restore(data); err == nil {
		t.Fatal("state from a 6-replica run restored into a 4-replica collector")
	}
	if err := col.Restore([]byte("{trunc")); err == nil {
		t.Fatal("truncated state accepted")
	}
	// Same rank and replica count, different grid shape: 2x6 vs 3x4.
	grid26 := analysis.New(analysis.Config{DimSizes: []int{2, 6}, Replicas: 12})
	grid34 := analysis.New(analysis.Config{DimSizes: []int{3, 4}, Replicas: 12})
	shaped, err := grid26.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if err := grid34.Restore(shaped); err == nil {
		t.Fatal("2x6 state restored into a 3x4 collector")
	}
}

// TestPilotCoresGaugeAcrossOverlappedFailover: a preempted slot's
// replacement (queue wait 10 s) activates long before the retired
// pilot's 60 s notice runs out, so the slot's last event is the retired
// pilot's expire (Cores 0) — with eight cores live. The gauge must read
// the live pilot, on one slot and on two, and a resumed collector must
// not count the snapshot's dead pilots on top of the new launches.
func TestPilotCoresGaugeAcrossOverlappedFailover(t *testing.T) {
	for _, pilots := range []int{1, 2} {
		env := sim.NewEnv()
		cfg := quietCluster()
		cfg.QueueWait = 10
		cl := cluster.MustNew(env, cfg, 1)
		pls := make([]*pilot.Pilot, pilots)
		for i := range pls {
			var err error
			if pls[i], err = pilot.Launch(cl, pilot.Description{Cores: 8}); err != nil {
				t.Fatal(err)
			}
		}
		last := pilots - 1
		col := analysis.New(analysis.Config{DimSizes: []int{2}, Replicas: 2})
		env.Go("emm", func(p *sim.Proc) {
			rt, err := pilot.NewMultiRuntime(p, pls...)
			if err != nil {
				t.Error(err)
				return
			}
			rt.Failover = true
			rt.SleepUntil(21)
			rt.PilotAt(last).Preempt(60)
			rt.Await(rt.Submit(&task.Spec{Name: "md", Kind: task.MD, Cores: 1, Duration: 5})) // relaunches the draining slot
			rt.SleepUntil(100)
			for _, ev := range rt.DrainResourceEvents() {
				col.Apply(core.ResourceEvent{At: ev.At, Pilot: ev.Pilot, Kind: ev.Kind, Cores: ev.Cores, Delta: ev.Delta, Notice: ev.Notice})
			}
			if rt.Relaunched() != 1 || rt.PilotAt(last).Cores() != 8 {
				t.Errorf("%d pilots: relaunched %d, slot %d holds %d cores; want 1 and 8", pilots, rt.Relaunched(), last, rt.PilotAt(last).Cores())
			}
		})
		env.Run()
		got := col.Snapshot().PilotCores
		if len(got) != pilots || got[last] != 8 || got[0] != 8 {
			t.Errorf("%d pilots: gauge %v after the retired pilot's expire, want 8 on each of %d slots", pilots, got, pilots)
		}

		state, err := col.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		resumed := analysis.New(analysis.Config{DimSizes: []int{2}, Replicas: 2})
		if err := resumed.Restore(state); err != nil {
			t.Fatal(err)
		}
		resumed.Apply(core.ResourceEvent{At: 10, Pilot: last, Kind: task.ResourceLaunch, Cores: 8, Delta: 8})
		if got := resumed.Snapshot().PilotCores; got[last] != 8 {
			t.Errorf("%d pilots: resumed gauge %v after the new process's launch, want 8 on slot %d", pilots, got, last)
		}
	}
}

// TestWalkTracesShareOneArena: a walk trace grows at most once per
// doubling for all walks together, not once per walk — 512 walks through
// 100 events take the arenas of 1, 2, 4, ..., 64 entries a walk (seven
// allocations where appending each trace made 3584) — and each trace
// still holds exactly its last TraceLen slots.
func TestWalkTracesShareOneArena(t *testing.T) {
	const n, events = 512, 100
	col := analysis.New(analysis.Config{DimSizes: []int{n}, Replicas: n})
	evs := make([]core.Event, events)
	for e := range evs {
		slots := make([]int, n)
		for id := range slots {
			slots[id] = (id + e + 1) % n
		}
		evs[e] = exEvent(e, slots)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ev := range evs {
		col.Apply(ev)
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > 16 {
		t.Errorf("%d allocations over %d events of %d walks, want the 7 arenas", got, events, n)
	}
	st := col.Snapshot()
	for id, tr := range st.Traces {
		if len(tr) != 64 {
			t.Fatalf("walk %d holds %d slots, want 64", id, len(tr))
		}
		for i, slot := range tr {
			if want := (id + events - 64 + i + 1) % n; slot != want {
				t.Fatalf("walk %d trace[%d] = %d, want %d", id, i, slot, want)
			}
		}
	}
}
