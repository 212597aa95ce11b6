package core_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/pilot"
	"repro/internal/sim"
	"repro/internal/trace"
)

// bunchedLadder is a deliberately mis-spaced 8-rung T ladder: seven
// rungs crowded into 273–303 K (neighbour exchanges accept nearly
// always) and one 70 K cliff to 373 K (neighbour exchanges accept
// nearly never). No window length reaches the acceptance target on it,
// so the feedback controller saturates — the scenario respacing exists
// for.
func bunchedLadder() []float64 {
	return []float64{273, 278, 283, 288, 293, 298, 303, 373}
}

// mkRespaceRun builds a feedback-trigger run over the bunched ladder
// with respacing armed: short saturation threshold, a collector feeding
// the planner, and snapshots every 3 events.
func mkRespaceRun() (*core.Spec, *core.FeedbackTrigger, *analysis.Collector) {
	tr := core.NewFeedbackTrigger(150)
	tr.Target = 0.3
	tr.WindowEvents = 8
	tr.SaturationSteps = 2
	spec := &core.Spec{
		Name:            "respace-resume",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: bunchedLadder()}},
		Pattern:         core.PatternAsynchronous,
		Trigger:         tr,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          16,
		AsyncWindow:     150,
		Seed:            33,
	}
	spec.Bus = core.NewBus()
	col := analysis.New(analysis.ConfigFromSpec(spec))
	col.Attach(spec.Bus, analysis.RunBuffer(spec))
	spec.Respace = &core.RespaceSpec{
		AfterSteps: 2,
		MaxRefits:  2,
		Planner:    col,
	}
	spec.SnapshotEvery = 3
	return spec, tr, col
}

// runVirtualSim is runVirtual with the simulation handle kept, so tests
// can read its Respacing after the run.
// history is the simulation's refit history; ladders its current grid.
func history(s *core.Simulation) []core.RespaceRecord {
	_, h := s.Respacing()
	return h
}

func ladders(s *core.Simulation) [][]float64 {
	l, _ := s.Respacing()
	return l
}

func runVirtualSim(t *testing.T, spec *core.Spec, cfg cluster.Config, cores, natoms int) (*core.Report, *core.Simulation) {
	t.Helper()
	env := sim.NewEnv()
	cl := cluster.MustNew(env, cfg, spec.Seed+1)
	pl, err := pilot.Launch(cl, pilot.Description{Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	eng := engines.NewAmberVirtual(natoms, spec.Seed+2)
	var report *core.Report
	var simu *core.Simulation
	var runErr error
	env.Go("emm", func(p *sim.Proc) {
		rt := pilot.NewRuntime(pl, p)
		simu, err = core.New(spec, eng, rt)
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
	if report == nil {
		t.Fatal("simulation produced no report")
	}
	return report, simu
}

// TestRespaceFiresOnSaturatedLadder is the closed-loop acceptance
// criterion for the tentpole: on the bunched ladder the run must
// actually perform a refit, the refit must land on a snapshot boundary,
// and the resulting grid must keep the rung count, the endpoints and
// strict monotonicity while pulling rungs toward the cliff.
func TestRespaceFiresOnSaturatedLadder(t *testing.T) {
	spec, _, _ := mkRespaceRun()
	var snaps []*core.Snapshot
	spec.OnSnapshot = func(sn *core.Snapshot) { snaps = append(snaps, sn) }
	_, simu := runVirtualSim(t, spec, quietCluster(), 8, 2881)

	hist := history(simu)
	if len(hist) == 0 {
		t.Fatal("bunched ladder never respaced")
	}
	rec := hist[0]
	if spec.SnapshotEvery > 0 && rec.Event%spec.SnapshotEvery != 0 {
		t.Fatalf("refit at event %d, not on a snapshot boundary (every %d)",
			rec.Event, spec.SnapshotEvery)
	}
	old, next := rec.Old, rec.New
	if len(next) != len(old) {
		t.Fatalf("refit changed rung count: %d -> %d", len(old), len(next))
	}
	if next[0] != old[0] || next[len(next)-1] != old[len(old)-1] {
		t.Fatalf("refit moved endpoints: %v -> %v", old, next)
	}
	for i := 1; i < len(next); i++ {
		if next[i] <= next[i-1] {
			t.Fatalf("refit ladder not strictly increasing: %v", next)
		}
	}
	// The cliff sat between the last two rungs; the re-fit must widen
	// the crowded region, i.e. every interior rung moves up.
	for i := 1; i < len(next)-1; i++ {
		if next[i] <= old[i] {
			t.Fatalf("rung %d did not move toward the cliff: %v -> %v", i, old[i], next[i])
		}
	}
	// The simulation's live grid and the record agree.
	if got := ladders(simu)[0]; !reflect.DeepEqual(got, hist[len(hist)-1].New) {
		t.Fatalf("live ladder %v does not match last refit %v", got, hist[len(hist)-1].New)
	}
	// Snapshots taken at or after the refit carry the refitted grid.
	carried := false
	for _, sn := range snaps {
		if sn.Events >= rec.Event && len(sn.DimValues) > 0 {
			if !reflect.DeepEqual(sn.DimValues[0], rec.New) {
				t.Fatalf("snapshot at event %d carries %v, refit produced %v",
					sn.Events, sn.DimValues[0], rec.New)
			}
			carried = true
			break
		}
	}
	if !carried {
		t.Fatal("no snapshot carried the refitted grid")
	}
}

// maskAt zeroes the virtual-clock timestamps of a refit history so
// cross-resume comparisons check the decisions, not the clock origin.
func maskAt(hist []core.RespaceRecord) []core.RespaceRecord {
	out := make([]core.RespaceRecord, len(hist))
	copy(out, hist)
	for i := range out {
		out[i].At = 0
	}
	return out
}

// TestRespaceResumeDeterminism is the determinism acceptance criterion:
// a run interrupted BEFORE its refit and resumed from that snapshot
// must replay the refit identically — same event, same new grid — and
// reproduce the uninterrupted run's slot history bit-exactly. This
// rests on three restored pieces: the controller's saturation counters
// (TriggerData), the collector's acceptance profile (Analysis), and the
// planner being a pure function of that profile.
func TestRespaceResumeDeterminism(t *testing.T) {
	spec, trFull, colFull := mkRespaceRun()
	var snaps []*core.Snapshot
	spec.OnSnapshot = func(sn *core.Snapshot) {
		if data, err := colFull.EncodeState(); err == nil {
			sn.Analysis = data
		} else {
			t.Errorf("encoding analysis state: %v", err)
		}
		snaps = append(snaps, sn)
	}
	full, fullSim := runVirtualSim(t, spec, quietCluster(), 8, 2881)

	fullHist := history(fullSim)
	if len(fullHist) == 0 {
		t.Fatal("full run never respaced; nothing to replay")
	}
	// Resume from the last snapshot strictly before the first refit, so
	// the resumed run has to re-decide the refit itself.
	var pre *core.Snapshot
	for _, sn := range snaps {
		if sn.Events < fullHist[0].Event {
			pre = sn
		}
	}
	if pre == nil {
		t.Fatalf("no snapshot precedes the first refit (event %d)", fullHist[0].Event)
	}
	data, err := pre.Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}

	resumedSpec, trResumed, colResumed := mkRespaceRun()
	resumedSpec.OnSnapshot = func(*core.Snapshot) {}
	if err := colResumed.Restore(snap.Analysis); err != nil {
		t.Fatalf("restoring collector: %v", err)
	}
	resumedSpec.Resume = snap
	resumed, resumedSim := runVirtualSim(t, resumedSpec, quietCluster(), 8, 2881)

	if resumed.ExchangeEvents != full.ExchangeEvents {
		t.Fatalf("resumed run fired %d events, uninterrupted %d",
			resumed.ExchangeEvents, full.ExchangeEvents)
	}
	if historyFingerprint(resumed.SlotHistory) != historyFingerprint(full.SlotHistory) {
		t.Fatalf("resumed slot history diverged:\nfull    %v\nresumed %v",
			full.SlotHistory, resumed.SlotHistory)
	}
	// Record timestamps are raw virtual-clock readings (like every bus
	// event's At) and the resumed environment's clock restarts at zero,
	// so compare the histories with At masked: same event, same refit
	// ordinal, same grids is the determinism that matters.
	if !reflect.DeepEqual(maskAt(history(resumedSim)), maskAt(fullHist)) {
		t.Fatalf("refit history diverged:\nfull    %+v\nresumed %+v",
			fullHist, history(resumedSim))
	}
	if !reflect.DeepEqual(ladders(resumedSim), ladders(fullSim)) {
		t.Fatalf("final ladders diverged:\nfull    %v\nresumed %v",
			ladders(fullSim), ladders(resumedSim))
	}
	sf, sr := trFull.ControllerStatus(), trResumed.ControllerStatus()
	for d := range sf {
		if len(sr) != len(sf) || sf[d].Measured != sr[d].Measured || sf[d].Outcomes != sr[d].Outcomes {
			t.Fatalf("controller measurement diverged:\nfull    %+v\nresumed %+v", sf, sr)
		}
	}
	// The window a dimension would open next is pinned apart: dimension
	// 0 was reset by its refit and is back on the warm-up window, mean +
	// 2σ of the MD completion latencies, and those differ after a
	// resume. The segments in flight at the snapshot are discarded and
	// redone, and a redone segment's latency runs from its submission
	// on the resumed clock, not from the uninterrupted run's. Both
	// values are the ones the dispatcher produced while it woke at every
	// MD completion (150.775 s uninterrupted, 155.428 s resumed); how
	// the dispatcher waits must move neither.
	wantWindow := []struct{ full, resumed uint64 }{{0x4062d8ccdf2c46f0, 0x40636dafc81c0b91}}
	if len(sf) != len(wantWindow) {
		t.Fatalf("%d controller dimensions, want %d", len(sf), len(wantWindow))
	}
	for d, w := range wantWindow {
		if math.Float64bits(sf[d].Window) != w.full || math.Float64bits(sr[d].Window) != w.resumed {
			t.Errorf("dimension %d window: uninterrupted %v, resumed %v; want %v and %v", d,
				sf[d].Window, sr[d].Window, math.Float64frombits(w.full), math.Float64frombits(w.resumed))
		}
	}
}

// TestRespaceResumeAfterRefit: resuming from a snapshot taken at or
// after the refit must restore the refitted grid (Snapshot.DimValues)
// and the refit budget, not re-derive them — and still reproduce the
// full run's slot history.
func TestRespaceResumeAfterRefit(t *testing.T) {
	spec, _, colFull := mkRespaceRun()
	var snaps []*core.Snapshot
	spec.OnSnapshot = func(sn *core.Snapshot) {
		if data, err := colFull.EncodeState(); err == nil {
			sn.Analysis = data
		}
		snaps = append(snaps, sn)
	}
	full, fullSim := runVirtualSim(t, spec, quietCluster(), 8, 2881)
	fullHist := history(fullSim)
	if len(fullHist) == 0 {
		t.Fatal("full run never respaced")
	}
	var post *core.Snapshot
	for _, sn := range snaps {
		if sn.Events >= fullHist[0].Event && len(sn.DimValues) > 0 {
			post = sn
			break
		}
	}
	if post == nil {
		t.Fatal("no snapshot captured after the refit")
	}
	data, err := post.Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	resumedSpec, _, colResumed := mkRespaceRun()
	if err := colResumed.Restore(snap.Analysis); err != nil {
		t.Fatalf("restoring collector: %v", err)
	}
	resumedSpec.Resume = snap
	resumed, resumedSim := runVirtualSim(t, resumedSpec, quietCluster(), 8, 2881)

	if historyFingerprint(resumed.SlotHistory) != historyFingerprint(full.SlotHistory) {
		t.Fatalf("resumed slot history diverged")
	}
	if !reflect.DeepEqual(ladders(resumedSim), ladders(fullSim)) {
		t.Fatalf("resumed ladder %v, full %v",
			ladders(resumedSim), ladders(fullSim))
	}
	if !reflect.DeepEqual(history(resumedSim), fullHist) {
		t.Fatalf("restored refit history diverged:\nfull    %+v\nresumed %+v",
			fullHist, history(resumedSim))
	}
}

// TestRespaceTraceDeterminism: two fresh runs of the same respacing
// spec export byte-identical flight-recorder traces — the respace
// instants land at the same virtual times with the same payloads, so
// the whole pipeline (controller, planner, apply, tracer) is
// deterministic end to end.
func TestRespaceTraceDeterminism(t *testing.T) {
	export := func() []byte {
		spec, _, _ := mkRespaceRun()
		rec := trace.New(0)
		spec.Tracer = rec
		_, simu := runVirtualSim(t, spec, quietCluster(), 8, 2881)
		if len(history(simu)) == 0 {
			t.Fatal("run never respaced; trace carries no respace instants")
		}
		out, err := rec.ExportJSON()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatalf("trace exports differ between identical runs: %d vs %d bytes", len(a), len(b))
	}
	if !bytes.Contains(a, []byte(`"respace"`)) {
		t.Fatal("trace export carries no respace instant")
	}
}

// TestRespaceDisabledDimStaysPut: a dimension opted out via Disabled
// keeps its grid no matter how saturated its controller gets.
func TestRespaceDisabledDimStaysPut(t *testing.T) {
	spec, _, _ := mkRespaceRun()
	spec.Respace.Disabled = []bool{true}
	_, simu := runVirtualSim(t, spec, quietCluster(), 8, 2881)
	if hist := history(simu); len(hist) != 0 {
		t.Fatalf("disabled dimension respaced: %+v", hist)
	}
	if got := ladders(simu)[0]; !reflect.DeepEqual(got, bunchedLadder()) {
		t.Fatalf("disabled dimension's ladder moved: %v", got)
	}
}

// TestRespaceMaxRefitsBudget: the per-dimension budget caps applied
// refits even if the ladder keeps saturating.
func TestRespaceMaxRefitsBudget(t *testing.T) {
	spec, _, _ := mkRespaceRun()
	spec.Respace.MaxRefits = 1
	spec.Cycles = 24
	_, simu := runVirtualSim(t, spec, quietCluster(), 8, 2881)
	if got := len(history(simu)); got > 1 {
		t.Fatalf("refit budget 1, applied %d", got)
	}
}
