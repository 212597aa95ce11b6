package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/pilot"
)

// shippedParams loads a committed simulation/resource pair through
// LaunchParams, the mapping cmd/repex and repexd run. Specs are
// stateful, so every call rebuilds everything from the files.
func shippedParams(t *testing.T, simName, resName string) RunParams {
	t.Helper()
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("..", "..", "configs", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	simFile, err := config.ParseSimulation(read(simName))
	if err != nil {
		t.Fatal(err)
	}
	resFile, err := config.DecodeResource(read(resName))
	if err != nil {
		t.Fatal(err)
	}
	p, err := LaunchParams(&config.Launch{Sim: simFile, Res: resFile})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// chaosParams loads the committed chaos configs (the pair the CI
// chaos-soak lane runs) into fresh RunParams.
func chaosParams(t *testing.T) RunParams {
	t.Helper()
	p := shippedParams(t, "chaos_sim_small.json", "chaos_small.json")
	if p.Chaos.Empty() {
		t.Fatal("configs/chaos_small.json carries no chaos plan")
	}
	return p
}

// checkChaosReport asserts the invariants the chaos lane gates on:
// the scripted faults really happened (preemption observed, units
// relaunched) and no replica was lost to them — every failure was
// resource loss, which is the infrastructure's fault, not the
// replica's.
func checkChaosReport(t *testing.T, rep *core.Report) {
	t.Helper()
	if rep.Dropped != 0 {
		t.Fatalf("chaos run dropped %d replicas, want 0 (resource loss must not consume replica budgets)", rep.Dropped)
	}
	if rep.Preemptions < 1 {
		t.Fatalf("chaos run observed %d preemptions, want >= 1 (the plan scripts one)", rep.Preemptions)
	}
	if rep.Relaunches < 1 {
		t.Fatal("chaos run relaunched nothing; the node loss and preemption should have killed in-flight units")
	}
	if rep.SlotRows != rep.Cycles {
		t.Fatalf("chaos run recorded %d slot rows, want %d (one per barrier sub-cycle)", rep.SlotRows, rep.Cycles)
	}
}

// TestChaosSmallDeterministic: the committed chaos plan — node loss
// mid-cycle, a preemption with notice, an elastic shrink — perturbs
// only virtual-time scheduling, so two runs produce bit-identical slot
// histories and the committed golden fingerprint still matches.
func TestChaosSmallDeterministic(t *testing.T) {
	a, err := Run(chaosParams(t))
	if err != nil {
		t.Fatal(err)
	}
	checkChaosReport(t, a)
	b, err := Run(chaosParams(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.SlotFingerprint != b.SlotFingerprint || a.SlotRows != b.SlotRows {
		t.Fatalf("chaos run not reproducible: %d rows %016x vs %d rows %016x",
			a.SlotRows, a.SlotFingerprint, b.SlotRows, b.SlotFingerprint)
	}

	golden, err := os.ReadFile(filepath.Join("..", "..", "configs", "chaos_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%d %016x", a.SlotRows, a.SlotFingerprint)
	if want := strings.TrimSpace(string(golden)); got != want {
		t.Fatalf("slot history diverged from configs/chaos_small.golden: got %q, want %q\n"+
			"(if the change is intentional, update the golden file)", got, want)
	}
}

// TestChaosSmallResume: killing the chaos run at a checkpoint boundary
// and resuming — with the same chaos plan re-driven against the fresh
// virtual clock — completes with the identical slot history: the
// barrier absorbs completions in submission order, so resource faults
// can delay segments but never reorder the exchange decisions.
func TestChaosSmallResume(t *testing.T) {
	full, err := Run(chaosParams(t))
	if err != nil {
		t.Fatal(err)
	}
	checkChaosReport(t, full)

	var snaps []*core.Snapshot
	p := chaosParams(t)
	p.Spec.SnapshotEvery = 3
	p.Spec.OnSnapshot = func(sn *core.Snapshot) { snaps = append(snaps, sn) }
	if _, err := Run(p); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots captured")
	}
	data, err := snaps[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}

	rp := chaosParams(t)
	rp.Spec.Resume = snap
	resumed, err := Run(rp)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Dropped != 0 {
		t.Fatalf("resumed chaos run dropped %d replicas, want 0", resumed.Dropped)
	}
	if resumed.SlotFingerprint != full.SlotFingerprint || resumed.SlotRows != full.SlotRows {
		t.Fatalf("resumed chaos run diverged: %d rows %016x, uninterrupted %d rows %016x",
			resumed.SlotRows, resumed.SlotFingerprint, full.SlotRows, full.SlotFingerprint)
	}
}

// respaceChaosParams builds a feedback-trigger run over a deliberately
// bunched T ladder (seven crowded rungs, one 70 K cliff) with online
// respacing armed, running on the chaos-lane cluster. The returned
// simPtr is filled by OnStart so the test can read the refit history
// after the run.
func respaceChaosParams(t *testing.T, chaos *pilot.ChaosPlan) (RunParams, **core.Simulation) {
	t.Helper()
	resData, err := os.ReadFile(filepath.Join("..", "..", "configs", "chaos_small.json"))
	if err != nil {
		t.Fatal(err)
	}
	machine, ps, err := config.ParseResource(resData)
	if err != nil {
		t.Fatal(err)
	}
	tr := core.NewFeedbackTrigger(150)
	// 0.9 is unreachable on this ladder at any window length (the cliff
	// pair rejects nearly everything), so the controller saturates — the
	// same scenario the saturation smoke scripts.
	tr.Target = 0.9
	tr.WindowEvents = 8
	tr.SaturationSteps = 2
	spec := &core.Spec{
		Name:    "respace-chaos",
		Dims:    []core.Dimension{{Type: exchange.Temperature, Values: []float64{273, 278, 283, 288, 293, 298, 303, 373}}},
		Pattern: core.PatternAsynchronous,
		Trigger: tr,
		// relaunch keeps resource faults from consuming replica budgets,
		// the same policy the committed chaos configs use implicitly.
		FaultPolicy:     core.FaultRelaunch,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          16,
		AsyncWindow:     150,
		Seed:            33,
	}
	spec.Bus = core.NewBus()
	col := analysis.New(analysis.ConfigFromSpec(spec))
	col.Attach(spec.Bus, analysis.RunBuffer(spec))
	spec.Respace = &core.RespaceSpec{AfterSteps: 2, MaxRefits: 2, Planner: col}
	simPtr := new(*core.Simulation)
	return RunParams{
		Spec:          spec,
		Cluster:       machine,
		PilotCores:    ps.Cores,
		PilotWalltime: ps.Walltime,
		Pilots:        ps.Pilots,
		Chaos:         chaos,
		NewEngine: func(seed int64) core.Engine {
			return engines.NewAmberVirtual(2881, seed)
		},
		Seed:    spec.Seed,
		OnStart: func(s *core.Simulation) { *simPtr = s },
	}, simPtr
}

// TestChaosDuringRespace: scripted resource faults bracketing the
// refit window — a node loss while the controller is accumulating
// saturation and a preemption right around the refit itself — must not
// stop the ladder re-fit, drop replicas, or break bit-reproducibility.
// The quiet run locates the refit's virtual time first, so the plan
// stays pinned to the refit no matter how the schedule drifts.
func TestChaosDuringRespace(t *testing.T) {
	quietParams, quietSim := respaceChaosParams(t, nil)
	quiet, err := Run(quietParams)
	if err != nil {
		t.Fatal(err)
	}
	quietHist := respacings(*quietSim)
	if len(quietHist) == 0 {
		t.Fatal("quiet run never respaced; the chaos overlap has nothing to target")
	}
	refitAt := quietHist[0].At

	plan := &pilot.ChaosPlan{Events: []pilot.ChaosEvent{
		{At: refitAt * 0.5, Pilot: 0, Kind: pilot.ChaosNodeLoss, Cores: 6},
		{At: refitAt * 0.95, Pilot: 1, Kind: pilot.ChaosPreempt, Notice: 30},
	}}
	run := func() (*core.Report, []core.RespaceRecord) {
		p, simPtr := respaceChaosParams(t, plan)
		rep, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return rep, respacings(*simPtr)
	}
	a, histA := run()
	if a.Dropped != 0 {
		t.Fatalf("chaos-during-respace run dropped %d replicas, want 0", a.Dropped)
	}
	if a.Preemptions < 1 {
		t.Fatalf("chaos plan never preempted (%d), events mistimed", a.Preemptions)
	}
	if a.Relaunches < 1 {
		t.Fatal("chaos plan relaunched nothing; faults did not land in-flight")
	}
	if len(histA) == 0 {
		t.Fatal("faults suppressed the refit entirely")
	}
	if a.ExchangeEvents != quiet.ExchangeEvents {
		t.Fatalf("chaos run fired %d events, quiet run %d — the run did not converge",
			a.ExchangeEvents, quiet.ExchangeEvents)
	}
	b, histB := run()
	if a.SlotFingerprint != b.SlotFingerprint || a.SlotRows != b.SlotRows {
		t.Fatalf("chaos-during-respace run not reproducible: %d rows %016x vs %d rows %016x",
			a.SlotRows, a.SlotFingerprint, b.SlotRows, b.SlotFingerprint)
	}
	if len(histA) != len(histB) || histA[0].Event != histB[0].Event {
		t.Fatalf("refit schedule not reproducible: %+v vs %+v", histA, histB)
	}
}

// TestChaosNoChaosDiverges guards against the chaos plan silently not
// firing: the same configs without the plan must route differently
// enough to relaunch nothing and preempt nothing.
func TestChaosNoChaosDiverges(t *testing.T) {
	p := chaosParams(t)
	p.Chaos = nil
	rep, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Preemptions != 0 {
		t.Fatalf("quiet run observed %d preemptions, want 0", rep.Preemptions)
	}
	if rep.Relaunches != 0 {
		t.Fatalf("quiet run relaunched %d units, want 0 (no walltime, no chaos)", rep.Relaunches)
	}
	if rep.Dropped != 0 {
		t.Fatalf("quiet run dropped %d replicas", rep.Dropped)
	}
}
