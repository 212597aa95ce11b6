package core_test

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/pilot"
	"repro/internal/sim"
)

// runVirtual executes a spec with a virtual engine on a simulated
// cluster with the given pilot size and returns the report.
func runVirtual(t *testing.T, spec *core.Spec, cfg cluster.Config, cores, natoms int) *core.Report {
	t.Helper()
	env := sim.NewEnv()
	cl := cluster.MustNew(env, cfg, spec.Seed+1)
	pl, err := pilot.Launch(cl, pilot.Description{Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	eng := engines.NewAmberVirtual(natoms, spec.Seed+2)
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
	if report == nil {
		t.Fatal("simulation produced no report")
	}
	return report
}

func quietCluster() cluster.Config {
	cfg := cluster.SuperMIC()
	cfg.ExecJitter = 0
	cfg.FailureProb = 0
	return cfg
}

func smallTREMD(n, cycles int) *core.Spec {
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

func TestVirtualTREMDModeI(t *testing.T) {
	spec := smallTREMD(16, 3)
	rep := runVirtual(t, spec, quietCluster(), 16, 2881)
	if rep.Mode != core.ModeI {
		t.Fatalf("mode %v, want I", rep.Mode)
	}
	if len(rep.Records) != 3 {
		t.Fatalf("records %d, want 3", len(rep.Records))
	}
	d := rep.Decompose()
	// 6000 steps of 2881 atoms with sander on SuperMIC: ~139.6 s.
	wantMD := engines.SanderSecsPerAtomStep * 2881 * 6000 / 1.18
	if math.Abs(d.TMD-wantMD)/wantMD > 0.02 {
		t.Fatalf("TMD %v, want ~%v (the paper's 139.6 s)", d.TMD, wantMD)
	}
	if d.TEX <= 0 || d.TRP <= 0 || d.TData <= 0 || d.TRepEx <= 0 {
		t.Fatalf("missing decomposition components: %+v", d)
	}
	// Eq. 1: components must approximately compose the cycle time.
	sum := d.TMD + d.TEX + d.TData + d.TRepEx + d.TRP
	if rep.AvgCycleTime() > sum*1.25 || rep.AvgCycleTime() < sum*0.75 {
		t.Fatalf("cycle time %v vs component sum %v: decomposition broken", rep.AvgCycleTime(), sum)
	}
}

func TestVirtualTREMDModeIIBatches(t *testing.T) {
	// 16 replicas on 4 cores: four waves per phase, so the MD phase
	// wall is ~4x a single segment.
	spec := smallTREMD(16, 2)
	rep := runVirtual(t, spec, quietCluster(), 4, 2881)
	if rep.Mode != core.ModeII {
		t.Fatalf("mode %v, want II", rep.Mode)
	}
	seg := engines.SanderSecsPerAtomStep * 2881 * 6000 / 1.18
	md := rep.Records[0].MD.Wall
	if md < 3.5*seg || md > 5*seg {
		t.Fatalf("Mode II MD phase wall %v, want ~4x segment (%v)", md, 4*seg)
	}
}

func TestVirtualSREMDSinglePointTasksRun(t *testing.T) {
	spec := &core.Spec{
		Name:            "s-remd",
		Dims:            []core.Dimension{{Type: exchange.Salt, Values: []float64{0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8}}},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          2,
		Seed:            5,
	}
	rep := runVirtual(t, spec, quietCluster(), 8, 2881)
	// Exchange phase must include the single-point wave: much longer
	// than a T-REMD exchange.
	tRep := runVirtual(t, smallTREMD(8, 2), quietCluster(), 8, 2881)
	dS, dT := rep.Decompose(), tRep.Decompose()
	if dS.TEX < 2*dT.TEX {
		t.Fatalf("S exchange %v not substantially longer than T exchange %v", dS.TEX, dT.TEX)
	}
	// Exchange phase tasks: 8 SPE + 1 exchange per cycle.
	if rep.Records[0].EX.Tasks != 9 {
		t.Fatalf("exchange phase tasks %d, want 9 (8 SPE + 1 exchange)", rep.Records[0].EX.Tasks)
	}
}

func TestVirtualTSU3D(t *testing.T) {
	spec := &core.Spec{
		Name: "tsu",
		Dims: []core.Dimension{
			{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 4)},
			{Type: exchange.Salt, Values: []float64{0.1, 0.2, 0.4, 0.8}},
			{Type: exchange.Umbrella, Values: core.UniformWindows(4), Torsion: "phi", K: core.UmbrellaK002},
		},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          2,
		Seed:            9,
	}
	rep := runVirtual(t, spec, quietCluster(), 64, 2881)
	if rep.DimCode != "TSU" || rep.Replicas != 64 {
		t.Fatalf("report %s/%d, want TSU/64", rep.DimCode, rep.Replicas)
	}
	// One record per (cycle, dim).
	if len(rep.Records) != 2*3 {
		t.Fatalf("records %d, want 6", len(rep.Records))
	}
	// M-REMD cycle time is the sum of per-dimension sub-cycles: the
	// average full-cycle MD time is ~3x a 1D cycle's.
	d := rep.Decompose()
	oneD := engines.SanderSecsPerAtomStep * 2881 * 6000 / 1.18
	if math.Abs(d.TMD-3*oneD)/(3*oneD) > 0.02 {
		t.Fatalf("3D TMD %v, want ~3x %v", d.TMD, oneD)
	}
	// Salt dimension exchange dominates the exchange time.
	_, texT := rep.DimDecompose(0)
	_, texS := rep.DimDecompose(1)
	if texS < 2*texT {
		t.Fatalf("S-dim exchange %v not dominant over T-dim %v", texS, texT)
	}
}

func TestFaultDropPolicy(t *testing.T) {
	cfg := quietCluster()
	cfg.FailureProb = 0.10
	spec := smallTREMD(16, 3)
	spec.FaultPolicy = core.FaultDrop
	spec.Seed = 3
	rep := runVirtual(t, spec, cfg, 16, 2881)
	if rep.Dropped == 0 {
		t.Fatal("no replicas dropped under 10% failure rate")
	}
	if rep.Relaunches != 0 {
		t.Fatal("drop policy must not relaunch")
	}
}

func TestFaultRelaunchPolicy(t *testing.T) {
	cfg := quietCluster()
	cfg.FailureProb = 0.10
	spec := smallTREMD(16, 3)
	spec.FaultPolicy = core.FaultRelaunch
	spec.Seed = 3
	rep := runVirtual(t, spec, cfg, 16, 2881)
	if rep.Relaunches == 0 {
		t.Fatal("no relaunches under 10% failure rate")
	}
	// With retries, most replicas survive.
	if rep.Dropped > 4 {
		t.Fatalf("dropped %d replicas despite relaunch policy", rep.Dropped)
	}
}

func TestAsyncPatternCompletes(t *testing.T) {
	spec := smallTREMD(12, 3)
	spec.Pattern = core.PatternAsynchronous
	spec.AsyncWindow = 30
	spec.AsyncMinReady = 4
	rep := runVirtual(t, spec, quietCluster(), 12, 2881)
	if rep.ExchangeEvents == 0 {
		t.Fatal("asynchronous run performed no exchanges")
	}
	if rep.Utilization() <= 0 || rep.Utilization() > 1 {
		t.Fatalf("utilization %v out of (0,1]", rep.Utilization())
	}
}

func TestSyncUtilizationExceedsAsync(t *testing.T) {
	// Figure 13's headline: synchronous utilization is higher.
	cfg := cluster.SuperMIC()
	cfg.FailureProb = 0
	cfg.ExecJitter = 0.06
	mk := func(pattern core.Pattern) *core.Report {
		spec := smallTREMD(24, 3)
		spec.Pattern = pattern
		if pattern == core.PatternAsynchronous {
			spec.AsyncWindow = 45 // pure window criterion (MinReady 0)
		}
		return runVirtual(t, spec, cfg, 24, 2881)
	}
	sync := mk(core.PatternSynchronous)
	async := mk(core.PatternAsynchronous)
	if sync.Utilization() <= async.Utilization() {
		t.Fatalf("sync utilization %.3f not above async %.3f",
			sync.Utilization(), async.Utilization())
	}
}

func TestAcceptanceRatiosReasonable(t *testing.T) {
	// The synthetic thermodynamics should produce acceptance in a
	// plausible REMD range: not 0, not ~100%.
	spec := smallTREMD(8, 8)
	rep := runVirtual(t, spec, quietCluster(), 8, 2881)
	r := rep.AcceptanceRatioByDim(0)
	if r <= 0.001 || r >= 0.9 {
		t.Fatalf("T-REMD acceptance %v outside plausible range", r)
	}
}

func TestReportString(t *testing.T) {
	rep := runVirtual(t, smallTREMD(4, 1), quietCluster(), 4, 2881)
	s := rep.String()
	for _, want := range []string{"T", "replicas=4", "utilization"} {
		if !contains(s, want) {
			t.Fatalf("report string missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestVirtualPHREMD(t *testing.T) {
	spec := &core.Spec{
		Name:            "ph-remd",
		Dims:            []core.Dimension{{Type: exchange.PH, Values: []float64{4, 5, 6, 7, 8, 9, 10}}},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          6,
		Seed:            31,
	}
	rep := runVirtual(t, spec, quietCluster(), 7, 2881)
	if rep.DimCode != "H" {
		t.Fatalf("dim code %q, want H", rep.DimCode)
	}
	acc := rep.AcceptanceRatioByDim(0)
	if acc <= 0.01 || acc >= 0.99 {
		t.Fatalf("pH acceptance %v outside plausible range", acc)
	}
}

func TestMixingDiagnosticsOverRun(t *testing.T) {
	spec := smallTREMD(8, 12)
	rep := runVirtual(t, spec, quietCluster(), 8, 2881)
	if len(rep.SlotHistory) != 12 {
		t.Fatalf("slot history rows %d, want 12", len(rep.SlotHistory))
	}
	// Exchanges happen, so replicas must move through the ladder: some
	// replica gets two or more rungs from its start (replica r starts in
	// slot r).
	farthest := 0
	for _, row := range rep.SlotHistory {
		for r, slot := range row {
			farthest = max(farthest, slot-r, r-slot)
		}
	}
	if farthest < 2 {
		t.Fatalf("no replica got farther than %d rung from its start", farthest)
	}
}
