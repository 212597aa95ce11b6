package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/exchange"
	"repro/internal/localexec"
	"repro/internal/md"
	"repro/internal/task"
)

// stubEngine is a minimal Engine for unit-testing the orchestrator
// without cost models or real MD: MD tasks are instantaneous no-ops and
// energies are deterministic functions of the slot.
type stubEngine struct {
	energyOf func(r *Replica) float64
	crossOf  func(r *Replica, under md.Params) float64
}

func (e *stubEngine) Name() string                    { return "stub" }
func (e *stubEngine) InitReplica(r *Replica, s *Spec) {}
func (e *stubEngine) MDTask(r *Replica, s *Spec, dim int) *task.Spec {
	return &task.Spec{Name: "md", Kind: task.MD, Cores: s.CoresPerReplica,
		Run: func() error { return nil }}
}
func (e *stubEngine) ExchangeTask(dim, n int, s *Spec) *task.Spec { return nil }

// SinglePointTasks returns a no-op task a group member along a salt
// dimension, as a real engine's single-point energies are, so a salt
// exchange submits and awaits them; nothing otherwise.
func (e *stubEngine) SinglePointTasks(dim int, g []*Replica, s *Spec) []*task.Spec {
	if s.Dims[dim].Type != exchange.Salt {
		return nil
	}
	specs := make([]*task.Spec, len(g))
	for i := range specs {
		specs[i] = &task.Spec{Name: "spe", Kind: task.SinglePoint, Cores: 1, Run: func() error { return nil }}
	}
	return specs
}
func (e *stubEngine) OwnEnergy(r *Replica) float64 {
	if e.energyOf != nil {
		return e.energyOf(r)
	}
	return 0
}
func (e *stubEngine) CrossEnergy(r *Replica, under md.Params) float64 {
	if e.crossOf != nil {
		return e.crossOf(r, under)
	}
	return 0
}
func (e *stubEngine) TorsionIndex(label string) int          { return 0 }
func (e *stubEngine) PrepOverhead(nTasks, ndims int) float64 { return 0 }

func tremdSpec(nT int) *Spec {
	return &Spec{
		Name:            "t-test",
		Dims:            []Dimension{{Type: exchange.Temperature, Values: GeometricTemperatures(273, 373, nT)}},
		Pattern:         PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   100,
		Cycles:          2,
		Seed:            7,
	}
}

func tsuSpec() *Spec {
	return &Spec{
		Name: "tsu-test",
		Dims: []Dimension{
			{Type: exchange.Temperature, Values: GeometricTemperatures(273, 373, 3)},
			{Type: exchange.Salt, Values: []float64{0.1, 0.2, 0.4}},
			{Type: exchange.Umbrella, Values: UniformWindows(4), Torsion: "phi", K: UmbrellaK002},
		},
		Pattern:         PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   100,
		Cycles:          2,
		Seed:            11,
	}
}

func TestSpecValidate(t *testing.T) {
	ok := tsuSpec()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no dims", func(s *Spec) { s.Dims = nil }},
		{"empty windows", func(s *Spec) { s.Dims[0].Values = nil }},
		{"bad temperature", func(s *Spec) { s.Dims[0].Values = []float64{-3} }},
		{"negative salt", func(s *Spec) { s.Dims[1].Values = []float64{-0.1} }},
		{"umbrella no torsion", func(s *Spec) { s.Dims[2].Torsion = "" }},
		{"zero cores", func(s *Spec) { s.CoresPerReplica = 0 }},
		{"zero cycles", func(s *Spec) { s.Cycles = 0 }},
		{"async no window", func(s *Spec) { s.Pattern = PatternAsynchronous; s.AsyncWindow = 0 }},
	}
	for _, tc := range cases {
		s := tsuSpec()
		tc.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestGeometricTemperatures(t *testing.T) {
	ts := GeometricTemperatures(273, 373, 6)
	if len(ts) != 6 || ts[0] != 273 {
		t.Fatalf("bad ladder %v", ts)
	}
	if math.Abs(ts[5]-373) > 1e-9 {
		t.Fatalf("last T %v, want 373", ts[5])
	}
	ratio := ts[1] / ts[0]
	for i := 1; i < len(ts); i++ {
		if math.Abs(ts[i]/ts[i-1]-ratio) > 1e-9 {
			t.Fatal("ladder not geometric")
		}
	}
}

func TestUniformWindows(t *testing.T) {
	ws := UniformWindows(8)
	if len(ws) != 8 {
		t.Fatalf("got %d windows", len(ws))
	}
	if ws[0] != 0 {
		t.Fatalf("first window %v, want 0", ws[0])
	}
	for _, w := range ws {
		if w <= -math.Pi-1e-9 || w > math.Pi+1e-9 {
			t.Fatalf("window %v out of wrapped range", w)
		}
	}
}

func TestDimCodeAndReplicas(t *testing.T) {
	s := tsuSpec()
	if s.DimCode() != "TSU" {
		t.Fatalf("DimCode = %q, want TSU", s.DimCode())
	}
	if s.Replicas() != 3*3*4 {
		t.Fatalf("Replicas = %d, want 36", s.Replicas())
	}
}

func TestUmbrellaK002Value(t *testing.T) {
	// 0.02 kcal/mol/deg² in rad²: 0.02 * (180/pi)^2 ≈ 65.65.
	if math.Abs(UmbrellaK002-65.65) > 0.05 {
		t.Fatalf("UmbrellaK002 = %v, want ~65.65", UmbrellaK002)
	}
}

func newTestSim(t *testing.T, spec *Spec, eng Engine, cores int) *Simulation {
	t.Helper()
	rt := localexec.New(cores)
	sim, err := New(spec, eng, rt)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestParamsForSlotTSU(t *testing.T) {
	spec := tsuSpec()
	sim := newTestSim(t, spec, &stubEngine{}, 64)
	grid := sim.grid
	for c0 := range grid.Shape[0] {
		for c1 := range grid.Shape[1] {
			for c2 := range grid.Shape[2] {
				slot := grid.Index([]int{c0, c1, c2})
				p := sim.SlotParams(slot)
				if p.TemperatureK != spec.Dims[0].Values[c0] {
					t.Fatalf("slot %d temperature %v, want %v", slot, p.TemperatureK, spec.Dims[0].Values[c0])
				}
				if p.SaltM != spec.Dims[1].Values[c1] {
					t.Fatalf("slot %d salt %v", slot, p.SaltM)
				}
				if len(p.Restraints) != 1 {
					t.Fatalf("slot %d has %d restraints, want 1", slot, len(p.Restraints))
				}
				if p.Restraints[0].Center != spec.Dims[2].Values[c2] {
					t.Fatalf("slot %d restraint center %v", slot, p.Restraints[0].Center)
				}
			}
		}
	}
}

func TestModeDetection(t *testing.T) {
	spec := tremdSpec(8)
	simI := newTestSim(t, spec, &stubEngine{}, 8)
	if simI.report.Mode != ModeI {
		t.Fatalf("8 cores / 8 replicas: mode %v, want I", simI.report.Mode)
	}
	spec2 := tremdSpec(8)
	simII := newTestSim(t, spec2, &stubEngine{}, 4)
	if simII.report.Mode != ModeII {
		t.Fatalf("4 cores / 8 replicas: mode %v, want II", simII.report.Mode)
	}
}

func TestApplySwapExchangesSlotsAndParams(t *testing.T) {
	spec := tremdSpec(4)
	sim := newTestSim(t, spec, &stubEngine{}, 8)
	a, b := sim.replicas[0], sim.replicas[1]
	ta, tb := a.Params.TemperatureK, b.Params.TemperatureK
	sim.applySwap(a, b)
	if a.Slot != 1 || b.Slot != 0 {
		t.Fatalf("slots after swap: %d,%d", a.Slot, b.Slot)
	}
	if a.Params.TemperatureK != tb || b.Params.TemperatureK != ta {
		t.Fatal("parameters not swapped")
	}
	if sim.replicaAt[0] != b.ID || sim.replicaAt[1] != a.ID {
		t.Fatal("replicaAt mapping not updated")
	}
}

func TestLiveGroupsSkipDeadReplicas(t *testing.T) {
	spec := tsuSpec()
	sim := newTestSim(t, spec, &stubEngine{}, 64)
	sim.replicas[0].Alive = false
	sim.replicas[7].Alive = false
	keep := make([]bool, len(sim.replicas))
	for i := range keep {
		keep[i] = true
	}
	for d := 0; d < 3; d++ {
		members, off := sim.collectGroups(d, keep)
		for _, r := range members {
			if !r.Alive {
				t.Fatal("dead replica in live group")
			}
		}
		for g := 0; g+1 < len(off); g++ {
			if off[g+1]-off[g] < 2 {
				t.Fatalf("dim %d group %d has %d members, want at least 2", d, g, off[g+1]-off[g])
			}
		}
		if total := off[len(off)-1]; total != len(members) || total != sim.grid.Size()-2 {
			t.Fatalf("dim %d live group total %d, want %d", d, total, sim.grid.Size()-2)
		}
	}
}

// hotColdEngine gives replicas an energy proportional to their slot so
// that temperature swaps are always accepted for adjacent pairs with
// inverted energy ordering.
func TestSyncRunExchangesOccur(t *testing.T) {
	spec := tremdSpec(8)
	spec.Cycles = 6
	eng := &stubEngine{energyOf: func(r *Replica) float64 {
		// Colder slots get HIGHER energy: uphill ordering makes every
		// neighbour swap favourable (p = 1).
		return -float64(r.Slot) * 100
	}}
	sim := newTestSim(t, spec, eng, 16)
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 6 {
		t.Fatalf("records = %d, want 6", len(rep.Records))
	}
	attempted, accepted := 0, 0
	for _, rec := range rep.Records {
		attempted += rec.Attempted
		accepted += rec.Accepted
	}
	if attempted == 0 {
		t.Fatal("no exchanges attempted")
	}
	if accepted != attempted {
		t.Fatalf("accepted %d of %d; energy ordering should force all accepts", accepted, attempted)
	}
	for _, r := range sim.Replicas() {
		if r.Cycle != 6 {
			t.Fatalf("replica %d completed %d cycles, want 6", r.ID, r.Cycle)
		}
	}
}

func TestSlotPermutationInvariant(t *testing.T) {
	spec := tsuSpec()
	spec.Cycles = 4
	eng := &stubEngine{
		energyOf: func(r *Replica) float64 { return float64(r.Slot%7) * 3 },
		crossOf:  func(r *Replica, under md.Params) float64 { return under.SaltM * 10 },
	}
	sim := newTestSim(t, spec, eng, 64)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	slots := make([]int, 0, len(sim.Replicas()))
	for _, r := range sim.Replicas() {
		slots = append(slots, r.Slot)
	}
	sort.Ints(slots)
	for i, s := range slots {
		if s != i {
			t.Fatal("slots are not a permutation after exchanges")
		}
	}
	for slot, id := range sim.replicaAt {
		if sim.replicas[id].Slot != slot {
			t.Fatal("replicaAt inconsistent with replica slots")
		}
	}
}

// Property: the slot permutation invariant holds for random seeds and
// grid shapes.
func TestPropertySlotPermutation(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		spec := &Spec{
			Name: "prop",
			Dims: []Dimension{
				{Type: exchange.Temperature, Values: GeometricTemperatures(280, 360, int(a%3)+2)},
				{Type: exchange.Umbrella, Values: UniformWindows(int(b%3) + 2), Torsion: "phi", K: 10},
			},
			Pattern:         PatternSynchronous,
			CoresPerReplica: 1,
			StepsPerCycle:   10,
			Cycles:          3,
			Seed:            seed,
		}
		eng := &stubEngine{
			energyOf: func(r *Replica) float64 { return float64((r.Slot*13)%11) - 5 },
			crossOf:  func(r *Replica, under md.Params) float64 { return float64(len(under.Restraints)) },
		}
		rt := localexec.New(32)
		sim, err := New(spec, eng, rt)
		if err != nil {
			return false
		}
		if _, err := sim.Run(); err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, r := range sim.Replicas() {
			if seen[r.Slot] {
				return false
			}
			seen[r.Slot] = true
		}
		return len(seen) == spec.Replicas()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestEfficiencyFormulas(t *testing.T) {
	if e := WeakScalingEfficiency(100, 125); math.Abs(e-80) > 1e-9 {
		t.Fatalf("weak efficiency %v, want 80", e)
	}
	if e := StrongScalingEfficiency(1000, 125, 8); math.Abs(e-100) > 1e-9 {
		t.Fatalf("strong efficiency %v, want 100 (ideal)", e)
	}
	if WeakScalingEfficiency(1, 0) != 0 || StrongScalingEfficiency(1, 0, 2) != 0 {
		t.Fatal("zero denominators must give 0")
	}
}

func TestReportDecompose(t *testing.T) {
	mdPhase := func(exec float64) PhaseRecord {
		return PhaseRecord{Tasks: 1, SumExec: exec, MaxExec: exec}
	}
	md0 := mdPhase(10)
	md0.MaxData, md0.MaxLaunch = 1, 2
	r := &Report{
		Records: []CycleRecord{
			{Cycle: 0, Dim: 0, MD: md0, EX: PhaseRecord{Wall: 5}, RepExOverhead: 0.5, Wall: 18},
			{Cycle: 0, Dim: 1, MD: mdPhase(10), EX: PhaseRecord{Wall: 7}, Wall: 17},
			{Cycle: 1, Dim: 0, MD: mdPhase(12), EX: PhaseRecord{Wall: 5}, Wall: 17},
			{Cycle: 1, Dim: 1, MD: mdPhase(8), EX: PhaseRecord{Wall: 7}, Wall: 15},
		},
	}
	d := r.Decompose()
	if math.Abs(d.TMD-20) > 1e-9 { // (10+10+12+8)/2 cycles
		t.Fatalf("TMD %v, want 20", d.TMD)
	}
	if math.Abs(d.TEX-12) > 1e-9 {
		t.Fatalf("TEX %v, want 12", d.TEX)
	}
	if math.Abs(r.AvgCycleTime()-33.5) > 1e-9 { // (18+17+17+15)/2
		t.Fatalf("AvgCycleTime %v, want 33.5", r.AvgCycleTime())
	}
	tmd0, tex0 := r.DimDecompose(0)
	if tmd0 != 11 || tex0 != 5 {
		t.Fatalf("DimDecompose(0) = %v,%v, want 11,5", tmd0, tex0)
	}
}

func TestCycleRecordAcceptance(t *testing.T) {
	rec := CycleRecord{Attempted: 4, Accepted: 1}
	if rec.AcceptanceRatio() != 0.25 {
		t.Fatalf("ratio %v, want 0.25", rec.AcceptanceRatio())
	}
	if (CycleRecord{}).AcceptanceRatio() != 0 {
		t.Fatal("empty ratio != 0")
	}
}
