package engines

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/md"
	"repro/internal/task"
)

// --- cost models ---

func TestSanderCalibration(t *testing.T) {
	m := SanderModel()
	// Reference machine: 6000 steps, 2881 atoms -> ~164.7 s so that
	// SuperMIC (1.18x) lands on the paper's 139.6 s.
	got := m.MDSeconds(2881, 6000, 1)
	if math.Abs(got/1.18-139.6) > 2 {
		t.Fatalf("sander 6000x2881 on SuperMIC = %v s, want ~139.6", got/1.18)
	}
	// sander is serial: more cores don't help.
	if m.MDSeconds(2881, 6000, 16) != got {
		t.Fatal("sander must not speed up with cores")
	}
}

func TestPmemdScalingShape(t *testing.T) {
	m := PmemdModel()
	t1 := m.MDSeconds(64366, 20000, 1)
	t16 := m.MDSeconds(64366, 20000, 16)
	t64 := m.MDSeconds(64366, 20000, 64)
	if t16 >= t1/4 {
		t.Fatalf("pmemd 16-core time %v not a large drop from serial %v", t16, t1)
	}
	// Diminishing returns beyond 16 cores (Figure 12's flattening).
	speedup16 := t1 / t16
	speedup64 := t1 / t64
	if speedup64 > 2.5*speedup16 {
		t.Fatalf("pmemd 64-core speedup %v vs 16-core %v: scaling too ideal", speedup64, speedup16)
	}
	if t64 >= t16 {
		t.Fatalf("64 cores (%v) not faster than 16 (%v)", t64, t16)
	}
	// pmemd serial is faster than sander serial.
	if t1 >= SanderModel().MDSeconds(64366, 20000, 1) {
		t.Fatal("pmemd serial not faster than sander")
	}
}

func TestNAMDExchangeNonMonomial(t *testing.T) {
	m := NAMDModel()
	// log-log slope between consecutive points must vary (the paper:
	// growth "can't be characterized as monomial").
	ns := []int{64, 216, 512, 1000, 1728}
	var slopes []float64
	for i := 1; i < len(ns); i++ {
		a := m.ExchangeSeconds(exchange.Temperature, ns[i-1])
		b := m.ExchangeSeconds(exchange.Temperature, ns[i])
		slopes = append(slopes, math.Log(b/a)/math.Log(float64(ns[i])/float64(ns[i-1])))
	}
	minS, maxS := slopes[0], slopes[0]
	for _, s := range slopes {
		minS = math.Min(minS, s)
		maxS = math.Max(maxS, s)
	}
	if maxS-minS < 0.02 {
		t.Fatalf("NAMD exchange slopes %v look monomial", slopes)
	}
}

func TestAmberExchangeNearLinear(t *testing.T) {
	m := SanderModel()
	t64 := m.ExchangeSeconds(exchange.Temperature, 64)
	t1728 := m.ExchangeSeconds(exchange.Temperature, 1728)
	// Near-linear growth: 27x replicas -> ~17-27x time given the
	// constant offset.
	if ratio := t1728 / t64; ratio < 10 || ratio > 27 {
		t.Fatalf("T exchange growth ratio %v not near-linear", ratio)
	}
	// U similar to T (within ~10%).
	u := m.ExchangeSeconds(exchange.Umbrella, 1728)
	if math.Abs(u-t1728)/t1728 > 0.1 {
		t.Fatalf("U exchange %v differs from T %v by >10%%", u, t1728)
	}
}

func TestStagingFilesOrderTUS(t *testing.T) {
	m := SanderModel()
	ft := m.MDOutFiles(exchange.Temperature)
	fu := m.MDOutFiles(exchange.Umbrella)
	fs := m.MDOutFiles(exchange.Salt)
	if !(ft < fu && fu < fs) {
		t.Fatalf("file counts T=%d U=%d S=%d, want T<U<S (Figure 5 ordering)", ft, fu, fs)
	}
}

// --- virtual engine ---

func virtSpec() *core.Spec {
	return &core.Spec{
		Name: "v",
		Dims: []core.Dimension{
			{Type: exchange.Temperature, Values: core.GeometricTemperatures(280, 360, 4)},
			{Type: exchange.Umbrella, Values: core.UniformWindows(4), Torsion: "phi", K: core.UmbrellaK002},
			{Type: exchange.Salt, Values: []float64{0.1, 0.4, 1.6, 6.4}},
		},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          1,
		Seed:            2,
	}
}

func newVirtReplica(v *Virtual, s *core.Spec, slot int) *core.Replica {
	r := &core.Replica{ID: slot, Slot: slot, Alive: true}
	// virtSpec's grid is 4×4×4, row-major.
	t, u, salt := slot/16, slot/4%4, slot%4
	r.Params = md.Params{TemperatureK: s.Dims[0].Values[t], SaltM: s.Dims[2].Values[salt]}
	r.Params.Restraints = []md.TorsionRestraint{{
		Dihedral: v.TorsionIndex("phi"), Center: s.Dims[1].Values[u], K: s.Dims[1].K,
	}}
	v.InitReplica(r, s)
	return r
}

func TestVirtualEnergyConsistency(t *testing.T) {
	s := virtSpec()
	v := NewAmberVirtual(2881, 1)
	r := newVirtReplica(v, s, 5)
	// CrossEnergy under own params equals the stored own energy.
	own := r.Energy
	cross := v.CrossEnergy(r, r.Params)
	if math.Abs(own-cross) > 1e-9 {
		t.Fatalf("CrossEnergy under own params %v != OwnEnergy %v", cross, own)
	}
}

func TestVirtualTemperatureDependence(t *testing.T) {
	s := virtSpec()
	v := NewAmberVirtual(2881, 1)
	// Average energies at the coldest and hottest windows: hotter must
	// be higher on average (positive effective heat capacity).
	meanAt := func(slot int) float64 {
		r := newVirtReplica(v, s, slot)
		sum := 0.0
		for i := 0; i < 400; i++ {
			sum += v.OwnEnergy(r)
		}
		return sum / 400
	}
	cold := meanAt(0)        // coord (0,0,0): 280 K
	hot := meanAt(3 * 4 * 4) // coord (3,0,0): 360 K
	if hot <= cold {
		t.Fatalf("mean energy at 360K (%v) not above 280K (%v)", hot, cold)
	}
}

func TestVirtualUmbrellaCrossPenalty(t *testing.T) {
	s := virtSpec()
	v := NewAmberVirtual(2881, 1)
	r := newVirtReplica(v, s, 0) // umbrella window 0
	// Evaluate under a parameter set whose restraint centre is the
	// opposite window: energy must rise on average.
	far := r.Params.Clone()
	far.Restraints[0].Center = math.Pi
	dSum := 0.0
	for i := 0; i < 200; i++ {
		v.OwnEnergy(r)
		dSum += v.CrossEnergy(r, far) - v.CrossEnergy(r, r.Params)
	}
	if dSum/200 <= 0 {
		t.Fatalf("mean cross-window penalty %v, want positive", dSum/200)
	}
}

func TestVirtualSaltCoupling(t *testing.T) {
	s := virtSpec()
	v := NewAmberVirtual(2881, 1)
	r := newVirtReplica(v, s, 0)
	low := r.Params.Clone()
	low.SaltM = 0.1
	high := r.Params.Clone()
	high.SaltM = 6.4
	// With a negative pseudo ion-pairing coordinate mean, higher salt
	// lowers the energy (screening stabilizes).
	dSum := 0.0
	for i := 0; i < 200; i++ {
		v.OwnEnergy(r)
		dSum += v.CrossEnergy(r, high) - v.CrossEnergy(r, low)
	}
	if dSum/200 >= 0 {
		t.Fatalf("salt coupling mean %v, want negative", dSum/200)
	}
}

func TestVirtualMDTaskShape(t *testing.T) {
	s := virtSpec()
	v := NewAmberVirtual(2881, 1)
	r := newVirtReplica(v, s, 0)
	for dim, wantFiles := range map[int]int{0: 3, 1: 4, 2: 5} { // T,U,S
		spec := v.MDTask(r, s, dim)
		if spec.Kind != task.MD || spec.Cores != 1 || spec.Duration <= 0 {
			t.Fatalf("dim %d: bad MD task %+v", dim, spec)
		}
		if spec.OutFiles != wantFiles {
			t.Fatalf("dim %d: out files %d, want %d", dim, spec.OutFiles, wantFiles)
		}
		if !spec.CanFail {
			t.Fatal("MD tasks must be subject to fault injection")
		}
	}
}

// TestVirtualMDTaskInPlace: a replica's MD spec is its own slot, rewritten
// by each MDTask — no allocation once the slot exists, no name built,
// and another replica's spec untouched.
func TestVirtualMDTaskInPlace(t *testing.T) {
	s := virtSpec()
	v := NewAmberVirtual(2881, 1)
	r0, r5 := newVirtReplica(v, s, 0), newVirtReplica(v, s, 5)
	other, first := v.MDTask(r5, s, 1), v.MDTask(r0, s, 0)
	allocs := testing.AllocsPerRun(100, func() {
		r0.Cycle++
		if v.MDTask(r0, s, 0) != first {
			t.Fatal("MDTask moved replica 0's spec")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state MDTask allocates %v times, want 0", allocs)
	}
	if first.Name != "" || first.ReplicaID != 0 || first.Cycle != r0.Cycle || first.Label() != fmt.Sprintf("md-r000-c%02d", r0.Cycle) {
		t.Errorf("replica 0's spec %+v, label %q", *first, first.Label())
	}
	if other.ReplicaID != 5 || other.Cycle != 0 || other.OutFiles != 4 || other.Label() != "md-r005-c00" {
		t.Errorf("replica 5's spec changed: %+v", *other)
	}
}

// TestVirtualInitReplicaCarvesCapped: InitReplica carves every replica's
// coordinates from one chunk, each capped at its own length, so an
// append on one replica's Synth cannot write into the next replica's.
func TestVirtualInitReplicaCarvesCapped(t *testing.T) {
	s := virtSpec()
	v := NewAmberVirtual(2881, 1)
	r0, r1 := newVirtReplica(v, s, 0), newVirtReplica(v, s, 1)
	if len(r0.Synth) != len(s.Dims)+1 || cap(r0.Synth) != len(r0.Synth) {
		t.Fatalf("Synth len %d cap %d, want both %d", len(r0.Synth), cap(r0.Synth), len(s.Dims)+1)
	}
	next := r1.Synth[0]
	_ = append(r0.Synth, 42)
	if r1.Synth[0] != next {
		t.Error("appending to replica 0's Synth wrote into replica 1's")
	}
}

func TestVirtualSinglePointOnlyForSalt(t *testing.T) {
	s := virtSpec()
	v := NewAmberVirtual(2881, 1)
	group := []*core.Replica{newVirtReplica(v, s, 0), newVirtReplica(v, s, 1)}
	if got := v.SinglePointTasks(0, group, s); got != nil {
		t.Fatal("T dimension produced SPE tasks")
	}
	if got := v.SinglePointTasks(1, group, s); got != nil {
		t.Fatal("U dimension produced SPE tasks")
	}
	spe := v.SinglePointTasks(2, group, s)
	if len(spe) != 2 {
		t.Fatalf("S dimension SPE tasks %d, want one per replica", len(spe))
	}
	for i, sp := range spe {
		if sp.Cores != 2 { // min(SPEWidth, group size)
			t.Fatalf("SPE width %d, want 2", sp.Cores)
		}
		if want := fmt.Sprintf("spe-r%03d", i); sp.Name != "" || sp.Label() != want {
			t.Fatalf("SPE task named %q, labelled %q, want unnamed %q", sp.Name, sp.Label(), want)
		}
	}
}

func TestVirtualPrepOverheadGrowsWithDims(t *testing.T) {
	v := NewAmberVirtual(2881, 1)
	o1 := v.PrepOverhead(1000, 1)
	o3 := v.PrepOverhead(1000, 3)
	if o3 <= o1 {
		t.Fatalf("3D prep overhead %v not above 1D %v", o3, o1)
	}
	if v.PrepOverhead(64, 1) >= v.PrepOverhead(1728, 1) {
		t.Fatal("prep overhead must grow with task count")
	}
}

func TestVirtualRebindPanics(t *testing.T) {
	v := NewAmberVirtual(2881, 1)
	s1 := virtSpec()
	newVirtReplica(v, s1, 0)
	defer func() {
		if recover() == nil {
			t.Error("reusing a virtual engine across specs did not panic")
		}
	}()
	s2 := virtSpec()
	r2 := &core.Replica{ID: 0, Slot: 0, Alive: true, Params: md.Params{TemperatureK: 300}}
	v.InitReplica(r2, s2)
}

// --- real engine ---

func TestRealEngineFlavors(t *testing.T) {
	top, st := md.BuildAlanineDipeptide()
	sys := md.MustNewSystem(top, md.Box{}, 0)
	if _, err := NewReal("gromacs", sys, st, 1); err == nil {
		t.Error("unknown flavor accepted")
	}
	for _, flavor := range []string{"amber", "namd"} {
		e, err := NewReal(flavor, sys, st, 1)
		if err != nil {
			t.Fatalf("%s: %v", flavor, err)
		}
		if !strings.Contains(e.Name(), flavor) {
			t.Fatalf("engine name %q lacks flavor", e.Name())
		}
	}
}

// TestMDTaskRescalesVelocities: when a replica's temperature moved since
// its last segment (an exchange swapped it, or a respacing refitted its
// rung), MDTask rescales its velocities by sqrt(Tnew/Told) before the
// next segment; at an unchanged temperature it leaves them alone.
func TestMDTaskRescalesVelocities(t *testing.T) {
	top, st := md.BuildAlanineDipeptide()
	e := mustNewReal("amber", md.MustNewSystem(top, md.Box{}, 0), st, 42)
	spec := &core.Spec{
		Name:            "rescale",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: []float64{290, 310}}},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   10,
		Cycles:          1,
	}
	a := &core.Replica{ID: 0, Slot: 0, Alive: true, Params: md.Params{TemperatureK: 290}}
	b := &core.Replica{ID: 1, Slot: 1, Alive: true, Params: md.Params{TemperatureK: 310}}
	for _, r := range []*core.Replica{a, b} {
		e.InitReplica(r, spec)
		e.MDTask(r, spec, 0)
	}
	check := func(r *core.Replica, before []md.Vec3, scale float64) {
		t.Helper()
		for i, v := range e.segs[r.ID].state.Vel {
			if want := before[i].Scale(scale); v != want {
				t.Fatalf("replica %d atom %d velocity %v, want %v (scale %v)", r.ID, i, v, want, scale)
			}
		}
	}
	va, vb := slices.Clone(e.segs[0].state.Vel), slices.Clone(e.segs[1].state.Vel)
	a.Params, b.Params = b.Params, a.Params
	e.MDTask(a, spec, 0)
	e.MDTask(b, spec, 0)
	check(a, va, math.Sqrt(310.0/290))
	check(b, vb, math.Sqrt(290.0/310))
	va = slices.Clone(e.segs[0].state.Vel)
	e.MDTask(a, spec, 0)
	check(a, va, 1)
}

func TestRealEngineMDTaskRuns(t *testing.T) {
	top, st := md.BuildAlanineDipeptide()
	sys := md.MustNewSystem(top, md.Box{}, 0)
	prm := md.Params{TemperatureK: 300}
	md.Minimize(sys, st, prm, 500, 1e-2)
	e := mustNewReal("amber", sys, st, 42)
	spec := &core.Spec{
		Name:            "real",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: []float64{290, 310}}},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   50,
		Cycles:          1,
		Seed:            1,
	}
	r := &core.Replica{ID: 0, Slot: 0, Alive: true, Params: md.Params{TemperatureK: 290}}
	e.InitReplica(r, spec)
	if len(e.segs[r.ID].state.Pos) != top.N() {
		t.Fatal("InitReplica did not size the replica's state")
	}
	ts := e.MDTask(r, spec, 0)
	if ts.Run == nil {
		t.Fatal("real MD task lacks a Run closure")
	}
	if err := ts.Run(); err != nil {
		t.Fatalf("MD task failed: %v", err)
	}
	if e.WindowCount() != 1 {
		t.Fatalf("window count %d, want 1", e.WindowCount())
	}
	tr := e.WindowTrajectory(0)
	if tr == nil || tr.Steps != 50 {
		t.Fatalf("trajectory steps %v, want 50", tr)
	}
	// Energies well defined.
	own := e.OwnEnergy(r)
	hot := r.Params.Clone()
	hot.SaltM = 1.0
	cross := e.CrossEnergy(r, hot)
	if math.IsNaN(own) || math.IsNaN(cross) {
		t.Fatal("NaN energies")
	}
	if own == cross {
		t.Fatal("salt change did not alter the real cross energy")
	}
}

func TestRealEngineNAMDInputRoundTrip(t *testing.T) {
	top, st := md.BuildAlanineDipeptide()
	sys := md.MustNewSystem(top, md.Box{}, 0)
	e := mustNewReal("namd", sys, st, 42)
	spec := &core.Spec{
		Name:            "real-namd",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: []float64{300}}},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   20,
		Cycles:          1,
	}
	r := &core.Replica{ID: 0, Slot: 0, Alive: true, Params: md.Params{TemperatureK: 300}}
	e.InitReplica(r, spec)
	if err := e.MDTask(r, spec, 0).Run(); err != nil {
		t.Fatalf("NAMD-flavoured task failed: %v", err)
	}
}

func TestRealEngineTorsionIndex(t *testing.T) {
	top, st := md.BuildAlanineDipeptide()
	sys := md.MustNewSystem(top, md.Box{}, 0)
	e := mustNewReal("amber", sys, st, 1)
	if e.TorsionIndex("phi") != top.FindDihedral("phi") {
		t.Fatal("torsion index mismatch")
	}
	if i := e.TorsionIndex("chi99"); i != -1 {
		t.Errorf("unknown torsion label resolved to %d, want -1", i)
	}
}

func TestMixDeterministic(t *testing.T) {
	if mix(1, 2, 3) != mix(1, 2, 3) {
		t.Fatal("mix not deterministic")
	}
	if mix(1, 2, 3) == mix(3, 2, 1) {
		t.Fatal("mix ignores order")
	}
}
