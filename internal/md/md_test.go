package md

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecOps(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, -5, 6}
	if got := v.Add(w); got != (Vec3{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec3{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Dot(w); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	cx := v.Cross(w)
	if math.Abs(cx.Dot(v)) > 1e-12 || math.Abs(cx.Dot(w)) > 1e-12 {
		t.Error("cross product not perpendicular to inputs")
	}
	if math.Abs(Vec3{3, 4, 0}.Norm()-5) > 1e-12 {
		t.Error("Norm(3,4,0) != 5")
	}
	if u := (Vec3{0, 0, 7}).Unit(); u != (Vec3{0, 0, 1}) {
		t.Errorf("Unit = %v", u)
	}
	if z := (Vec3{}).Unit(); z != (Vec3{}) {
		t.Error("Unit of zero vector changed it")
	}
}

func TestBoxMinImage(t *testing.T) {
	b := Box{10, 10, 10}
	d := b.MinImage(Vec3{9, -9, 4})
	want := Vec3{-1, 1, 4}
	if d.Sub(want).Norm() > 1e-12 {
		t.Fatalf("MinImage = %v, want %v", d, want)
	}
	open := Box{}
	if got := open.MinImage(Vec3{9, -9, 4}); got != (Vec3{9, -9, 4}) {
		t.Fatal("open box must not wrap")
	}
}

func TestWrapAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi / 2, -math.Pi / 2},
		{2 * math.Pi, 0},
		{-7 * math.Pi / 2, math.Pi / 2},
	}
	for _, c := range cases {
		if got := WrapAngle(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("WrapAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPropertyWrapAngleRange(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e9 {
			return true
		}
		w := WrapAngle(a)
		return w > -math.Pi-1e-9 && w <= math.Pi+1e-9 &&
			math.Abs(math.Cos(w)-math.Cos(a)) < 1e-6 &&
			math.Abs(math.Sin(w)-math.Sin(a)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyValidate(t *testing.T) {
	top, _ := BuildAlanineDipeptide()
	if err := top.Validate(); err != nil {
		t.Fatalf("dipeptide topology invalid: %v", err)
	}
	bad := &Topology{Atoms: []Atom{{Name: "X", Mass: -1}}}
	if err := bad.Validate(); err == nil {
		t.Error("negative mass accepted")
	}
	bad2 := &Topology{
		Atoms: []Atom{{Name: "A", Mass: 1}, {Name: "B", Mass: 1}},
		Bonds: []Bond{{I: 0, J: 5, K: 1, R0: 1}},
	}
	if err := bad2.Validate(); err == nil {
		t.Error("out-of-range bond accepted")
	}
}

func TestExclusions(t *testing.T) {
	top, _ := BuildAlanineDipeptide()
	sys := MustNewSystem(top, Box{}, 0)
	// 1-2: bonded atoms.
	if !sys.Excluded(0, 1) {
		t.Error("bonded pair (0,1) not excluded")
	}
	// 1-3: 0-1-2.
	if !sys.Excluded(0, 2) {
		t.Error("1-3 pair (0,2) not excluded")
	}
	// 1-4: 0-1-3-4.
	if !sys.Is14(0, 4) {
		t.Error("(0,4) should be a 1-4 pair")
	}
	if sys.Excluded(0, 4) {
		t.Error("1-4 pair must not be fully excluded")
	}
	// Distant pair: 0..9 is five bonds apart.
	if sys.Excluded(0, 9) || sys.Is14(0, 9) {
		t.Error("(0,9) should be a plain nonbonded pair")
	}
}

func TestFindDihedralLabels(t *testing.T) {
	top, _ := BuildAlanineDipeptide()
	phi, psi := PhiPsiIndices(top)
	if top.Dihedrals[phi].Label != "phi" || top.Dihedrals[psi].Label != "psi" {
		t.Fatal("phi/psi labels not found")
	}
	if top.FindDihedral("nope") != -1 {
		t.Fatal("FindDihedral of unknown label should be -1")
	}
}

func TestTorsionKnownGeometry(t *testing.T) {
	// Planar cis arrangement: torsion 0; trans: pi.
	a := Vec3{1, 1, 0}
	b := Vec3{0, 0, 0}
	c := Vec3{1, 0, 0} // wait: use standard 4 points
	_ = c
	// trans-butane-like: points in a plane, end atoms on opposite sides.
	p1 := Vec3{0, 1, 0}
	p2 := Vec3{0, 0, 0}
	p3 := Vec3{1, 0, 0}
	p4 := Vec3{1, -1, 0}
	if got := Torsion(Box{}, p1, p2, p3, p4); math.Abs(math.Abs(got)-math.Pi) > 1e-9 {
		t.Errorf("trans torsion = %v, want ±pi", got)
	}
	// cis: both ends on the same side.
	p4c := Vec3{1, 1, 0}
	if got := Torsion(Box{}, p1, p2, p3, p4c); math.Abs(got) > 1e-9 {
		t.Errorf("cis torsion = %v, want 0", got)
	}
	// +90 degrees.
	p4q := Vec3{1, 0, 1}
	got := Torsion(Box{}, p1, p2, p3, p4q)
	if math.Abs(math.Abs(got)-math.Pi/2) > 1e-9 {
		t.Errorf("perpendicular torsion = %v, want ±pi/2", got)
	}
	_ = a
	_ = b
}

// numericalForces computes -dE/dx by central differences.
func numericalForces(sys *System, st *State, prm Params) []Vec3 {
	const h = 1e-6
	n := sys.Top.N()
	out := make([]Vec3, n)
	for i := 0; i < n; i++ {
		for dim := 0; dim < 3; dim++ {
			bump := func(sign float64) float64 {
				c := st.Clone()
				switch dim {
				case 0:
					c.Pos[i].X += sign * h
				case 1:
					c.Pos[i].Y += sign * h
				case 2:
					c.Pos[i].Z += sign * h
				}
				return sys.Energy(c, prm).Potential()
			}
			g := (bump(1) - bump(-1)) / (2 * h)
			switch dim {
			case 0:
				out[i].X = -g
			case 1:
				out[i].Y = -g
			case 2:
				out[i].Z = -g
			}
		}
	}
	return out
}

func dipeptideSystem(t *testing.T) (*System, *State) {
	t.Helper()
	top, st := BuildAlanineDipeptide()
	sys, err := NewSystem(top, Box{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys, st
}

func TestAnalyticForcesMatchNumerical(t *testing.T) {
	sys, st := dipeptideSystem(t)
	prm := Params{
		TemperatureK: 300,
		SaltM:        0.15,
		Restraints: []TorsionRestraint{
			{Dihedral: sys.Top.FindDihedral("phi"), Center: Rad(60), K: 65.0},
			{Dihedral: sys.Top.FindDihedral("psi"), Center: Rad(-45), K: 65.0},
		},
	}
	// Perturb the geometry so no term sits at its minimum.
	rng := rand.New(rand.NewSource(3))
	for i := range st.Pos {
		st.Pos[i] = st.Pos[i].Add(Vec3{rng.Float64() * 0.2, rng.Float64() * 0.2, rng.Float64() * 0.2})
	}
	analytic := make([]Vec3, sys.Top.N())
	sys.EnergyForces(st, prm, analytic)
	numeric := numericalForces(sys, st, prm)
	for i := range analytic {
		diff := analytic[i].Sub(numeric[i]).Norm()
		scale := math.Max(1, numeric[i].Norm())
		if diff/scale > 1e-4 {
			t.Errorf("atom %d: analytic %v vs numeric %v (rel err %g)",
				i, analytic[i], numeric[i], diff/scale)
		}
	}
}

func TestForcesMatchNumericalPeriodicWithCutoff(t *testing.T) {
	top, st, box := BuildLJFluid(27, 0.02)
	sys := MustNewSystem(top, box, 6.0)
	rng := rand.New(rand.NewSource(7))
	for i := range st.Pos {
		st.Pos[i] = st.Pos[i].Add(Vec3{rng.Float64() * 0.3, rng.Float64() * 0.3, rng.Float64() * 0.3})
	}
	prm := Params{TemperatureK: 120}
	analytic := make([]Vec3, sys.Top.N())
	sys.EnergyForces(st, prm, analytic)
	numeric := numericalForces(sys, st, prm)
	for i := range analytic {
		diff := analytic[i].Sub(numeric[i]).Norm()
		scale := math.Max(1, numeric[i].Norm())
		if diff/scale > 1e-4 {
			t.Errorf("atom %d: analytic %v vs numeric %v", i, analytic[i], numeric[i])
		}
	}
}

func TestForceSumIsZero(t *testing.T) {
	// Newton's third law: internal forces sum to zero (open boundaries).
	sys, st := dipeptideSystem(t)
	prm := Params{TemperatureK: 300, SaltM: 0.1}
	f := make([]Vec3, sys.Top.N())
	sys.EnergyForces(st, prm, f)
	var sum Vec3
	for _, fi := range f {
		sum = sum.Add(fi)
	}
	if sum.Norm() > 1e-8 {
		t.Fatalf("net internal force %v, want ~0", sum)
	}
}

func TestEnergyDecompositionSums(t *testing.T) {
	sys, st := dipeptideSystem(t)
	e := sys.Energy(st, Params{TemperatureK: 300})
	total := e.Bond + e.Angle + e.Dihedral + e.LJ + e.Coulomb + e.Restraint
	if math.Abs(e.Potential()-total) > 1e-12 {
		t.Fatal("Potential() != sum of components")
	}
}

func TestSaltScreeningReducesCoulombMagnitude(t *testing.T) {
	sys, st := dipeptideSystem(t)
	e0 := sys.Energy(st, Params{TemperatureK: 300, SaltM: 0})
	e1 := sys.Energy(st, Params{TemperatureK: 300, SaltM: 0.5})
	e2 := sys.Energy(st, Params{TemperatureK: 300, SaltM: 2.0})
	if !(math.Abs(e2.Coulomb) < math.Abs(e1.Coulomb) && math.Abs(e1.Coulomb) < math.Abs(e0.Coulomb)) {
		t.Fatalf("screening not monotonic: %g %g %g", e0.Coulomb, e1.Coulomb, e2.Coulomb)
	}
	if e0.LJ != e1.LJ {
		t.Fatal("salt changed the LJ energy")
	}
}

func TestKappaZeroForZeroSalt(t *testing.T) {
	if (Params{TemperatureK: 300}).Kappa() != 0 {
		t.Fatal("kappa != 0 at zero salt")
	}
	k := (Params{TemperatureK: 300, SaltM: 0.15}).Kappa()
	want := math.Sqrt(0.15) / 3.04
	if math.Abs(k-want) > 1e-12 {
		t.Fatalf("kappa = %v, want %v", k, want)
	}
}

func TestRestraintEnergyAtCenterIsZero(t *testing.T) {
	sys, st := dipeptideSystem(t)
	phi, _ := PhiPsiIndices(sys.Top)
	cur := sys.DihedralAngle(st, phi)
	prm := Params{TemperatureK: 300, Restraints: []TorsionRestraint{{Dihedral: phi, Center: cur, K: 100}}}
	e := sys.Energy(st, prm)
	if math.Abs(e.Restraint) > 1e-9 {
		t.Fatalf("restraint energy %v at its center, want 0", e.Restraint)
	}
}

func TestRestraintWrapsPeriodically(t *testing.T) {
	// A restraint centred at +175 deg with the torsion at -175 deg must
	// see a 10 deg violation, not 350 deg.
	sys, st := dipeptideSystem(t)
	phi, _ := PhiPsiIndices(sys.Top)
	cur := sys.DihedralAngle(st, phi)
	// Center the restraint 2pi - 0.1 away so the wrapped distance is 0.1.
	center := WrapAngle(cur + 2*math.Pi - 0.1)
	prm := Params{TemperatureK: 300, Restraints: []TorsionRestraint{{Dihedral: phi, Center: center, K: 50}}}
	e := sys.Energy(st, prm)
	want := 50 * 0.1 * 0.1
	if math.Abs(e.Restraint-want) > 1e-6 {
		t.Fatalf("wrapped restraint energy %v, want %v", e.Restraint, want)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{TemperatureK: 300}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if err := (Params{TemperatureK: 0}).Validate(); err == nil {
		t.Error("zero temperature accepted")
	}
	if err := (Params{TemperatureK: 300, SaltM: -1}).Validate(); err == nil {
		t.Error("negative salt accepted")
	}
	if err := (Params{TemperatureK: 300, Restraints: []TorsionRestraint{{K: -5}}}).Validate(); err == nil {
		t.Error("negative restraint K accepted")
	}
}

func TestParamsCloneIsDeep(t *testing.T) {
	p := Params{TemperatureK: 300, Restraints: []TorsionRestraint{{Dihedral: 1, Center: 1, K: 2}}}
	q := p.Clone()
	q.Restraints[0].Center = 9
	if p.Restraints[0].Center == 9 {
		t.Fatal("Clone shares restraint storage")
	}
}

func TestMinimizeLowersEnergy(t *testing.T) {
	sys, st := dipeptideSystem(t)
	prm := Params{TemperatureK: 300}
	before := sys.Energy(st, prm).Potential()
	after := Minimize(sys, st, prm, 500, 1e-3)
	if after >= before {
		t.Fatalf("minimization did not lower energy: %v -> %v", before, after)
	}
}

func TestNVEEnergyConservation(t *testing.T) {
	sys, st := dipeptideSystem(t)
	prm := Params{TemperatureK: 300}
	Minimize(sys, st, prm, 2000, 1e-4)
	rng := rand.New(rand.NewSource(11))
	InitVelocities(sys, st, 300, rng)
	vv := &VelocityVerlet{Dt: 0.0005}
	e0 := sys.Energy(st, prm).Potential() + sys.KineticEnergy(st)
	vv.Step(sys, st, prm, 2000)
	e1 := sys.Energy(st, prm).Potential() + sys.KineticEnergy(st)
	drift := math.Abs(e1 - e0)
	if drift > 0.5 {
		t.Fatalf("NVE drift %v kcal/mol over 1 ps, want < 0.5", drift)
	}
}

func TestLangevinThermostatTemperature(t *testing.T) {
	sys, st := dipeptideSystem(t)
	prm := Params{TemperatureK: 300}
	Minimize(sys, st, prm, 1000, 1e-3)
	rng := rand.New(rand.NewSource(5))
	InitVelocities(sys, st, 300, rng)
	lg := NewLangevin(0.001, 5.0, 17)
	lg.Step(sys, st, prm, 2000) // equilibrate
	sum := 0.0
	const samples = 200
	for i := 0; i < samples; i++ {
		lg.Step(sys, st, prm, 25)
		sum += sys.InstantaneousTemperature(st)
	}
	mean := sum / samples
	if math.Abs(mean-300) > 45 {
		t.Fatalf("thermostat mean T = %v K, want 300 +- 45", mean)
	}
}

func TestInitVelocitiesRemovesDrift(t *testing.T) {
	sys, st := dipeptideSystem(t)
	rng := rand.New(rand.NewSource(2))
	InitVelocities(sys, st, 300, rng)
	var p Vec3
	for i, a := range sys.Top.Atoms {
		p = p.Add(st.Vel[i].Scale(a.Mass))
	}
	if p.Norm() > 1e-9 {
		t.Fatalf("net momentum %v, want 0", p)
	}
}

func TestRunSegmentSampling(t *testing.T) {
	sys, st := dipeptideSystem(t)
	prm := Params{TemperatureK: 300}
	Minimize(sys, st, prm, 500, 1e-2)
	rng := rand.New(rand.NewSource(4))
	InitVelocities(sys, st, 300, rng)
	lg := NewLangevin(0.001, 5.0, 6)
	var tr Trajectory
	RunSegment(&tr, sys, st, prm, lg, 100, 10)
	if tr.Steps != 100 {
		t.Fatalf("steps = %d, want 100", tr.Steps)
	}
	if len(tr.Potential) != 10 || len(tr.Phi) != 10 || len(tr.Psi) != 10 {
		t.Fatalf("samples = %d/%d/%d, want 10 each", len(tr.Potential), len(tr.Phi), len(tr.Psi))
	}
	for _, phi := range tr.Phi {
		if phi < -math.Pi-1e-9 || phi > math.Pi+1e-9 {
			t.Fatalf("phi sample %v out of range", phi)
		}
	}
}

func TestTrajectoryAppendAndMean(t *testing.T) {
	a := Trajectory{Potential: []float64{1, 3}, Steps: 10}
	b := Trajectory{Potential: []float64{5}, Steps: 5}
	a.Append(b)
	if a.Steps != 15 || len(a.Potential) != 3 {
		t.Fatal("Append merged incorrectly")
	}
	if a.Potential[0] != 1 || a.Potential[1] != 3 || a.Potential[2] != 5 {
		t.Fatalf("merged potentials %v, want [1 3 5]", a.Potential)
	}
}

func TestBuildSolvatedDipeptideCounts(t *testing.T) {
	top, st, box := BuildSolvatedDipeptide(200)
	if top.N() < 150 || top.N() > 210 {
		t.Fatalf("atom count %d, want ~210 (some lattice sites clash)", top.N())
	}
	if len(st.Pos) != top.N() {
		t.Fatal("positions out of sync with topology")
	}
	if !box.Periodic() {
		t.Fatal("solvated system must be periodic")
	}
	if err := top.Validate(); err != nil {
		t.Fatalf("solvated topology invalid: %v", err)
	}
	// All solvent inside the box.
	for i, p := range st.Pos[10:] {
		if p.X < 0 || p.X > box.Lx || p.Y < 0 || p.Y > box.Ly || p.Z < 0 || p.Z > box.Lz {
			t.Fatalf("solvent %d at %v outside box %v", i, p, box)
		}
	}
}

func TestBuildLJFluid(t *testing.T) {
	top, st, box := BuildLJFluid(64, 0.0334)
	if top.N() != 64 || len(st.Pos) != 64 {
		t.Fatalf("n = %d, want 64", top.N())
	}
	wantVol := 64 / 0.0334
	if math.Abs(box.Volume()-wantVol) > 1e-6*wantVol {
		t.Fatalf("volume %v, want %v", box.Volume(), wantVol)
	}
}

func TestUmbrellaPullsTorsionTowardCenter(t *testing.T) {
	// With a stiff umbrella at +60 deg, the sampled phi distribution
	// must centre near +60 deg regardless of the free landscape.
	sys, st := dipeptideSystem(t)
	phi, _ := PhiPsiIndices(sys.Top)
	target := Rad(60)
	prm := Params{
		TemperatureK: 300,
		Restraints:   []TorsionRestraint{{Dihedral: phi, Center: target, K: 200}},
	}
	Minimize(sys, st, prm, 3000, 1e-3)
	rng := rand.New(rand.NewSource(9))
	InitVelocities(sys, st, 300, rng)
	lg := NewLangevin(0.001, 5.0, 13)
	lg.Step(sys, st, prm, 1000)
	var tr Trajectory
	RunSegment(&tr, sys, st, prm, lg, 3000, 10)
	// Circular mean of phi samples.
	var sx, sy float64
	for _, a := range tr.Phi {
		sx += math.Cos(a)
		sy += math.Sin(a)
	}
	mean := math.Atan2(sy, sx)
	if math.Abs(WrapAngle(mean-target)) > Rad(20) {
		t.Fatalf("umbrella-sampled phi mean %v deg, want ~60", mean*180/math.Pi)
	}
}

// Property: potential energy is invariant under rigid translation.
func TestPropertyTranslationInvariance(t *testing.T) {
	sys, st0 := dipeptideSystem(t)
	prm := Params{TemperatureK: 300, SaltM: 0.2}
	e0 := sys.Energy(st0, prm).Potential()
	f := func(dx, dy, dz float64) bool {
		if math.Abs(dx) > 1e3 || math.Abs(dy) > 1e3 || math.Abs(dz) > 1e3 {
			return true
		}
		st := st0.Clone()
		for i := range st.Pos {
			st.Pos[i] = st.Pos[i].Add(Vec3{dx, dy, dz})
		}
		return math.Abs(sys.Energy(st, prm).Potential()-e0) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: kinetic energy is nonnegative and temperature scales with it.
func TestPropertyKineticNonNegative(t *testing.T) {
	sys, st := dipeptideSystem(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		InitVelocities(sys, st, 250, rng)
		ke := sys.KineticEnergy(st)
		return ke >= 0 && sys.InstantaneousTemperature(st) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
