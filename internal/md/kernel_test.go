package md

import (
	"math/rand"
	"sync"
	"testing"
)

// everyParam sets a restraint, salt and pH on the titratable dipeptide,
// so a force evaluation uses both kinds of per-State scratch (effective
// charges, torsion gradients).
func everyParam(t testing.TB) (*System, *State, Params) {
	t.Helper()
	top, st := BuildTitratableDipeptide()
	sys, err := NewSystem(top, Box{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	prm := Params{TemperatureK: 300, SaltM: 0.15, PH: 7, Restraints: []TorsionRestraint{
		{Dihedral: top.FindDihedral("phi"), Center: Rad(-60), K: 65.65},
	}}
	return sys, st, prm
}

// TestVelocityVerletRecomputesForcesOnEntry: the parameters may change
// between two Step calls (an exchange swaps restraints, salt or pH), so
// the second call must not start from the first call's forces. It has to
// equal a fresh integrator started from the intermediate state.
func TestVelocityVerletRecomputesForcesOnEntry(t *testing.T) {
	sys, st, before := everyParam(t)
	Minimize(sys, st, before, 200, 1e-2)
	InitVelocities(sys, st, 300, rand.New(rand.NewSource(3)))
	after := before.Clone()
	after.Restraints[0].Center = Rad(60)
	after.SaltM = 1.0

	reused := &VelocityVerlet{Dt: 0.0005}
	reused.Step(sys, st, before, 20)
	fresh := st.Clone()
	reused.Step(sys, st, after, 20)
	(&VelocityVerlet{Dt: 0.0005}).Step(sys, fresh, after, 20)
	for i := range st.Pos {
		if st.Pos[i] != fresh.Pos[i] || st.Vel[i] != fresh.Vel[i] {
			t.Fatalf("atom %d: reused integrator at %v / %v, fresh one at %v / %v",
				i, st.Pos[i], st.Vel[i], fresh.Pos[i], fresh.Vel[i])
		}
	}
}

// TestKernelAllocations: once a State and an integrator have their
// scratch, force evaluation and integration allocate nothing, and a
// minimisation allocates a fixed amount whatever its iteration count.
func TestKernelAllocations(t *testing.T) {
	check := func(name string, want float64, run func()) {
		t.Helper()
		if got := testing.AllocsPerRun(20, run); got > want {
			t.Errorf("%s: %v allocations per run, want at most %v", name, got, want)
		}
	}
	sys, st, prm := everyParam(t)
	f := make([]Vec3, sys.Top.N())
	check("EnergyForces, every parameter set", 0, func() { sys.EnergyForces(st, prm, f) })
	check("EnergyForces, temperature only", 0, func() { sys.EnergyForces(st, Params{TemperatureK: 300}, f) })
	check("Energy", 0, func() { sys.Energy(st, prm) })

	lg := NewLangevin(0.001, 5, 1)
	check("LangevinBAOAB.Step", 0, func() { lg.Step(sys, st, prm, 10) })
	vv := &VelocityVerlet{Dt: 0.0005}
	check("VelocityVerlet.Step", 0, func() { vv.Step(sys, st, prm, 10) })
	var tr Trajectory
	check("RunSegment, reused trajectory", 0, func() { RunSegment(&tr, sys, st, prm, lg, 60, 25) })

	// Forces, trial state, and the trial state's two scratch slices.
	const minimizeAllocs = 5
	var m Minimizer
	for _, iters := range []int{1, 10, 100} {
		_, start, _ := everyParam(t)
		check("Minimize", minimizeAllocs, func() {
			copy(st.Pos, start.Pos)
			Minimize(sys, st, prm, iters, 0)
		})
		check("Minimizer.Minimize, reused", 0, func() {
			copy(st.Pos, start.Pos)
			m.Minimize(sys, st, prm, iters, 0)
		})
	}
}

// TestSamePotential: parameter sets share a potential when salt, pH and
// restraints agree, whatever their temperatures, unless the system
// titrates under them; and sets that SamePotential matches minimise to
// the same positions bit for bit.
func TestSamePotential(t *testing.T) {
	sys, st, prm := everyParam(t)
	top, _ := BuildAlanineDipeptide()
	plain := MustNewSystem(top, Box{}, 0)
	hot := prm.Clone()
	hot.TemperatureK = 350
	noPH := prm.Clone()
	noPH.PH = 0
	hotNoPH := noPH.Clone()
	hotNoPH.TemperatureK = 350
	moved := prm.Clone()
	moved.Restraints[0].Center += 0.1
	salty := prm.Clone()
	salty.SaltM = 0.5
	acid := prm.Clone()
	acid.PH = 4
	for _, c := range []struct {
		name string
		sys  *System
		a, b Params
		want bool
	}{
		{"same", sys, prm, prm.Clone(), true},
		{"temperature, titrating", sys, prm, hot, false},
		{"temperature, no pH", sys, noPH, hotNoPH, true},
		{"temperature, no titratable sites", plain, prm, hot, true},
		{"restraint centre", sys, prm, moved, false},
		{"salt", sys, prm, salty, false},
		{"pH", sys, prm, acid, false},
		{"pH, no titratable sites", plain, prm, acid, false},
	} {
		if got := c.sys.SamePotential(c.a, c.b); got != c.want {
			t.Errorf("%s: SamePotential = %v, want %v", c.name, got, c.want)
		}
	}
	minimised := func(p Params) []Vec3 {
		s := st.Clone()
		Minimize(sys, s, p, 100, 1e-2)
		return s.Pos
	}
	a, b := minimised(noPH), minimised(hotNoPH)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("atom %d minimised to %v at %g K and %v at %g K", i, a[i], noPH.TemperatureK, b[i], hotNoPH.TemperatureK)
		}
	}
}

// TestSharedSystemConcurrentReplicas is the regression test for scratch
// that lives on the shared System instead of the per-replica State: 8
// goroutines integrate their own State on one System, each under its own
// restraint, salt and pH, and each must land bit for bit where the same
// segment lands when run alone. Run it under -race.
func TestSharedSystemConcurrentReplicas(t *testing.T) {
	sys, base, prm := everyParam(t)
	Minimize(sys, base, prm, 100, 1e-2)
	const replicas = 8
	segment := func(r int) *State {
		st := base.Clone()
		p := prm.Clone()
		p.TemperatureK = 280 + 10*float64(r)
		p.SaltM = 0.05 * float64(r+1)
		p.PH = 3 + float64(r)
		p.Restraints[0].Center = Rad(-180 + 45*float64(r))
		InitVelocities(sys, st, p.TemperatureK, rand.New(rand.NewSource(int64(r))))
		RunSegment(&Trajectory{}, sys, st, p, NewLangevin(0.001, 5, int64(100+r)), 300, 50)
		return st
	}
	var alone [replicas]*State
	for r := range alone {
		alone[r] = segment(r)
	}
	var together [replicas]*State
	var wg sync.WaitGroup
	for r := range together {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			together[r] = segment(r)
		}(r)
	}
	wg.Wait()
	for r := range together {
		for i := range together[r].Pos {
			if together[r].Pos[i] != alone[r].Pos[i] || together[r].Vel[i] != alone[r].Vel[i] {
				t.Fatalf("replica %d atom %d: %v / %v concurrently, %v / %v alone", r, i,
					together[r].Pos[i], together[r].Vel[i], alone[r].Pos[i], alone[r].Vel[i])
			}
		}
	}
}
