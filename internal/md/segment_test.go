package md

import (
	"math/rand"
	"testing"
)

// TestReseededSourceMatchesFresh: reseeding a used generator restarts it
// on exactly the stream a fresh generator of that seed draws. This is
// what lets one integrator per replica serve every segment, reseeded per
// segment, in place of a fresh one each time.
func TestReseededSourceMatchesFresh(t *testing.T) {
	used := rand.New(rand.NewSource(99))
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		for i := 0; i < 1000; i++ {
			used.NormFloat64()
		}
		used.Seed(seed)
		fresh := rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			if a, b := used.NormFloat64(), fresh.NormFloat64(); a != b {
				t.Fatalf("seed %d draw %d: reseeded %v, fresh %v", seed, i, a, b)
			}
		}
	}
}

// TestSegmentEvaluatesOnceAStep: a sampled segment costs one force
// evaluation on entry and one a step, however often it samples. A sample
// that evaluated the energy again, or a stride that began a new
// integrator pass, adds one evaluation per sample.
func TestSegmentEvaluatesOnceAStep(t *testing.T) {
	sys, st, prm := everyParam(t)
	InitVelocities(sys, st, prm.TemperatureK, rand.New(rand.NewSource(1)))
	var tr Trajectory
	for _, c := range []struct{ steps, every int }{{110, 25}, {100, 10}, {7, 1}, {50, 0}} {
		before := st.evals
		RunSegment(&tr, sys, st, prm, NewLangevin(0.001, 5, 2), c.steps, c.every)
		if got := st.evals - before; got != c.steps+1 {
			t.Errorf("%d steps sampled every %d: %d force evaluations, want %d", c.steps, c.every, got, c.steps+1)
		}
	}
}

// TestRunSegmentSamplesAsSeparateEvaluations: a segment's samples and end
// state are, bit for bit, those of integrating stride by stride and
// evaluating each sampled state on its own.
func TestRunSegmentSamplesAsSeparateEvaluations(t *testing.T) {
	sys, st, prm := everyParam(t)
	Minimize(sys, st, prm, 100, 1e-2)
	InitVelocities(sys, st, prm.TemperatureK, rand.New(rand.NewSource(3)))
	ref := st.Clone()
	const steps, every = 110, 25
	var tr Trajectory
	RunSegment(&tr, sys, st, prm, NewLangevin(0.001, 5, 4), steps, every)

	lg := NewLangevin(0.001, 5, 4)
	phi, psi := sys.Top.FindDihedral("phi"), sys.Top.FindDihedral("psi")
	var want Trajectory
	for done := 0; done < steps; done += every {
		lg.Step(sys, ref, prm, min(every, steps-done))
		want.Potential = append(want.Potential, sys.Energy(ref, prm).Potential())
		want.Kinetic = append(want.Kinetic, sys.KineticEnergy(ref))
		want.Phi = append(want.Phi, sys.DihedralAngle(ref, phi))
		want.Psi = append(want.Psi, sys.DihedralAngle(ref, psi))
	}
	for name, pair := range map[string][2][]float64{
		"potential": {tr.Potential, want.Potential}, "kinetic": {tr.Kinetic, want.Kinetic},
		"phi": {tr.Phi, want.Phi}, "psi": {tr.Psi, want.Psi},
	} {
		got, exp := pair[0], pair[1]
		if len(got) != len(exp) {
			t.Fatalf("%s: %d samples, want %d", name, len(got), len(exp))
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Errorf("%s sample %d: %v, want %v", name, i, got[i], exp[i])
			}
		}
	}
	for i := range st.Pos {
		if st.Pos[i] != ref.Pos[i] || st.Vel[i] != ref.Vel[i] {
			t.Fatalf("atom %d ends at %v / %v, want %v / %v", i, st.Pos[i], st.Vel[i], ref.Pos[i], ref.Vel[i])
		}
	}
}
