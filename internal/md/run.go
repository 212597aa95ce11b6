package md

// Trajectory holds time series sampled during a simulation segment.
type Trajectory struct {
	// Phi and Psi are the labelled backbone torsions in radians, one
	// entry per sample (empty if the topology lacks them).
	Phi, Psi []float64
	// Potential is the potential energy per sample (kcal/mol).
	Potential []float64
	// Kinetic is the kinetic energy per sample.
	Kinetic []float64
	// Steps is the number of integration steps covered.
	Steps int
}

// Append concatenates another trajectory onto t.
func (t *Trajectory) Append(o Trajectory) {
	t.Phi = append(t.Phi, o.Phi...)
	t.Psi = append(t.Psi, o.Psi...)
	t.Potential = append(t.Potential, o.Potential...)
	t.Kinetic = append(t.Kinetic, o.Kinetic...)
	t.Steps += o.Steps
}

// RunSegment advances the state by steps integration steps under prm,
// sampling observables every sampleEvery steps (sampleEvery <= 0 samples
// only the final frame). This is the "MD phase" primitive the
// replica-exchange core invokes between exchange attempts.
func RunSegment(sys *System, st *State, prm Params, integ Integrator, steps, sampleEvery int) Trajectory {
	tr := Trajectory{Steps: steps}
	if steps <= 0 {
		return tr
	}
	if sampleEvery <= 0 {
		sampleEvery = steps
	}
	phiIdx := sys.Top.FindDihedral("phi")
	psiIdx := sys.Top.FindDihedral("psi")
	// One allocation holds all four series; each is capped at its
	// quarter so a later append to one cannot reach into the next.
	samples := (steps + sampleEvery - 1) / sampleEvery
	buf := make([]float64, 4*samples)
	tr.Potential = buf[0:0:samples]
	tr.Kinetic = buf[samples : samples : 2*samples]
	if phiIdx >= 0 {
		tr.Phi = buf[2*samples : 2*samples : 3*samples]
	}
	if psiIdx >= 0 {
		tr.Psi = buf[3*samples : 3*samples : 4*samples]
	}
	sample := func() {
		e := sys.Energy(st, prm)
		tr.Potential = append(tr.Potential, e.Potential())
		tr.Kinetic = append(tr.Kinetic, sys.KineticEnergy(st))
		if phiIdx >= 0 {
			tr.Phi = append(tr.Phi, sys.DihedralAngle(st, phiIdx))
		}
		if psiIdx >= 0 {
			tr.Psi = append(tr.Psi, sys.DihedralAngle(st, psiIdx))
		}
	}
	done := 0
	for done < steps {
		chunk := sampleEvery
		if done+chunk > steps {
			chunk = steps - done
		}
		integ.Step(sys, st, prm, chunk)
		done += chunk
		sample()
	}
	return tr
}
