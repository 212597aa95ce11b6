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
// only the final frame), and makes tr those samples, reusing tr's arrays.
// This is the "MD phase" primitive the replica-exchange core invokes
// between exchange attempts.
//
// The segment is one integrator pass: steps+1 force evaluations, the one
// on entry and one a step. A sample's potential is the energy of the
// evaluation that ended its step, the same bits a separate evaluation
// of the state would give.
func RunSegment(tr *Trajectory, sys *System, st *State, prm Params, integ Integrator, steps, sampleEvery int) {
	*tr = Trajectory{Phi: tr.Phi[:0], Psi: tr.Psi[:0], Potential: tr.Potential[:0], Kinetic: tr.Kinetic[:0], Steps: steps}
	if steps <= 0 {
		return
	}
	if sampleEvery <= 0 {
		sampleEvery = steps
	}
	phiIdx := sys.Top.FindDihedral("phi")
	psiIdx := sys.Top.FindDihedral("psi")
	integ.Begin(sys, st, prm)
	for done := 0; done < steps; {
		chunk := min(sampleEvery, steps-done)
		e := integ.Advance(chunk)
		done += chunk
		tr.Potential = append(tr.Potential, e.Potential())
		tr.Kinetic = append(tr.Kinetic, sys.KineticEnergy(st))
		if phiIdx >= 0 {
			tr.Phi = append(tr.Phi, sys.DihedralAngle(st, phiIdx))
		}
		if psiIdx >= 0 {
			tr.Psi = append(tr.Psi, sys.DihedralAngle(st, psiIdx))
		}
	}
}
