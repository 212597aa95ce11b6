package md

import "math"

// TitratableSite marks an atom whose charge depends on pH, using the
// Henderson-Hasselbalch mean-field protonation model: at pH, the site's
// protonated fraction is f = 1/(1 + 10^(pH-PKa)) and its effective
// charge interpolates between the protonated and deprotonated values.
// This makes the Hamiltonian a smooth function of pH, which is exactly
// what constant-pH replica exchange needs: replicas at different pH
// values have different Hamiltonians, and exchanges use the standard
// Hamiltonian criterion with cross energies.
//
// Constant-pH exchange is the paper's named extension ("for example pH
// exchange", §5); the discrete-protonation dynamics of Meng & Roitberg
// is substituted by this mean-field model — see DESIGN.md.
type TitratableSite struct {
	// Atom indexes Topology.Atoms.
	Atom int
	// PKa of the site.
	PKa float64
	// ChargeProt and ChargeDeprot are the site charges in the
	// protonated and deprotonated states (units of e).
	ChargeProt   float64
	ChargeDeprot float64
}

// ProtonatedFraction returns the equilibrium protonated fraction at pH.
func (s TitratableSite) ProtonatedFraction(pH float64) float64 {
	return 1 / (1 + math.Pow(10, pH-s.PKa))
}

// EffectiveCharge returns the mean-field charge at pH.
func (s TitratableSite) EffectiveCharge(pH float64) float64 {
	f := s.ProtonatedFraction(pH)
	return f*s.ChargeProt + (1-f)*s.ChargeDeprot
}

// SelfFreeEnergy returns the pH-dependent free energy of the site's
// protonation equilibrium in kcal/mol at temperature tK:
//
//	F(pH) = -kT ln(1 + 10^(PKa - pH))
//
// It is independent of the coordinates but differs between pH replicas,
// so it enters the exchange criterion.
func (s TitratableSite) SelfFreeEnergy(pH, tK float64) float64 {
	return -KB * tK * math.Log(1+math.Pow(10, s.PKa-pH))
}

// effectiveCharges returns the per-atom charge vector under the given
// parameters — the static charges with titratable sites replaced by
// their pH-dependent mean-field values — or nil when no titration
// applies (no titratable sites, or pH unset), in which case callers read
// the static charges directly. buf is caller-owned scratch (grown as
// needed): force evaluations run concurrently for different replicas
// sharing one system, so the scratch must never live on shared
// structure.
func (s *System) effectiveCharges(prm Params, buf []float64) []float64 {
	if !s.Top.titrates(prm) {
		return nil
	}
	buf = append(buf[:0], s.nb.charge...)
	for _, site := range s.Top.Titratable {
		buf[site.Atom] = site.EffectiveCharge(prm.PH)
	}
	return buf
}

// titrates reports whether titration applies under prm: the topology
// has titratable sites and prm sets a pH (a NaN pH counts as set).
func (t *Topology) titrates(prm Params) bool { return !(prm.PH <= 0 || len(t.Titratable) == 0) }

// titrationEnergy sums the sites' protonation self free energies.
func (t *Topology) titrationEnergy(prm Params) float64 {
	if !t.titrates(prm) {
		return 0
	}
	e := 0.0
	for _, s := range t.Titratable {
		e += s.SelfFreeEnergy(prm.PH, prm.TemperatureK)
	}
	return e
}

// BuildTitratableDipeptide returns the alanine dipeptide model with two
// titratable sites attached — a carboxylate-like site (pKa 4.0) on the
// ACE oxygen and an amine-like site (pKa 10.5) on the NME methyl — so
// that constant-pH REMD has real pH-dependent energetics.
func BuildTitratableDipeptide() (*Topology, *State) {
	top, st := BuildAlanineDipeptide()
	top.Titratable = []TitratableSite{
		{Atom: 2, PKa: 4.0, ChargeProt: -0.50, ChargeDeprot: -0.95},
		{Atom: 9, PKa: 10.5, ChargeProt: 0.80, ChargeDeprot: 0.35},
	}
	return top, st
}
