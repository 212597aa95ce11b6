package md

import (
	"fmt"
	"math"
	"slices"
)

// TorsionRestraint is a harmonic umbrella restraint on a proper torsion:
// E = K * wrap(φ - Center)², with the difference wrapped to (-π, π].
// The paper's umbrella windows use K = 0.02 kcal/mol/deg²
// (= 65.65 kcal/mol/rad²) centred uniformly over [0°, 360°).
type TorsionRestraint struct {
	// Dihedral indexes Topology.Dihedrals to locate the four atoms.
	Dihedral int
	// Center in radians.
	Center float64
	// K in kcal/mol/rad².
	K float64
}

// Params are the exchangeable thermodynamic parameters of a replica:
// exactly the quantities swapped by T-, S- and U-REMD.
type Params struct {
	// TemperatureK is the thermostat target in Kelvin (T dimension).
	TemperatureK float64
	// SaltM is the monovalent salt concentration in mol/L (S
	// dimension); it sets the Debye screening length of the
	// electrostatic term.
	SaltM float64
	// PH is the solution pH (H dimension); it sets the mean-field
	// charges of the topology's titratable sites and their protonation
	// self free energy. Zero means "no pH coupling".
	PH float64
	// Restraints are umbrella restraints (U dimensions).
	Restraints []TorsionRestraint
}

// Beta returns 1/(kB T) in mol/kcal.
func (p Params) Beta() float64 { return 1 / (KB * p.TemperatureK) }

// Kappa returns the Debye screening parameter in 1/Å. The standard
// aqueous relation κ = sqrt(I[M]) / 3.04 Å⁻¹ at ~298 K is used; zero salt
// means unscreened Coulomb.
func (p Params) Kappa() float64 {
	if p.SaltM <= 0 {
		return 0
	}
	return math.Sqrt(p.SaltM) / 3.04
}

// Validate reports non-physical parameters.
func (p Params) Validate() error {
	if p.TemperatureK <= 0 {
		return fmt.Errorf("params: temperature %g K must be positive", p.TemperatureK)
	}
	if p.SaltM < 0 {
		return fmt.Errorf("params: negative salt concentration %g M", p.SaltM)
	}
	if p.PH < 0 || p.PH > 14 {
		return fmt.Errorf("params: pH %g outside [0, 14]", p.PH)
	}
	for i, r := range p.Restraints {
		if r.K < 0 {
			return fmt.Errorf("params: restraint %d has negative force constant", i)
		}
	}
	return nil
}

// SamePotential reports whether a and b give every state of s the same
// potential energy and forces, bit for bit. Salt, pH and restraints
// enter the energy; the temperature enters it only through titration
// (a site's self free energy is kT-scaled), so parameter sets that
// differ in temperature alone match unless s titrates under them.
func (s *System) SamePotential(a, b Params) bool {
	if a.SaltM != b.SaltM || a.PH != b.PH || !slices.Equal(a.Restraints, b.Restraints) {
		return false
	}
	return a.TemperatureK == b.TemperatureK || !s.Top.titrates(a)
}

// Clone returns a deep copy (the restraint slice is copied).
func (p Params) Clone() Params {
	q := p
	q.Restraints = append([]TorsionRestraint(nil), p.Restraints...)
	return q
}

// State is the dynamical state of a system: positions and velocities.
type State struct {
	Pos []Vec3
	Vel []Vec3
	// chargeBuf is scratch for pH-effective charges. It lives on the
	// State — owned by a single replica's MD task at a time — rather
	// than on the System, which is shared by concurrently integrating
	// replicas and must stay read-only during force evaluation.
	chargeBuf []float64
	// torsions is scratch of the same kind: dihedralForces leaves each
	// dihedral's angle and gradient here, and restraintForces reads the
	// restrained ones back instead of computing them a second time.
	torsions []torsion
	// evals counts the force evaluations made on this state, so a test
	// can hold a segment to one evaluation a step.
	evals int
}

// NewState allocates a zeroed state for n atoms.
func NewState(n int) *State {
	return &State{Pos: make([]Vec3, n), Vel: make([]Vec3, n)}
}

// TorsionBlock is caller-owned storage for the torsion scratch of many
// states of one system: NewTorsionBlock sizes it once and Carve hands
// out one state's share at a time, so n states cost one allocation
// between them instead of one each.
type TorsionBlock struct {
	free     []torsion
	per, gap int
}

// NewTorsionBlock sizes a block for n states of s with gap unused
// entries (112 bytes each) after every share: every force evaluation
// writes a state's share, so the gap keeps two states that integrate at
// once off each other's cache lines.
func (s *System) NewTorsionBlock(n, gap int) TorsionBlock {
	per := len(s.Top.Dihedrals)
	return TorsionBlock{free: make([]torsion, n*(per+gap)), per: per, gap: gap}
}

// Carve makes the block's next share st's torsion scratch, with a
// full-slice cap.
func (b *TorsionBlock) Carve(st *State) {
	st.torsions = b.free[:b.per:b.per]
	b.free = b.free[b.per+b.gap:]
}

// Energy is the decomposition of the potential energy in kcal/mol.
type Energy struct {
	Bond      float64
	Angle     float64
	Dihedral  float64
	LJ        float64
	Coulomb   float64
	Restraint float64
	// Titration is the pH-dependent protonation self free energy of the
	// titratable sites (zero without pH coupling).
	Titration float64
}

// Potential returns the total potential energy.
func (e Energy) Potential() float64 {
	return e.Bond + e.Angle + e.Dihedral + e.LJ + e.Coulomb + e.Restraint + e.Titration
}

// System couples a topology with simulation-box and cutoff settings.
type System struct {
	Top *Topology
	Box Box
	// Cutoff is the nonbonded cutoff in Å; 0 disables truncation.
	Cutoff float64

	// nb is Top compiled for the nonbonded loop; see compiled.
	nb compiled
}

// NewSystem validates the topology, compiles it and returns a system.
// The topology and cutoff must not change afterwards.
func NewSystem(top *Topology, box Box, cutoff float64) (*System, error) {
	if err := top.Validate(); err != nil {
		return nil, err
	}
	if cutoff < 0 {
		return nil, fmt.Errorf("md: negative cutoff %g", cutoff)
	}
	return &System{Top: top, Box: box, Cutoff: cutoff, nb: compile(top, cutoff)}, nil
}

// MustNewSystem is NewSystem but panics on error.
func MustNewSystem(top *Topology, box Box, cutoff float64) *System {
	s, err := NewSystem(top, box, cutoff)
	if err != nil {
		panic(err)
	}
	return s
}

// Torsion computes the proper torsion angle (radians, in (-π, π]) over
// positions a-b-c-d with minimum-image convention under box.
func Torsion(box Box, a, b, c, d Vec3) float64 {
	b1 := box.MinImage(b.Sub(a))
	b2 := box.MinImage(c.Sub(b))
	b3 := box.MinImage(d.Sub(c))
	n1 := b1.Cross(b2)
	n2 := b2.Cross(b3)
	m := n1.Cross(b2.Unit())
	x := n1.Dot(n2)
	y := m.Dot(n2)
	return math.Atan2(y, x)
}

// DihedralAngle returns the current angle of topology dihedral di.
func (s *System) DihedralAngle(st *State, di int) float64 {
	d := s.Top.Dihedrals[di]
	return Torsion(s.Box, st.Pos[d.I], st.Pos[d.J], st.Pos[d.K], st.Pos[d.L])
}

// EnergyForces computes the potential energy decomposition and, if f is
// non-nil, accumulates forces (kcal/mol/Å) into f (which is zeroed
// first). Parameters enter through the Debye screening (salt) and the
// umbrella restraints; the temperature affects dynamics only.
func (s *System) EnergyForces(st *State, prm Params, f []Vec3) Energy {
	s.checkCompiled()
	n := s.nb.n
	if len(st.Pos) != n {
		panic(fmt.Sprintf("md: state has %d positions for %d atoms", len(st.Pos), n))
	}
	st.evals++
	if f != nil {
		for i := range f {
			f[i] = Vec3{}
		}
	}
	var e Energy
	e.Bond = s.bondForces(st, f)
	e.Angle = s.angleForces(st, f)
	e.Dihedral = s.dihedralForces(st, f)
	lj, coul := s.nonbondedForces(st, prm, f)
	e.LJ, e.Coulomb = lj, coul
	e.Restraint = s.restraintForces(st, prm, f)
	e.Titration = s.Top.titrationEnergy(prm)
	return e
}

// Energy computes the potential energy without forces.
func (s *System) Energy(st *State, prm Params) Energy {
	return s.EnergyForces(st, prm, nil)
}

func (s *System) bondForces(st *State, f []Vec3) float64 {
	e := 0.0
	for _, b := range s.Top.Bonds {
		d := s.Box.MinImage(st.Pos[b.J].Sub(st.Pos[b.I]))
		r := d.Norm()
		dr := r - b.R0
		e += b.K * dr * dr
		if f != nil && r > 0 {
			// dE/dr = 2K dr; force on J is -dE/dr * d/r.
			g := 2 * b.K * dr / r
			f[b.I] = f[b.I].Add(d.Scale(g))
			f[b.J] = f[b.J].Sub(d.Scale(g))
		}
	}
	return e
}

func (s *System) angleForces(st *State, f []Vec3) float64 {
	e := 0.0
	for _, a := range s.Top.Angles {
		u := s.Box.MinImage(st.Pos[a.I].Sub(st.Pos[a.J]))
		v := s.Box.MinImage(st.Pos[a.K].Sub(st.Pos[a.J]))
		nu, nv := u.Norm(), v.Norm()
		if nu == 0 || nv == 0 {
			continue
		}
		cosT := u.Dot(v) / (nu * nv)
		if cosT > 1 {
			cosT = 1
		} else if cosT < -1 {
			cosT = -1
		}
		theta := math.Acos(cosT)
		dt := theta - a.Theta0
		e += a.KTheta * dt * dt
		if f != nil {
			sinT := math.Sqrt(1 - cosT*cosT)
			if sinT < 1e-8 {
				sinT = 1e-8
			}
			// dθ/dri = -1/sinθ * (v/(nu*nv) - cosθ*u/nu²)
			dEdT := 2 * a.KTheta * dt
			c := -1 / sinT
			gi := v.Scale(1 / (nu * nv)).Sub(u.Scale(cosT / (nu * nu))).Scale(c)
			gk := u.Scale(1 / (nu * nv)).Sub(v.Scale(cosT / (nv * nv))).Scale(c)
			f[a.I] = f[a.I].Sub(gi.Scale(dEdT))
			f[a.K] = f[a.K].Sub(gk.Scale(dEdT))
			f[a.J] = f[a.J].Add(gi.Add(gk).Scale(dEdT))
		}
	}
	return e
}

// torsion is a proper torsion angle with its gradient dφ/dr for the four
// atoms. ok is false for a degenerate geometry (collinear atoms), which
// contributes neither energy nor force.
type torsion struct {
	phi            float64
	gi, gj, gk, gl Vec3
	ok             bool
}

// set computes φ and dφ/dr for the four atoms in place.
func (t *torsion) set(box Box, pi, pj, pk, pl Vec3) {
	b1 := box.MinImage(pj.Sub(pi))
	b2 := box.MinImage(pk.Sub(pj))
	b3 := box.MinImage(pl.Sub(pk))
	n1 := b1.Cross(b2)
	n2 := b2.Cross(b3)
	nb2 := b2.Norm()
	n1sq := n1.Norm2()
	n2sq := n2.Norm2()
	if nb2 == 0 || n1sq < 1e-12 || n2sq < 1e-12 {
		t.ok = false
		return
	}
	m := n1.Cross(b2.Scale(1 / nb2))
	t.phi = math.Atan2(m.Dot(n2), n1.Dot(n2))
	// Analytic gradient of phi under this sign convention (verified
	// against central differences in the tests):
	//   dphi/dr_i = +(|b2|/|n1|^2) n1
	//   dphi/dr_l = -(|b2|/|n2|^2) n2
	//   dphi/dr_j = -(1+t) dphi/dr_i + u dphi/dr_l
	//   dphi/dr_k =   t   dphi/dr_i - (1+u) dphi/dr_l
	// with t = (b1.b2)/|b2|^2 and u = (b3.b2)/|b2|^2; the coefficients
	// sum to zero per end atom, giving translation invariance.
	t.gi = n1.Scale(nb2 / n1sq)
	t.gl = n2.Scale(-nb2 / n2sq)
	tt := b1.Dot(b2) / (nb2 * nb2)
	u := b3.Dot(b2) / (nb2 * nb2)
	t.gj = t.gi.Scale(-(1 + tt)).Add(t.gl.Scale(u))
	t.gk = t.gi.Scale(tt).Sub(t.gl.Scale(1 + u))
	t.ok = true
}

// apply subtracts dE/dφ · dφ/dr from the four atoms' forces.
func (t *torsion) apply(f []Vec3, d *Dihedral, dEdPhi float64) {
	f[d.I] = f[d.I].Sub(t.gi.Scale(dEdPhi))
	f[d.J] = f[d.J].Sub(t.gj.Scale(dEdPhi))
	f[d.K] = f[d.K].Sub(t.gk.Scale(dEdPhi))
	f[d.L] = f[d.L].Sub(t.gl.Scale(dEdPhi))
}

func (s *System) dihedralForces(st *State, f []Vec3) float64 {
	dihedrals := s.Top.Dihedrals
	if len(st.torsions) != len(dihedrals) {
		st.torsions = make([]torsion, len(dihedrals))
	}
	e := 0.0
	for k := range dihedrals {
		d := &dihedrals[k]
		t := &st.torsions[k]
		t.set(s.Box, st.Pos[d.I], st.Pos[d.J], st.Pos[d.K], st.Pos[d.L])
		if !t.ok {
			continue
		}
		dEdPhi := 0.0
		for _, term := range d.Terms {
			sin, cos := math.Sincos(float64(term.N)*t.phi - term.Phase)
			e += term.K * (1 + cos)
			dEdPhi -= term.K * float64(term.N) * sin
		}
		if f != nil {
			t.apply(f, d, dEdPhi)
		}
	}
	return e
}

// restraintForces runs after dihedralForces in the same evaluation, so
// st.torsions holds every dihedral's angle at the current positions.
func (s *System) restraintForces(st *State, prm Params, f []Vec3) float64 {
	e := 0.0
	for _, r := range prm.Restraints {
		if r.Dihedral < 0 || r.Dihedral >= len(s.Top.Dihedrals) {
			panic(fmt.Sprintf("md: restraint references dihedral %d of %d", r.Dihedral, len(s.Top.Dihedrals)))
		}
		t := &st.torsions[r.Dihedral]
		if !t.ok {
			continue
		}
		dphi := WrapAngle(t.phi - r.Center)
		e += r.K * dphi * dphi
		if f != nil {
			t.apply(f, &s.Top.Dihedrals[r.Dihedral], 2*r.K*dphi)
		}
	}
	return e
}

// nonbondedForces computes truncated-shifted LJ plus Debye–Hückel
// screened Coulomb over all non-excluded pairs, scaling 1-4 pairs.
//
// Trajectories are pinned bit for bit (testdata/kernel.golden), so the
// loop must keep visiting pairs in (i asc, j asc) order and keep every
// expression's association; what may change is where operands come from.
func (s *System) nonbondedForces(st *State, prm Params, f []Vec3) (lj, coul float64) {
	c := &s.nb
	n := c.n
	kappa := prm.Kappa()
	// Static charges unless titration applies. The scratch lives on the
	// per-replica State because the System is shared by concurrently
	// running replicas.
	charges := c.charge
	if eff := s.effectiveCharges(prm, st.chargeBuf); eff != nil {
		st.chargeBuf = eff
		charges = eff
	}
	charges = charges[:n]
	pos := st.Pos[:n]
	types := c.ljType[:n]
	rc := s.Cutoff
	rc2 := rc * rc
	box := s.Box
	periodic := box.Periodic()
	scale14 := s.Top.Scale14
	for i := 0; i < n; i++ {
		pi, qi := pos[i], charges[i]
		ljRow := c.lj[int(types[i])*c.nTypes:][:c.nTypes]
		special := c.special[c.specialStart[i]:c.specialStart[i+1]]
		// Nothing else touches f[i] while i is the lower atom, so its
		// sum is kept in a register; the additions happen in the same
		// order as they would on f[i] itself.
		var fi Vec3
		if f != nil {
			fi = f[i]
		}
		for j := i + 1; j < n; j++ {
			scale := 1.0
			if len(special) > 0 && int(special[0]>>1) == j {
				is14 := special[0]&pair14 != 0
				special = special[1:]
				if !is14 || scale14 == 0 {
					continue
				}
				scale = scale14
			}
			d := pos[j].Sub(pi)
			if periodic {
				d = box.MinImage(d)
			}
			r2 := d.Norm2()
			if rc > 0 && r2 > rc2 {
				continue
			}
			if r2 < 1e-12 {
				continue
			}
			r := math.Sqrt(r2)
			var dEdR float64
			// Lennard-Jones with Lorentz-Berthelot mixing,
			// truncated and shifted at the cutoff.
			if p := &ljRow[types[j]]; p.eps > 0 {
				sr2 := p.sig2 / r2
				sr6 := sr2 * sr2 * sr2
				sr12 := sr6 * sr6
				eLJ := 4 * p.eps * (sr12 - sr6)
				if rc > 0 {
					eLJ -= p.shift
				}
				lj += scale * eLJ
				dEdR += scale * 4 * p.eps * (-12*sr12 + 6*sr6) / r
			}
			// Debye–Hückel screened Coulomb with pH-effective charges.
			qq := qi * charges[j]
			if qq != 0 {
				base := CoulombK * qq / r
				screen := 1.0
				if kappa > 0 {
					screen = math.Exp(-kappa * r)
				}
				eC := base * screen
				coul += scale * eC
				// dE/dr = -kq1q2 e^{-κr} (1/r² + κ/r)
				dEdR += scale * (-base*screen/r - base*screen*kappa)
			}
			if f != nil && dEdR != 0 {
				g := dEdR / r
				fi = fi.Add(d.Scale(g))
				f[j] = f[j].Sub(d.Scale(g))
			}
		}
		if f != nil {
			f[i] = fi
		}
	}
	return lj, coul
}

// KineticEnergy returns the kinetic energy in kcal/mol.
// With v in Å/ps and m in amu, KE = Σ ½ m v² / AccelFactor.
func (s *System) KineticEnergy(st *State) float64 {
	ke := 0.0
	atoms := s.Top.Atoms
	for i := range atoms {
		ke += 0.5 * atoms[i].Mass * st.Vel[i].Norm2()
	}
	return ke / AccelFactor
}

// InstantaneousTemperature returns the kinetic temperature in K.
func (s *System) InstantaneousTemperature(st *State) float64 {
	dof := float64(s.Top.DegreesOfFreedom())
	if dof == 0 {
		return 0
	}
	return 2 * s.KineticEnergy(st) / (dof * KB)
}
