package md

import "fmt"

// Physical constants in the internal unit system:
// length Å, energy kcal/mol, mass amu (g/mol), time ps, charge e.
const (
	// KB is Boltzmann's constant in kcal/mol/K.
	KB = 0.0019872041
	// AccelFactor converts force/mass (kcal/mol/Å/amu) to Å/ps².
	AccelFactor = 418.4
	// CoulombK is the electrostatic constant in kcal·Å/(mol·e²).
	CoulombK = 332.0636
)

// Atom is one interaction site.
type Atom struct {
	Name string
	// Mass in amu.
	Mass float64
	// Charge in units of e.
	Charge float64
	// LJEps (kcal/mol) and LJSigma (Å) are Lennard-Jones parameters;
	// pairs mix with Lorentz-Berthelot rules.
	LJEps   float64
	LJSigma float64
}

// Bond is a harmonic bond: E = K (r - R0)².
type Bond struct {
	I, J int
	K    float64 // kcal/mol/Å²
	R0   float64 // Å
}

// Angle is a harmonic angle: E = K (θ - Theta0)².
type Angle struct {
	I, J, K int
	KTheta  float64 // kcal/mol/rad²
	Theta0  float64 // rad
}

// DihedralTerm is one Fourier term: E = K (1 + cos(n φ - Phase)).
type DihedralTerm struct {
	K     float64 // kcal/mol
	N     int     // periodicity
	Phase float64 // rad
}

// Dihedral is a proper torsion over atoms I-J-K-L with one or more
// Fourier terms.
type Dihedral struct {
	I, J, K, L int
	Terms      []DihedralTerm
	// Label optionally tags named torsions ("phi", "psi") so restraints
	// and analysis can refer to them.
	Label string
}

// Topology is the complete static description of a molecular system.
type Topology struct {
	Atoms     []Atom
	Bonds     []Bond
	Angles    []Angle
	Dihedrals []Dihedral
	// Scale14 scales LJ and Coulomb interactions between atoms
	// separated by exactly three bonds (1-4 pairs); 1-2 and 1-3 pairs
	// are always fully excluded.
	Scale14 float64
	// Titratable lists pH-dependent sites (constant-pH REMD).
	Titratable []TitratableSite
}

// N returns the number of atoms.
func (t *Topology) N() int { return len(t.Atoms) }

// Validate checks index ranges and physical sanity of all terms.
func (t *Topology) Validate() error {
	n := t.N()
	if n == 0 {
		return fmt.Errorf("topology: no atoms")
	}
	for i, a := range t.Atoms {
		if a.Mass <= 0 {
			return fmt.Errorf("topology: atom %d (%s) has non-positive mass %g", i, a.Name, a.Mass)
		}
		if a.LJEps < 0 || a.LJSigma < 0 {
			return fmt.Errorf("topology: atom %d (%s) has negative LJ parameters", i, a.Name)
		}
	}
	in := func(i int) bool { return i >= 0 && i < n }
	for k, b := range t.Bonds {
		if !in(b.I) || !in(b.J) || b.I == b.J {
			return fmt.Errorf("topology: bond %d has bad indices (%d,%d)", k, b.I, b.J)
		}
		if b.K < 0 || b.R0 <= 0 {
			return fmt.Errorf("topology: bond %d has bad parameters K=%g R0=%g", k, b.K, b.R0)
		}
	}
	for k, a := range t.Angles {
		if !in(a.I) || !in(a.J) || !in(a.K) || a.I == a.J || a.J == a.K || a.I == a.K {
			return fmt.Errorf("topology: angle %d has bad indices (%d,%d,%d)", k, a.I, a.J, a.K)
		}
	}
	for k, d := range t.Dihedrals {
		idx := [4]int{d.I, d.J, d.K, d.L}
		for x := 0; x < 4; x++ {
			if !in(idx[x]) {
				return fmt.Errorf("topology: dihedral %d has bad index %d", k, idx[x])
			}
			for y := x + 1; y < 4; y++ {
				if idx[x] == idx[y] {
					return fmt.Errorf("topology: dihedral %d repeats atom %d", k, idx[x])
				}
			}
		}
		if len(d.Terms) == 0 {
			return fmt.Errorf("topology: dihedral %d has no Fourier terms", k)
		}
	}
	if t.Scale14 < 0 || t.Scale14 > 1 {
		return fmt.Errorf("topology: Scale14 = %g out of [0,1]", t.Scale14)
	}
	return nil
}

// FindDihedral returns the index of the first dihedral with the given
// label, or -1.
func (t *Topology) FindDihedral(label string) int {
	for i, d := range t.Dihedrals {
		if d.Label == label {
			return i
		}
	}
	return -1
}

// DegreesOfFreedom returns 3N (no constraints are used in this engine).
func (t *Topology) DegreesOfFreedom() int { return 3 * t.N() }
