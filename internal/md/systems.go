package md

import (
	"fmt"
	"math"
)

// BuildAlanineDipeptide returns a 10-site united-atom model of alanine
// dipeptide (Ace-Ala-Nme), the physical system used throughout the
// paper's validation and experiments, together with an approximate
// starting geometry.
//
// The model resolves the backbone heavy atoms that define the φ
// (C-N-CA-C) and ψ (N-CA-C-N) torsions, carries partial charges so the
// Debye–Hückel salt term is active (S-REMD), and uses Fourier dihedral
// terms parameterised to give a multi-basin Ramachandran-like free
// energy surface. It is a stylised substitute for the Amber force field
// — see DESIGN.md, substitution 3.
func BuildAlanineDipeptide() (*Topology, *State) {
	top := &Topology{
		Atoms: []Atom{
			{Name: "CH3A", Mass: 15.035, Charge: 0.00, LJEps: 0.145, LJSigma: 3.80}, // 0 ACE methyl
			{Name: "C1", Mass: 12.011, Charge: 0.50, LJEps: 0.090, LJSigma: 3.40},   // 1 ACE carbonyl C
			{Name: "O1", Mass: 15.999, Charge: -0.50, LJEps: 0.210, LJSigma: 2.96},  // 2 ACE O
			{Name: "N1", Mass: 14.007, Charge: -0.35, LJEps: 0.170, LJSigma: 3.25},  // 3 amide N
			{Name: "CA", Mass: 13.019, Charge: 0.35, LJEps: 0.080, LJSigma: 3.80},   // 4 alpha carbon
			{Name: "CB", Mass: 15.035, Charge: 0.00, LJEps: 0.145, LJSigma: 3.80},   // 5 beta methyl
			{Name: "C2", Mass: 12.011, Charge: 0.50, LJEps: 0.090, LJSigma: 3.40},   // 6 carbonyl C
			{Name: "O2", Mass: 15.999, Charge: -0.50, LJEps: 0.210, LJSigma: 2.96},  // 7 O
			{Name: "N2", Mass: 14.007, Charge: -0.35, LJEps: 0.170, LJSigma: 3.25},  // 8 amide N
			{Name: "CH3N", Mass: 15.035, Charge: 0.35, LJEps: 0.145, LJSigma: 3.80}, // 9 NME methyl
		},
		Bonds: []Bond{
			{I: 0, J: 1, K: 150, R0: 1.52},
			{I: 1, J: 2, K: 280, R0: 1.23},
			{I: 1, J: 3, K: 210, R0: 1.33},
			{I: 3, J: 4, K: 160, R0: 1.45},
			{I: 4, J: 5, K: 150, R0: 1.52},
			{I: 4, J: 6, K: 150, R0: 1.52},
			{I: 6, J: 7, K: 280, R0: 1.23},
			{I: 6, J: 8, K: 210, R0: 1.33},
			{I: 8, J: 9, K: 160, R0: 1.45},
		},
		Angles: []Angle{
			{I: 0, J: 1, K: 2, KTheta: 35, Theta0: Rad(120)},
			{I: 0, J: 1, K: 3, KTheta: 35, Theta0: Rad(116)},
			{I: 2, J: 1, K: 3, KTheta: 40, Theta0: Rad(122)},
			{I: 1, J: 3, K: 4, KTheta: 35, Theta0: Rad(122)},
			{I: 3, J: 4, K: 5, KTheta: 30, Theta0: Rad(110)},
			{I: 3, J: 4, K: 6, KTheta: 30, Theta0: Rad(110)},
			{I: 5, J: 4, K: 6, KTheta: 30, Theta0: Rad(110)},
			{I: 4, J: 6, K: 7, KTheta: 35, Theta0: Rad(120)},
			{I: 4, J: 6, K: 8, KTheta: 35, Theta0: Rad(116)},
			{I: 7, J: 6, K: 8, KTheta: 40, Theta0: Rad(122)},
			{I: 6, J: 8, K: 9, KTheta: 35, Theta0: Rad(122)},
		},
		Dihedrals: []Dihedral{
			// omega-like planarity terms (trans/cis amide).
			{I: 0, J: 1, K: 3, L: 4, Terms: []DihedralTerm{{K: 5.0, N: 2, Phase: Rad(180)}}, Label: "omega1"},
			// phi: C1-N1-CA-C2. Two-fold term gives basins near ±90°,
			// one-fold term deepens the -85° basin.
			{I: 1, J: 3, K: 4, L: 6, Terms: []DihedralTerm{
				{K: 1.5, N: 2, Phase: 0},
				{K: 0.6, N: 1, Phase: Rad(100)},
			}, Label: "phi"},
			// psi: N1-CA-C2-N2, mirrored bias toward +100°.
			{I: 3, J: 4, K: 6, L: 8, Terms: []DihedralTerm{
				{K: 1.5, N: 2, Phase: 0},
				{K: 0.6, N: 1, Phase: Rad(-60)},
			}, Label: "psi"},
			{I: 4, J: 6, K: 8, L: 9, Terms: []DihedralTerm{{K: 5.0, N: 2, Phase: Rad(180)}}, Label: "omega2"},
		},
		Scale14: 0.5,
	}
	st := NewState(top.N())
	st.Pos = []Vec3{
		{-2.90, 1.20, 0.10},
		{-1.80, 0.30, 0.00},
		{-2.00, -0.90, 0.05},
		{-0.55, 0.80, -0.05},
		{0.65, 0.00, 0.00},
		{1.00, 0.20, 1.50},
		{1.80, 0.50, -0.90},
		{1.70, 1.70, -1.20},
		{2.90, -0.30, -1.20},
		{4.10, 0.10, -1.90},
	}
	return top, st
}

// PhiPsiIndices returns the dihedral indexes of the labelled phi and psi
// torsions, panicking if the topology has none (programming error).
func PhiPsiIndices(top *Topology) (phi, psi int) {
	phi = top.FindDihedral("phi")
	psi = top.FindDihedral("psi")
	if phi < 0 || psi < 0 {
		panic("md: topology lacks labelled phi/psi dihedrals")
	}
	return phi, psi
}

// WaterNumberDensity is the number density of liquid water in Å⁻³, used
// to size solvent boxes.
const WaterNumberDensity = 0.0334

// BuildSolvatedDipeptide returns the dipeptide immersed in nSolvent
// neutral Lennard-Jones "water" sites on a cubic lattice, in a periodic
// box at liquid-water density. Atom counts of 2881 and 64366 match the
// paper's small and large benchmark systems (total sites = 10 + nSolvent).
func BuildSolvatedDipeptide(nSolvent int) (*Topology, *State, Box) {
	top, st := BuildAlanineDipeptide()
	if nSolvent <= 0 {
		return top, st, Box{}
	}
	total := top.N() + nSolvent
	L := math.Cbrt(float64(total) / WaterNumberDensity)
	box := Box{L, L, L}
	// Cells per axis to fit nSolvent lattice sites.
	cells := int(math.Ceil(math.Cbrt(float64(nSolvent))))
	spacing := L / float64(cells)
	// Recentre the solute into the box middle.
	mid := Vec3{L / 2, L / 2, L / 2}
	var com Vec3
	for _, p := range st.Pos {
		com = com.Add(p)
	}
	com = com.Scale(1 / float64(len(st.Pos)))
	shift := mid.Sub(com)
	for i := range st.Pos {
		st.Pos[i] = st.Pos[i].Add(shift)
	}
	placed := 0
	for ix := 0; ix < cells && placed < nSolvent; ix++ {
		for iy := 0; iy < cells && placed < nSolvent; iy++ {
			for iz := 0; iz < cells && placed < nSolvent; iz++ {
				p := Vec3{
					(float64(ix) + 0.5) * spacing,
					(float64(iy) + 0.5) * spacing,
					(float64(iz) + 0.5) * spacing,
				}
				// Skip lattice sites clashing with the solute.
				clash := false
				for s := 0; s < 10; s++ {
					if box.MinImage(p.Sub(st.Pos[s])).Norm() < 2.5 {
						clash = true
						break
					}
				}
				if clash {
					continue
				}
				top.Atoms = append(top.Atoms, Atom{
					Name: "W", Mass: 18.015, Charge: 0,
					LJEps: 0.152, LJSigma: 3.15,
				})
				st.Pos = append(st.Pos, p)
				st.Vel = append(st.Vel, Vec3{})
				placed++
			}
		}
	}
	return top, st, box
}

// BuildLJFluid returns n identical Lennard-Jones particles on a lattice
// in a periodic cube at the given number density (Å⁻³).
func BuildLJFluid(n int, density float64) (*Topology, *State, Box) {
	if n <= 0 || density <= 0 {
		panic(fmt.Sprintf("md: bad LJ fluid spec n=%d rho=%g", n, density))
	}
	L := math.Cbrt(float64(n) / density)
	box := Box{L, L, L}
	top := &Topology{Scale14: 0}
	st := NewState(0)
	cells := int(math.Ceil(math.Cbrt(float64(n))))
	spacing := L / float64(cells)
	placed := 0
	for ix := 0; ix < cells && placed < n; ix++ {
		for iy := 0; iy < cells && placed < n; iy++ {
			for iz := 0; iz < cells && placed < n; iz++ {
				top.Atoms = append(top.Atoms, Atom{
					Name: "LJ", Mass: 39.948, LJEps: 0.238, LJSigma: 3.405,
				})
				st.Pos = append(st.Pos, Vec3{
					(float64(ix) + 0.5) * spacing,
					(float64(iy) + 0.5) * spacing,
					(float64(iz) + 0.5) * spacing,
				})
				st.Vel = append(st.Vel, Vec3{})
				placed++
			}
		}
	}
	return top, st, box
}
