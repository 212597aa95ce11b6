package md

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"
)

var updateKernel = flag.Bool("update", false, "rewrite testdata/kernel.golden from the current force and integrator kernels")

const kernelGolden = "testdata/kernel.golden"

// bitHash hashes float64 bit patterns, so two values that print alike but
// differ in the last place hash differently.
type bitHash struct{ h hash.Hash64 }

func (b bitHash) f(x float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
	b.h.Write(buf[:])
}

func (b bitHash) vecs(vs []Vec3) {
	for _, v := range vs {
		b.f(v.X)
		b.f(v.Y)
		b.f(v.Z)
	}
}

func (b bitHash) energy(e Energy) {
	for _, x := range []float64{e.Bond, e.Angle, e.Dihedral, e.LJ, e.Coulomb, e.Restraint, e.Titration} {
		b.f(x)
	}
}

// kernelScenario is one system + parameter set whose kernel outputs are
// pinned.
type kernelScenario struct {
	name  string
	build func() (*System, *State, Params)
}

func kernelScenarios() []kernelScenario {
	phiRestraint := func(top *Topology) []TorsionRestraint {
		return []TorsionRestraint{{Dihedral: top.FindDihedral("phi"), Center: Rad(-60), K: 65.65}}
	}
	return []kernelScenario{
		// The benchmark's system: open box, no cutoff.
		{"dipeptide", func() (*System, *State, Params) {
			top, st := BuildAlanineDipeptide()
			return MustNewSystem(top, Box{}, 0), st, Params{TemperatureK: 300}
		}},
		{"dipeptide_phi_salt", func() (*System, *State, Params) {
			top, st := BuildAlanineDipeptide()
			return MustNewSystem(top, Box{}, 0), st,
				Params{TemperatureK: 310, SaltM: 0.15, Restraints: phiRestraint(top)}
		}},
		// Two restraints, one of them on a dihedral other than phi, both
		// on top of pH and salt: every Params field at once.
		{"titratable_ph7_all", func() (*System, *State, Params) {
			top, st := BuildTitratableDipeptide()
			rs := append(phiRestraint(top), TorsionRestraint{Dihedral: top.FindDihedral("psi"), Center: Rad(170), K: 20})
			return MustNewSystem(top, Box{}, 0), st,
				Params{TemperatureK: 330, SaltM: 0.3, PH: 7, Restraints: rs}
		}},
		{"titratable_ph7", func() (*System, *State, Params) {
			top, st := BuildTitratableDipeptide()
			return MustNewSystem(top, Box{}, 0), st, Params{TemperatureK: 300, PH: 7}
		}},
		// Periodic box + cutoff: minimum image, truncation and the LJ shift.
		{"solvated200", func() (*System, *State, Params) {
			top, st, box := BuildSolvatedDipeptide(200)
			return MustNewSystem(top, box, 8.0), st, Params{TemperatureK: 300}
		}},
		{"ljfluid64", func() (*System, *State, Params) {
			top, st, box := BuildLJFluid(64, 0.021)
			return MustNewSystem(top, box, 8.5), st, Params{TemperatureK: 120}
		}},
		// Scale14 = 0 drops 1-4 pairs instead of scaling them.
		{"dipeptide_scale14_0", func() (*System, *State, Params) {
			top, st := BuildAlanineDipeptide()
			top.Scale14 = 0
			return MustNewSystem(top, Box{}, 0), st, Params{TemperatureK: 300, SaltM: 0.05}
		}},
	}
}

// kernelFingerprint hashes, for one scenario: the energy-only call and the
// energy+forces call on the built geometry, a short minimisation, a
// 500-step Langevin segment (final positions and velocities), the
// energy+forces call on the final state, a sampled RunSegment and a
// velocity-Verlet segment. Each stage gets its own hash so a divergence
// names the stage.
func kernelFingerprint(sc kernelScenario) string {
	sys, st, prm := sc.build()
	n := sys.Top.N()
	f := make([]Vec3, n)

	stage := func(fill func(h bitHash)) string {
		h := bitHash{fnv.New64a()}
		fill(h)
		return fmt.Sprintf("%016x", h.h.Sum64())
	}
	energyOnly := stage(func(h bitHash) { h.energy(sys.EnergyForces(st, prm, nil)) })
	forces0 := stage(func(h bitHash) {
		h.energy(sys.EnergyForces(st, prm, f))
		h.vecs(f)
	})
	minimized := stage(func(h bitHash) {
		h.f(Minimize(sys, st, prm, 40, 1e-3))
		h.vecs(st.Pos)
	})
	langevin := stage(func(h bitHash) {
		NewLangevin(0.001, 5, 42).Step(sys, st, prm, 500)
		h.vecs(st.Pos)
		h.vecs(st.Vel)
	})
	var e1 Energy
	forces1 := stage(func(h bitHash) {
		e1 = sys.EnergyForces(st, prm, f)
		h.energy(e1)
		h.vecs(f)
		h.energy(sys.Energy(st, prm))
	})
	segment := stage(func(h bitHash) {
		var tr Trajectory
		RunSegment(&tr, sys, st, prm, NewLangevin(0.001, 5, 43), 120, 25)
		for _, s := range [][]float64{tr.Phi, tr.Psi, tr.Potential, tr.Kinetic} {
			h.f(float64(len(s)))
			for _, x := range s {
				h.f(x)
			}
		}
		h.vecs(st.Pos)
		h.vecs(st.Vel)
	})
	verlet := stage(func(h bitHash) {
		(&VelocityVerlet{Dt: 0.0005}).Step(sys, st, prm, 100)
		h.vecs(st.Pos)
		h.vecs(st.Vel)
	})
	return fmt.Sprintf("%s atoms=%d energy=%s forces0=%s min=%s langevin500=%s forces1=%s segment=%s verlet=%s epot1=%.9f",
		sc.name, n, energyOnly, forces0, minimized, langevin, forces1, segment, verlet, e1.Potential())
}

// TestKernelGolden pins the force field and both integrators bit for
// bit. The golden file was generated by the kernel that looked every atom
// pair up in two hash maps (excluded, 1-4) and re-mixed LJ parameters per
// pair, so a match means the compiled kernel changed no pair order, no
// float association and no RNG draw.
func TestKernelGolden(t *testing.T) {
	var got []string
	for _, sc := range kernelScenarios() {
		got = append(got, kernelFingerprint(sc))
	}
	if *updateKernel {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(kernelGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(kernelGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d scenarios, test has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("kernel diverged:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
