package md

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// bondDistances returns all-pairs bond distances by Floyd–Warshall on
// the adjacency matrix: the brute-force reference the compiled special
// pair list is checked against.
func bondDistances(n int, bonds []Bond) [][]int {
	const far = 1 << 20
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = far
			}
		}
	}
	for _, b := range bonds {
		d[b.I][b.J], d[b.J][b.I] = 1, 1
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if via := d[i][k] + d[k][j]; via < d[i][j] {
					d[i][j] = via
				}
			}
		}
	}
	return d
}

// TestPropertySpecialPairsMatchBondDistance: on random bond graphs
// (trees, rings, fused rings, disconnected pieces, repeated bonds) a
// pair is excluded iff it is one or two bonds apart, 1-4 iff exactly
// three, and plain otherwise; rows are ascending and hold only j > i.
func TestPropertySpecialPairsMatchBondDistance(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(24)
		top := &Topology{Atoms: make([]Atom, n), Scale14: 0.5}
		for i := range top.Atoms {
			top.Atoms[i] = Atom{Name: "X", Mass: 1}
		}
		for k := rng.Intn(2 * n); k > 0; k-- {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				top.Bonds = append(top.Bonds, Bond{I: i, J: j, K: 1, R0: 1})
			}
		}
		sys, err := NewSystem(top, Box{}, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dist := bondDistances(n, top.Bonds)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				wantExcl := dist[i][j] == 1 || dist[i][j] == 2
				want14 := dist[i][j] == 3
				if got := sys.Excluded(i, j); got != wantExcl {
					t.Fatalf("seed %d: Excluded(%d,%d) = %v at bond distance %d", seed, i, j, got, dist[i][j])
				}
				if got := sys.Is14(i, j); got != want14 {
					t.Fatalf("seed %d: Is14(%d,%d) = %v at bond distance %d", seed, i, j, got, dist[i][j])
				}
			}
			row := sys.nb.special[sys.nb.specialStart[i]:sys.nb.specialStart[i+1]]
			for k, e := range row {
				if int(e>>1) <= i || (k > 0 && e>>1 <= row[k-1]>>1) {
					t.Fatalf("seed %d: row %d = %v is not ascending j > i", seed, i, row)
				}
			}
		}
	}
}

// TestLJTableMatchesPerPairMixing: for every atom pair the type-pair
// entry holds exactly what mixing the two atoms' parameters on the spot
// gives, and atoms with equal parameters share a type.
func TestLJTableMatchesPerPairMixing(t *testing.T) {
	const rc = 7.0
	top, _, box := BuildSolvatedDipeptide(20)
	c := &MustNewSystem(top, box, rc).nb
	if c.nTypes != 6 {
		t.Fatalf("%d LJ types, want 6 (five solute kinds and water)", c.nTypes)
	}
	for i, ai := range top.Atoms {
		for j, aj := range top.Atoms {
			eps := math.Sqrt(ai.LJEps * aj.LJEps)
			sig := 0.5 * (ai.LJSigma + aj.LJSigma)
			src2 := sig * sig / (rc * rc)
			src6 := src2 * src2 * src2
			want := ljPair{eps: eps, sig2: sig * sig, shift: 4 * eps * (src6*src6 - src6)}
			if got := c.lj[int(c.ljType[i])*c.nTypes+int(c.ljType[j])]; got != want {
				t.Fatalf("atoms %d,%d: table holds %+v, mixing gives %+v", i, j, got, want)
			}
		}
	}
}

// TestEnergyForcesRejectsStaleSystem: a topology that grew after
// NewSystem, or a changed cutoff, panics with a message naming the
// mismatch instead of running on the old tables.
func TestEnergyForcesRejectsStaleSystem(t *testing.T) {
	mustPanic := func(name string, run func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "NewSystem") {
				t.Errorf("%s: recovered %q, want a panic pointing at NewSystem", name, msg)
			}
		}()
		run()
	}
	top, st := BuildAlanineDipeptide()
	sys := MustNewSystem(top, Box{}, 0)
	prm := Params{TemperatureK: 300}
	top.Atoms = append(top.Atoms, Atom{Name: "W", Mass: 18})
	st.Pos = append(st.Pos, Vec3{9, 9, 9})
	mustPanic("grown topology", func() { sys.Energy(st, prm) })

	top, st = BuildAlanineDipeptide()
	sys = MustNewSystem(top, Box{}, 0)
	sys.Cutoff = 9
	mustPanic("changed cutoff", func() { sys.Energy(st, prm) })

	top, st = BuildAlanineDipeptide()
	mustPanic("hand-built system", func() { (&System{Top: top}).Energy(st, prm) })
}
