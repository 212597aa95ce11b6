package md

import (
	"fmt"
	"math"
	"slices"
)

// compiled is the read-only form of a topology that the force loops
// walk. NewSystem builds it once; nothing writes it afterwards, so any
// number of replicas may evaluate forces on one System concurrently.
type compiled struct {
	// n and cutoff are what the tables were built for; EnergyForces
	// refuses to run against a topology or cutoff that has since changed.
	n      int
	cutoff float64

	// Special pairs (excluded or 1-4) as a CSR over the lower atom of
	// each pair: row i is special[specialStart[i]:specialStart[i+1]],
	// holding j<<1 | is14 for every special partner j > i in ascending j.
	// The i<j pair loop advances a cursor through the row, so it visits
	// pairs in plain (i asc, j asc) order without looking anything up.
	specialStart []int32
	special      []int32

	// ljType is each atom's index into the nTypes×nTypes mixed-parameter
	// table lj; atoms with equal (LJEps, LJSigma) share a type.
	ljType []int32
	nTypes int
	lj     []ljPair

	// charge holds the static per-atom charges.
	charge []float64
}

// ljPair is one Lorentz-Berthelot mixed parameter set. Every field is
// computed by the expression the per-pair code used to evaluate, so the
// table changes no bit of any energy.
type ljPair struct {
	eps   float64 // sqrt(eps_i * eps_j)
	sig2  float64 // (½(σ_i + σ_j))²
	shift float64 // 4 eps ((σ/rc)¹² - (σ/rc)⁶); 0 without a cutoff
}

const pair14 = 1 // low bit of a special entry

// compile builds the tables for a validated topology.
func compile(top *Topology, cutoff float64) compiled {
	n := top.N()
	c := compiled{n: n, cutoff: cutoff}
	c.compileSpecialPairs(top)
	c.compileLJ(top, cutoff)
	c.charge = make([]float64, n)
	for i := range c.charge {
		c.charge[i] = top.Atoms[i].Charge
	}
	return c
}

// compileSpecialPairs classifies pairs by bond distance: one or two
// bonds apart is excluded, exactly three is a 1-4 pair.
func (c *compiled) compileSpecialPairs(top *Topology) {
	n := c.n
	adj := make([][]int32, n)
	for _, b := range top.Bonds {
		adj[b.I] = append(adj[b.I], int32(b.J))
		adj[b.J] = append(adj[b.J], int32(b.I))
	}
	c.specialStart = make([]int32, n+1)
	// seen marks atoms already reached from the current root; shells
	// are the atoms at bond distance 1, 2 and 3, found breadth-first.
	seen := make([]bool, n)
	var reached, frontier, next, row []int32
	for i := 0; i < n; i++ {
		seen[i] = true
		reached = append(reached[:0], int32(i))
		frontier = append(frontier[:0], int32(i))
		row = row[:0]
		for dist := 1; dist <= 3 && len(frontier) > 0; dist++ {
			next = next[:0]
			for _, a := range frontier {
				for _, b := range adj[a] {
					if seen[b] {
						continue
					}
					seen[b] = true
					reached = append(reached, b)
					next = append(next, b)
					if int(b) > i {
						e := b << 1
						if dist == 3 {
							e |= pair14
						}
						row = append(row, e)
					}
				}
			}
			frontier, next = next, frontier
		}
		for _, a := range reached {
			seen[a] = false
		}
		slices.Sort(row)
		c.special = append(c.special, row...)
		c.specialStart[i+1] = int32(len(c.special))
	}
}

// compileLJ assigns LJ types and mixes every type pair.
func (c *compiled) compileLJ(top *Topology, cutoff float64) {
	type ljParams struct{ eps, sigma float64 }
	var types []ljParams
	index := map[ljParams]int32{}
	c.ljType = make([]int32, c.n)
	for i, a := range top.Atoms {
		p := ljParams{a.LJEps, a.LJSigma}
		t, ok := index[p]
		if !ok {
			t = int32(len(types))
			index[p] = t
			types = append(types, p)
		}
		c.ljType[i] = t
	}
	c.nTypes = len(types)
	c.lj = make([]ljPair, c.nTypes*c.nTypes)
	rc2 := cutoff * cutoff
	for a, ta := range types {
		for b, tb := range types {
			eps := math.Sqrt(ta.eps * tb.eps)
			sig := 0.5 * (ta.sigma + tb.sigma)
			p := ljPair{eps: eps, sig2: sig * sig}
			if cutoff > 0 {
				src2 := sig * sig / rc2
				src6 := src2 * src2 * src2
				p.shift = 4 * eps * (src6*src6 - src6)
			}
			c.lj[a*c.nTypes+b] = p
		}
	}
}

// checkCompiled panics if the topology or cutoff no longer match what
// NewSystem compiled; running on would silently use stale tables.
func (s *System) checkCompiled() {
	if c := &s.nb; len(s.Top.Atoms) != c.n || s.Cutoff != c.cutoff {
		panic(fmt.Sprintf("md: system compiled for %d atoms, cutoff %g but has %d atoms, cutoff %g: "+
			"build it with NewSystem and do not change the topology or cutoff afterwards",
			c.n, c.cutoff, len(s.Top.Atoms), s.Cutoff))
	}
}

// specialPair finds the entry for the pair (i, j) in the lower atom's row.
func (c *compiled) specialPair(i, j int) (is14, found bool) {
	if i > j {
		i, j = j, i
	}
	for _, e := range c.special[c.specialStart[i]:c.specialStart[i+1]] {
		if int(e>>1) == j {
			return e&pair14 != 0, true
		}
	}
	return false, false
}

// Excluded reports whether the nonbonded interaction between i and j is
// fully excluded (1-2 or 1-3).
func (s *System) Excluded(i, j int) bool {
	is14, found := s.nb.specialPair(i, j)
	return found && !is14
}

// Is14 reports whether (i,j) is a 1-4 pair (scaled by Scale14).
func (s *System) Is14(i, j int) bool {
	is14, _ := s.nb.specialPair(i, j)
	return is14
}
