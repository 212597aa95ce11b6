package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/exchange"
	"repro/internal/md"
)

// chi2Q999 holds the 0.999 quantiles of the χ² distribution for 1 to 23
// degrees of freedom.
var chi2Q999 = [...]float64{10.83, 13.82, 16.27, 18.47, 20.52, 22.46,
	24.32, 26.12, 27.88, 29.59, 31.26, 32.91, 34.53, 36.12, 37.70, 39.25,
	40.79, 42.31, 43.82, 45.31, 46.80, 48.27, 49.73}

// TestExchangeStationaryUnderBarrier: the dispatcher's exchanges leave
// the Boltzmann distribution over slot assignments stationary. Each
// replica's configuration is fixed and MD is a no-op, so a run's slot
// rows are a Markov chain over the 24 assignments of 4 replicas whose
// only moves are the exchanges; its long-run histogram must match
// π(σ) ∝ exp(−Σ_x β_σ(x) E_σ(x)(x)), replica x in slot σ(x). A G-test
// judges the match at the 0.999 level, with a fixed seed so the test is
// deterministic.
//
// The test reads every second row, one per pair of sweeps (even pairs,
// then odd). Consecutive rows are correlated, which the G-test's χ² law
// does not allow for: over seeds 1–20, all rows read a mean G of about
// 1.5 × its degrees of freedom for T and 1.3 × for U (3 of 40 runs over
// the bound), every second row 1.05 × and 0.86 × (none over).
//
// The S case runs each exchange's single-point tasks, one a member,
// through the runtime's Submit and AwaitAll, whose handles are reused.
//
// Pinning sweep to 0 in exchangePhase (the even pairs only, so the
// chain reaches 4 assignments) or flipping the sign of
// exchange.AcceptTemperature's exponent fails it, and taking each cross
// energy under the replica's own parameters fails U and S. Swapping eAB
// and eBA in pairProbability does not, and cannot: a Hamiltonian pair
// shares its temperature, and the swapped Δ is the same sum.
func TestExchangeStationaryUnderBarrier(t *testing.T) {
	const n, events = 4, 40000
	temps := GeometricTemperatures(300, 400, n)
	windows := UniformWindows(n)
	e := []float64{-10, -4, 1, 6} // replica x's energy, kcal/mol
	// u[k][x] is replica x's configuration under window k, kcal/mol;
	// the table is not symmetric.
	u := [][]float64{
		{0.0, 0.6, 1.5, 2.4},
		{0.4, 0.0, 0.8, 1.7},
		{1.1, 0.3, 0.0, 0.9},
		{2.0, 1.2, 0.5, 0.0},
	}
	salts := []float64{0.1, 0.2, 0.4, 0.8}
	// v[k][x] is replica x's configuration under salt k, kcal/mol; the
	// table is not symmetric.
	v := [][]float64{
		{0.0, 0.9, 1.8, 2.2},
		{0.5, 0.0, 0.7, 1.4},
		{1.3, 0.2, 0.0, 0.6},
		{1.6, 1.1, 0.3, 0.0},
	}
	saltOf := func(p md.Params) int { return slices.Index(salts, p.SaltM) }
	windowOf := func(p md.Params) int {
		for k, c := range windows {
			if p.Restraints[0].Center == c {
				return k
			}
		}
		panic("no window has this restraint")
	}
	beta300 := 1 / (md.KB * 300)
	for _, tc := range []struct {
		name   string
		dim    Dimension
		eng    *stubEngine
		beta   func(k int) float64
		energy func(k, x int) float64 // replica x's energy in slot k
	}{
		{
			name:   "T",
			dim:    Dimension{Type: exchange.Temperature, Values: temps},
			eng:    &stubEngine{energyOf: func(r *Replica) float64 { return e[r.ID] }},
			beta:   func(k int) float64 { return 1 / (md.KB * temps[k]) },
			energy: func(k, x int) float64 { return e[x] },
		},
		{
			name: "U",
			dim:  Dimension{Type: exchange.Umbrella, Values: windows, Torsion: "phi", K: UmbrellaK002},
			eng: &stubEngine{
				energyOf: func(r *Replica) float64 { return u[r.Slot][r.ID] },
				crossOf:  func(r *Replica, under md.Params) float64 { return u[windowOf(under)][r.ID] },
			},
			beta:   func(int) float64 { return beta300 },
			energy: func(k, x int) float64 { return u[k][x] },
		},
		{
			// Each salt exchange first submits and awaits a
			// single-point task a member through the runtime.
			name: "S",
			dim:  Dimension{Type: exchange.Salt, Values: salts},
			eng: &stubEngine{
				energyOf: func(r *Replica) float64 { return v[r.Slot][r.ID] },
				crossOf:  func(r *Replica, under md.Params) float64 { return v[saltOf(under)][r.ID] },
			},
			beta:   func(int) float64 { return beta300 },
			energy: func(k, x int) float64 { return v[k][x] },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := &Spec{
				Name:            "stationary-" + tc.name,
				Dims:            []Dimension{tc.dim},
				Trigger:         NewBarrierTrigger(),
				CoresPerReplica: 1,
				StepsPerCycle:   1,
				Cycles:          events,
				Seed:            3,
			}
			rep, err := newTestSim(t, spec, tc.eng, n).Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.SlotHistory) != events {
				t.Fatalf("%d slot rows, want %d", len(rep.SlotHistory), events)
			}
			rows := make([][]int, 0, events/2)
			for i := 1; i < len(rep.SlotHistory); i += 2 {
				rows = append(rows, rep.SlotHistory[i])
			}
			g, df, seen := gTestAssignments(rows, n, tc.beta, tc.energy)
			t.Logf("G = %.1f on %d degrees of freedom, %d assignments seen", g, df, seen)
			if g > chi2Q999[df-1] {
				t.Fatalf("G = %.1f on %d degrees of freedom exceeds the 0.999 quantile %.2f",
					g, df, chi2Q999[df-1])
			}
		})
	}
}

// gTestAssignments returns the G statistic of the slot rows' histogram
// over the n! assignments against π(σ) ∝ exp(−Σ_x β(σ(x)) E(σ(x), x)),
// its degrees of freedom and the number of assignments seen. The least
// likely assignments are pooled into one cell until it expects at least
// 5 rows.
func gTestAssignments(rows [][]int, n int, beta func(k int) float64, energy func(k, x int) float64) (g float64, df, seen int) {
	type cell struct{ observed, expected float64 }
	// An assignment's cell is its row read as a base-n number; the
	// codes that are not permutations keep a zero weight.
	byCode := make([]cell, int(math.Pow(float64(n), float64(n))))
	for _, row := range rows {
		c := 0
		for x := n - 1; x >= 0; x-- {
			c = c*n + row[x]
		}
		byCode[c].observed++
	}
	z := 0.0
	for c := range byCode {
		used, logw := 0, 0.0
		for x, rest := 0, c; x < n; x, rest = x+1, rest/n {
			k := rest % n // replica x's slot
			used |= 1 << k
			logw -= beta(k) * energy(k, x)
		}
		if used == 1<<n-1 { // a permutation
			byCode[c].expected = math.Exp(logw)
			z += byCode[c].expected
		}
	}
	var cells []cell
	for _, c := range byCode {
		if c.expected > 0 {
			c.expected *= float64(len(rows)) / z
			cells = append(cells, c)
		}
		if c.observed > 0 {
			seen++
		}
	}
	slices.SortStableFunc(cells, func(a, b cell) int { return cmp.Compare(a.expected, b.expected) })
	var pool cell
	i := 0
	for ; i < len(cells) && pool.expected < 5; i++ {
		pool.observed += cells[i].observed
		pool.expected += cells[i].expected
	}
	for _, c := range append(cells[i:], pool) {
		if c.observed > 0 {
			g += 2 * c.observed * math.Log(c.observed/c.expected)
		}
	}
	return g, len(cells) - i, seen
}
