package respace_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/respace"
)

// checkInvariants asserts every property a re-fitted ladder must hold
// against its input: same rung count, pinned endpoints, strict
// monotonicity in the original direction, and every interior rung
// inside the original envelope.
func checkInvariants(t *testing.T, values, out []float64) {
	t.Helper()
	if len(out) != len(values) {
		t.Fatalf("rung count changed: %d -> %d", len(values), len(out))
	}
	n := len(values)
	if out[0] != values[0] || out[n-1] != values[n-1] {
		t.Fatalf("endpoints moved: [%v %v] -> [%v %v]",
			values[0], values[n-1], out[0], out[n-1])
	}
	up := values[n-1] > values[0]
	lo, hi := values[0], values[n-1]
	if !up {
		lo, hi = hi, lo
	}
	for i := 1; i < n; i++ {
		if up && out[i] <= out[i-1] {
			t.Fatalf("not strictly increasing at %d: %v", i, out)
		}
		if !up && out[i] >= out[i-1] {
			t.Fatalf("not strictly decreasing at %d: %v", i, out)
		}
	}
	for i, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite rung %d: %v", i, out)
		}
		if v < lo || v > hi {
			t.Fatalf("rung %d = %v escapes envelope [%v, %v]", i, v, lo, hi)
		}
	}
}

// TestRefitInvariantsRandom sweeps seeded random ladders and acceptance
// profiles — including degenerate all-rejected and all-accepted pairs,
// two-rung ladders, and decreasing ladders — and checks the re-fit
// invariants on every one. 2000 cases cover the space densely enough
// that a clamping or interpolation regression cannot hide.
func TestRefitInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(14)
		values := make([]float64, n)
		v := 200 + 200*rng.Float64()
		for i := range values {
			values[i] = v
			v += 0.01 + 30*rng.Float64()
		}
		if rng.Intn(2) == 1 { // half the trials exercise decreasing ladders
			for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
				values[i], values[j] = values[j], values[i]
			}
		}
		acceptance := make([]float64, n-1)
		for i := range acceptance {
			switch rng.Intn(6) {
			case 0:
				acceptance[i] = 0 // all rejected
			case 1:
				acceptance[i] = 1 // all accepted
			default:
				acceptance[i] = rng.Float64()
			}
		}
		out, err := respace.Refit(values, acceptance)
		if err != nil {
			t.Fatalf("trial %d: Refit(%v, %v): %v", trial, values, acceptance, err)
		}
		checkInvariants(t, values, out)
	}
}

// TestRefitFlatProfileIsNoop: a profile with the same acceptance on
// every gap carries no spacing signal, so the re-fit must return the
// ladder verbatim — bit-exact, not merely close — including profiles
// that are flat only after clamping (all-0 and all-1).
func TestRefitFlatProfileIsNoop(t *testing.T) {
	values := []float64{273, 291, 310, 330, 351, 373}
	for _, a := range []float64{0, 0.35, 1} {
		acceptance := []float64{a, a, a, a, a}
		out, err := respace.Refit(values, acceptance)
		if err != nil {
			t.Fatalf("Refit flat %v: %v", a, err)
		}
		for i := range values {
			if out[i] != values[i] {
				t.Fatalf("flat profile %v moved rung %d: %v -> %v", a, i, values[i], out[i])
			}
		}
	}
}

// TestRefitTwoRungsIsCopy: with only endpoints there is nothing to
// re-place; the result is an exact copy whatever the single ratio says.
func TestRefitTwoRungsIsCopy(t *testing.T) {
	for _, a := range []float64{0, 0.5, 1} {
		out, err := respace.Refit([]float64{273, 373}, []float64{a})
		if err != nil {
			t.Fatalf("Refit 2-rung: %v", err)
		}
		if out[0] != 273 || out[1] != 373 {
			t.Fatalf("2-rung ladder changed: %v", out)
		}
	}
}

// TestRefitMovesTowardHardGap: a gap that rejects everything holds the
// whole difficulty budget, so the interior rungs must migrate toward it
// — the bunched side spreads out and the hard gap is subdivided.
func TestRefitMovesTowardHardGap(t *testing.T) {
	values := []float64{273, 278, 283, 288, 373}
	// Easy bunched gaps, then one hard gap at the top.
	out, err := respace.Refit(values, []float64{0.9, 0.9, 0.9, 0.01})
	if err != nil {
		t.Fatalf("Refit: %v", err)
	}
	checkInvariants(t, values, out)
	for i := 1; i < len(values)-1; i++ {
		if out[i] <= values[i] {
			t.Fatalf("rung %d did not move toward the hard gap: %v -> %v", i, values[i], out[i])
		}
	}
}

func TestRefitRejectsBadInput(t *testing.T) {
	cases := []struct {
		name       string
		values     []float64
		acceptance []float64
	}{
		{"one rung", []float64{300}, nil},
		{"length mismatch", []float64{273, 323, 373}, []float64{0.5}},
		{"duplicate rung", []float64{273, 273, 373}, []float64{0.5, 0.5}},
		{"non-monotone", []float64{273, 373, 323}, []float64{0.5, 0.5}},
	}
	for _, tc := range cases {
		if _, err := respace.Refit(tc.values, tc.acceptance); err == nil {
			t.Errorf("%s: Refit accepted invalid input", tc.name)
		}
	}
}

// TestRefitDecreasingMirrorsIncreasing: re-fitting a decreasing ladder
// must equal re-fitting its reversal and flipping the result, so both
// directions share one code path's numerics.
func TestRefitDecreasingMirrorsIncreasing(t *testing.T) {
	inc := []float64{273, 278, 283, 288, 373}
	acc := []float64{0.8, 0.7, 0.6, 0.05}
	upOut, err := respace.Refit(inc, acc)
	if err != nil {
		t.Fatalf("increasing Refit: %v", err)
	}
	n := len(inc)
	dec := make([]float64, n)
	decAcc := make([]float64, n-1)
	for i := range dec {
		dec[i] = inc[n-1-i]
	}
	for i := range decAcc {
		decAcc[i] = acc[n-2-i]
	}
	downOut, err := respace.Refit(dec, decAcc)
	if err != nil {
		t.Fatalf("decreasing Refit: %v", err)
	}
	for i := range upOut {
		if downOut[i] != upOut[n-1-i] {
			t.Fatalf("direction asymmetry at %d: up %v, down %v", i, upOut, downOut)
		}
	}
}

// TestRefitDeterministic: the re-fit is a pure function — repeated
// calls on the same inputs return bit-identical ladders, the property
// checkpoint/resume determinism rests on.
func TestRefitDeterministic(t *testing.T) {
	values := []float64{273, 280, 295, 320, 373}
	acceptance := []float64{0.95, 0.6, 0.2, 0.02}
	first, err := respace.Refit(values, acceptance)
	if err != nil {
		t.Fatalf("Refit: %v", err)
	}
	for i := 0; i < 5; i++ {
		again, err := respace.Refit(values, acceptance)
		if err != nil {
			t.Fatalf("Refit repeat %d: %v", i, err)
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("repeat %d diverged at rung %d: %v vs %v", i, j, first[j], again[j])
			}
		}
	}
}

// feedEvents pushes synthetic exchange events through a bus so the
// collector accumulates a known per-pair acceptance profile
// (pairAccept[p][round] is pair p's outcome in the given round). Slot
// assignments are held at identity: only the acceptance table matters.
func feedEvents(bus *core.Bus, nReplicas int, pairAccept [][]bool) {
	slots := make([]int, nReplicas)
	for i := range slots {
		slots[i] = i
	}
	for round := range pairAccept[0] {
		var pairs []core.PairOutcome
		for p := range pairAccept {
			pairs = append(pairs, core.PairOutcome{
				Lo: p, Hi: p + 1, ReplicaI: p, ReplicaJ: p + 1,
				Accepted: pairAccept[p][round],
			})
		}
		bus.PublishBatch([]core.Event{core.ExchangeEvent{
			At: float64(round + 1), Event: round, Dim: 0,
			Pairs: pairs, Slots: slots,
		}})
	}
}

// TestPlannerPlanRespace drives the planner runs use — the analysis
// collector — with synthetic exchange events: a profile with one hard
// gap yields a proposal that moves rungs; a flat profile yields no
// proposal; a missing profile (no events) yields no proposal; nor do a
// nil collector and a two-rung ladder.
func TestPlannerPlanRespace(t *testing.T) {
	ladder := []float64{273, 278, 283, 288, 373}
	mkCollector := func(pairAccept [][]bool) *analysis.Collector {
		spec := &core.Spec{
			Name: "planner-test",
			Dims: []core.Dimension{{Type: exchange.Temperature, Values: ladder}},
			Bus:  core.NewBus(),
		}
		col := analysis.New(analysis.ConfigFromSpec(spec))
		col.Attach(spec.Bus, analysis.RunBuffer(spec))
		if pairAccept != nil {
			feedEvents(spec.Bus, len(ladder), pairAccept)
		}
		return col
	}

	rounds := func(accept bool, n int) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = accept
		}
		return out
	}

	t.Run("skewed profile proposes a move", func(t *testing.T) {
		p := mkCollector([][]bool{
			rounds(true, 8), rounds(true, 8), rounds(true, 8), rounds(false, 8),
		})
		next, ok := p.PlanRespace(0, ladder)
		if !ok {
			t.Fatal("expected a proposal for a skewed profile")
		}
		checkInvariants(t, ladder, next)
	})

	t.Run("flat profile proposes nothing", func(t *testing.T) {
		p := mkCollector([][]bool{
			rounds(true, 8), rounds(true, 8), rounds(true, 8), rounds(true, 8),
		})
		if next, ok := p.PlanRespace(0, ladder); ok {
			t.Fatalf("flat profile produced a proposal: %v", next)
		}
	})

	t.Run("no measurements proposes nothing", func(t *testing.T) {
		if next, ok := mkCollector(nil).PlanRespace(0, ladder); ok {
			t.Fatalf("empty collector produced a proposal: %v", next)
		}
	})

	t.Run("nil planner and short ladders propose nothing", func(t *testing.T) {
		var p *analysis.Collector
		if _, ok := p.PlanRespace(0, ladder); ok {
			t.Fatal("nil collector proposed")
		}
		skewed := mkCollector([][]bool{
			rounds(true, 8), rounds(true, 8), rounds(true, 8), rounds(false, 8),
		})
		if _, ok := skewed.PlanRespace(0, []float64{273, 373}); ok {
			t.Fatal("2-rung ladder proposed")
		}
	})
}
