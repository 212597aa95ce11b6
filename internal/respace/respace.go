// Package respace closes the last control loop of the flexible-REMD
// story: turning the feedback trigger's ladder-saturation diagnostic
// into action. When a dimension's PI controller reports that its
// acceptance target is unreachable at any exchange-window length — the
// ladder spacing itself is wrong — the analysis collector re-fits that
// dimension's window values with Refit from the per-pair acceptance
// profile it measured, and the core dispatcher swaps the grid at a
// checkpoint boundary (see core.RespaceSpec).
//
// The re-fit is the classic flat-acceptance construction: per-pair
// acceptance ratios a_i define an "exchange difficulty" d_i = -ln(a_i)
// per rung gap, the cumulative difficulty curve is piecewise-linearly
// interpolated over the current values, and the same number of rungs is
// re-placed at equal cumulative-difficulty spacing with the endpoints
// pinned. Gaps that accepted everything contribute ~0 difficulty and
// get squeezed; gaps that accepted nothing dominate the budget and get
// subdivided. A profile that is already flat re-fits to itself.
//
// Refit is a pure function of its inputs: the same observed events
// always produce the same proposal, which is what lets a refit replay
// bit-exactly across checkpoint/resume.
package respace

import (
	"fmt"
	"math"
)

// ratioFloor clamps per-pair acceptance ratios away from 0 and 1 so
// -ln(a) stays finite: an all-rejected pair contributes difficulty
// -ln(1e-3) ≈ 6.9, an all-accepted pair ≈ 1e-3.
const ratioFloor = 1e-3

// Refit re-places a strictly monotone value ladder at equal
// cumulative-difficulty spacing given the measured acceptance ratio of
// each neighbour gap (acceptance[i] covers values[i]..values[i+1]).
// The returned ladder has the same length, the same endpoints and the
// same direction; a two-rung ladder or a flat acceptance profile
// returns an exact copy. Errors reject non-monotone input or a length
// mismatch.
func Refit(values, acceptance []float64) ([]float64, error) {
	n := len(values)
	if n < 2 {
		return nil, fmt.Errorf("respace: need at least 2 rungs, got %d", n)
	}
	if len(acceptance) != n-1 {
		return nil, fmt.Errorf("respace: %d rungs need %d acceptance ratios, got %d",
			n, n-1, len(acceptance))
	}
	up := values[n-1] > values[0]
	if !up {
		// Re-fit the reversed (increasing) ladder, then reverse back.
		rv := make([]float64, n)
		ra := make([]float64, n-1)
		for i := range rv {
			rv[i] = values[n-1-i]
		}
		for i := range ra {
			ra[i] = acceptance[n-2-i]
		}
		out, err := Refit(rv, ra)
		if err != nil {
			return nil, err
		}
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		return out, nil
	}
	for i := 1; i < n; i++ {
		if values[i] <= values[i-1] {
			return nil, fmt.Errorf("respace: values not strictly monotone at index %d", i)
		}
	}
	out := make([]float64, n)
	copy(out, values)
	if n == 2 {
		return out, nil
	}
	// Cumulative difficulty over the current rungs, with a flatness
	// check: equal clamped ratios everywhere means the equal-difficulty
	// targets land exactly on the current rungs, so copy them verbatim
	// instead of round-tripping through the interpolation arithmetic.
	diff := make([]float64, n-1)
	flat := true
	for i, a := range acceptance {
		diff[i] = -math.Log(clampRatio(a))
		if i > 0 && diff[i] != diff[0] {
			flat = false
		}
	}
	if flat {
		return out, nil
	}
	cum := make([]float64, n)
	for i := 1; i < n; i++ {
		cum[i] = cum[i-1] + diff[i-1]
	}
	total := cum[n-1]
	// Invert the curve at equal spacing; endpoints stay pinned.
	seg := 0
	for j := 1; j < n-1; j++ {
		target := total * float64(j) / float64(n-1)
		for seg < n-2 && cum[seg+1] < target {
			seg++
		}
		span := cum[seg+1] - cum[seg]
		frac := 0.0
		if span > 0 {
			frac = (target - cum[seg]) / span
		}
		out[j] = values[seg] + frac*(values[seg+1]-values[seg])
	}
	for i := 1; i < n; i++ {
		if out[i] <= out[i-1] {
			return nil, fmt.Errorf("respace: re-fit collapsed rungs %d and %d", i-1, i)
		}
	}
	return out, nil
}

// clampRatio bounds an acceptance ratio to [ratioFloor, 1-ratioFloor].
func clampRatio(a float64) float64 {
	if math.IsNaN(a) {
		return ratioFloor
	}
	if a < ratioFloor {
		return ratioFloor
	}
	if a > 1-ratioFloor {
		return 1 - ratioFloor
	}
	return a
}
