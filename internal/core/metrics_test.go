package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
)

// TestPerCycleMeansAreDeterministic: AvgCycleTime and AvgMDWall fold
// their per-cycle sums in record order, so repeated calls return the
// same bits, those of the in-order sum, even on walls whose sum depends
// on the order of the additions.
func TestPerCycleMeansAreDeterministic(t *testing.T) {
	walls := []float64{1e16, 1, 1, 1}
	var r core.Report
	for i, w := range walls {
		r.Records = append(r.Records, core.CycleRecord{Cycle: i, Wall: w, MD: core.PhaseRecord{Wall: w}})
	}
	want := math.Float64bits((((walls[0] + walls[1]) + walls[2]) + walls[3]) / 4)
	for i := 0; i < 200; i++ {
		if got := r.AvgCycleTime(); math.Float64bits(got) != want {
			t.Fatalf("call %d: AvgCycleTime %v, want %v", i, got, math.Float64frombits(want))
		}
		if got := r.AvgMDWall(); math.Float64bits(got) != want {
			t.Fatalf("call %d: AvgMDWall %v, want %v", i, got, math.Float64frombits(want))
		}
	}
}
