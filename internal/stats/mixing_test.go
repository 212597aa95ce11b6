package stats

import (
	"math"
	"testing"
)

func TestAnalyzeMixingErrors(t *testing.T) {
	if _, err := AnalyzeMixing(nil, 4); err == nil {
		t.Error("empty history accepted")
	}
	if _, err := AnalyzeMixing([][]int{{}}, 4); err == nil {
		t.Error("history without replicas accepted")
	}
	if _, err := AnalyzeMixing([][]int{{0, 1}, {0}}, 4); err == nil {
		t.Error("ragged history accepted")
	}
	if _, err := AnalyzeMixing([][]int{{0, 9}}, 4); err == nil {
		t.Error("out-of-range slot accepted")
	}
}

func TestAnalyzeMixingFrozenLadder(t *testing.T) {
	// Replicas never move: no round trips, zero displacement, each
	// replica visits exactly one slot.
	history := [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}}
	s, err := AnalyzeMixing(history, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.RoundTrips != 0 {
		t.Errorf("round trips %d, want 0", s.RoundTrips)
	}
	if s.MeanDisplacement != 0 {
		t.Errorf("displacement %v, want 0", s.MeanDisplacement)
	}
	if math.Abs(s.VisitedFraction-1.0/3) > 1e-12 {
		t.Errorf("visited fraction %v, want 1/3", s.VisitedFraction)
	}
}

func TestAnalyzeMixingFullTraversal(t *testing.T) {
	// One replica walks 0 -> 3 -> 0: exactly one round trip, full
	// ladder coverage.
	history := [][]int{{0}, {1}, {2}, {3}, {2}, {1}, {0}}
	s, err := AnalyzeMixing(history, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.RoundTrips != 1 {
		t.Errorf("round trips %d, want 1", s.RoundTrips)
	}
	if s.VisitedFraction != 1 {
		t.Errorf("visited fraction %v, want 1", s.VisitedFraction)
	}
	if math.Abs(s.MeanDisplacement-1) > 1e-12 {
		t.Errorf("mean displacement %v, want 1", s.MeanDisplacement)
	}
}

func TestAnalyzeMixingTwoRoundTrips(t *testing.T) {
	history := [][]int{{0}, {2}, {0}, {2}, {0}}
	s, err := AnalyzeMixing(history, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.RoundTrips != 2 {
		t.Errorf("round trips %d, want 2", s.RoundTrips)
	}
}

func TestAnalyzeMixingHalfTripDoesNotCount(t *testing.T) {
	history := [][]int{{0}, {1}, {2}} // bottom to top only
	s, err := AnalyzeMixing(history, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.RoundTrips != 0 {
		t.Errorf("round trips %d for a half traversal, want 0", s.RoundTrips)
	}
}

func TestAnalyzeMixingHalvesOfTwoReplicasDoNotAdd(t *testing.T) {
	// Replica 0 climbs once and replica 1 descends once: two half
	// traversals, but no replica went there and back.
	history := [][]int{{0, 2}, {1, 1}, {2, 0}}
	s, err := AnalyzeMixing(history, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.RoundTrips != 0 {
		t.Errorf("round trips %d for two replicas' single crossings, want 0", s.RoundTrips)
	}
}

func TestAnalyzeMixingSingleReplica(t *testing.T) {
	// One replica sweeping the whole ladder and back: one round trip,
	// full coverage, unit displacement every sub-cycle.
	history := [][]int{{0}, {1}, {2}, {1}, {0}}
	s, err := AnalyzeMixing(history, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.RoundTrips != 1 {
		t.Errorf("round trips %d, want 1", s.RoundTrips)
	}
	if s.VisitedFraction != 1 {
		t.Errorf("visited fraction %v, want 1", s.VisitedFraction)
	}
	if s.MeanDisplacement != 1 {
		t.Errorf("displacement %v, want 1", s.MeanDisplacement)
	}
}

func TestAnalyzeMixingSingleSlot(t *testing.T) {
	// A one-slot ladder is degenerate: bottom and top coincide, so no
	// round trip is ever completed, every replica trivially visits
	// everything, and nothing can move.
	history := [][]int{{0, 0}, {0, 0}, {0, 0}}
	s, err := AnalyzeMixing(history, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.RoundTrips != 0 {
		t.Errorf("round trips %d, want 0 (endpoints coincide)", s.RoundTrips)
	}
	if s.VisitedFraction != 1 {
		t.Errorf("visited fraction %v, want 1", s.VisitedFraction)
	}
	if s.MeanDisplacement != 0 {
		t.Errorf("displacement %v, want 0", s.MeanDisplacement)
	}
}

func TestAnalyzeMixingSingleRow(t *testing.T) {
	// A single sub-cycle has no transitions: displacement must be 0 by
	// construction, not NaN from a zero division.
	s, err := AnalyzeMixing([][]int{{0, 2, 1}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanDisplacement != 0 {
		t.Errorf("displacement %v, want 0 with no transitions", s.MeanDisplacement)
	}
	if math.Abs(s.VisitedFraction-1.0/3) > 1e-12 {
		t.Errorf("visited fraction %v, want 1/3", s.VisitedFraction)
	}
}
