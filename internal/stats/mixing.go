package stats

import "fmt"

// Replica-exchange mixing diagnostics. REMD sampling quality depends on
// replicas performing round trips through the parameter ladder; these
// functions analyse the slot history recorded by the orchestrator
// (row = sub-cycle, column = replica, value = slot index).

// MixingStats summarises how well replicas traverse the ladder.
type MixingStats struct {
	// RoundTrips is the total number of completed bottom-to-top-to-
	// bottom (or top-to-bottom-to-top) traversals across all replicas.
	RoundTrips int
	// VisitedFraction is the mean over replicas of the fraction of
	// distinct slots each visited.
	VisitedFraction float64
	// MeanDisplacement is the mean absolute slot change per sub-cycle
	// per replica (0 = frozen ladder, ~0.5 = healthy neighbour mixing).
	MeanDisplacement float64
}

// AnalyzeMixing computes mixing statistics from a slot history with
// nSlots ladder positions. It returns an error for malformed input.
//
// A round trip is one replica going from an end of the ladder to the
// other end and back, the definition analysis.Collector counts by: the
// two halves must be the same replica's.
//
// When the orchestrator ran with a bounded history (Spec.HistoryTail),
// the rows passed here cover only the retained tail of the run: the
// statistics then describe that window, not the whole trajectory, and
// round trips straddling the truncation point are not counted.
func AnalyzeMixing(history [][]int, nSlots int) (MixingStats, error) {
	var s MixingStats
	if len(history) == 0 {
		return s, fmt.Errorf("stats: empty slot history")
	}
	nRep := len(history[0])
	if nRep == 0 {
		return s, fmt.Errorf("stats: slot history has no replicas")
	}
	for i, row := range history {
		if len(row) != nRep {
			return s, fmt.Errorf("stats: history row %d has %d entries, want %d", i, len(row), nRep)
		}
		for _, slot := range row {
			if slot < 0 || slot >= nSlots {
				return s, fmt.Errorf("stats: slot %d out of range [0,%d)", slot, nSlots)
			}
		}
	}

	totalVisited := 0
	totalDisp := 0.0
	dispSamples := 0
	visited := make([]bool, nSlots)
	for r := 0; r < nRep; r++ {
		for i := range visited {
			visited[i] = false
		}
		nVisited := 0
		// Round-trip state machine: -1 = waiting for an endpoint,
		// 0 = last endpoint was bottom, 1 = last endpoint was top.
		last, halves := -1, 0
		for t := range history {
			slot := history[t][r]
			if !visited[slot] {
				visited[slot] = true
				nVisited++
			}
			if t > 0 {
				d := slot - history[t-1][r]
				if d < 0 {
					d = -d
				}
				totalDisp += float64(d)
				dispSamples++
			}
			switch {
			case slot == 0:
				if last == 1 {
					halves++ // top->bottom half
				}
				last = 0
			case slot == nSlots-1:
				if last == 0 {
					halves++ // bottom->top half
				}
				last = 1
			}
		}
		// Two endpoint-to-endpoint halves make one round trip.
		s.RoundTrips += halves / 2
		totalVisited += nVisited
	}
	s.VisitedFraction = float64(totalVisited) / float64(nRep*nSlots)
	if dispSamples > 0 {
		s.MeanDisplacement = totalDisp / float64(dispSamples)
	}
	return s, nil
}
