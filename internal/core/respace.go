package core

import (
	"fmt"
	"math"
)

// Online ladder respacing: the actuator behind the feedback trigger's
// saturation diagnostic. When a dimension's PI controller has been
// pinned at a window clamp long enough (the target acceptance is
// unreachable at any window length — the ladder spacing itself is
// wrong), the dispatcher asks a RespacePlanner for a re-fitted set of
// window values derived from the measured per-pair acceptance profile,
// swaps the dimension's grid onto the new rungs at a checkpoint
// boundary, and resets that dimension's controller so it re-warms
// against the new ladder. The planner is the analysis collector
// (analysis.Collector.PlanRespace, fitting with respace.Refit); core only
// defines the interface, the policy knobs and the apply step, keeping the
// dependency direction core <- analysis intact.

// RespacePlanner proposes a replacement value ladder for a saturated
// exchange dimension. PlanRespace receives the dimension index and a
// copy of the current window values; it returns the re-fitted values
// and true, or ok=false when no refit is possible (insufficient
// acceptance data, degenerate profile, or a re-fit that would not move
// any rung). Implementations must be pure with respect to the
// simulation: same measured history, same answer.
type RespacePlanner interface {
	PlanRespace(dim int, current []float64) (next []float64, ok bool)
}

// RespaceSpec configures online ladder respacing (Spec.Respace; nil
// disables the mechanism entirely).
type RespaceSpec struct {
	// Planner proposes re-fitted ladders. A nil planner disables
	// respacing at run time while keeping the configuration valid —
	// config dry-runs build the spec before any collector exists.
	Planner RespacePlanner
	// AfterSteps is how many consecutive saturated controller steps a
	// dimension must accumulate before it is re-fitted; 0 selects the
	// default (12 — above the trigger's own saturation threshold, so
	// the diagnostic is well established before the grid moves).
	AfterSteps int
	// MaxRefits bounds the refits per dimension; 0 selects the default
	// (3). A ladder that saturates again after exhausting its budget
	// stays on its last grid and the diagnostic keeps reporting.
	MaxRefits int
	// Disabled opts individual dimensions out (indexed like Spec.Dims;
	// a short slice leaves the remaining dimensions enabled).
	Disabled []bool
}

// afterSteps resolves the saturation-persistence threshold.
func (r *RespaceSpec) afterSteps() int {
	if r.AfterSteps > 0 {
		return r.AfterSteps
	}
	return 12
}

// maxRefits resolves the per-dimension refit budget.
func (r *RespaceSpec) maxRefits() int {
	if r.MaxRefits > 0 {
		return r.MaxRefits
	}
	return 3
}

// disabled reports whether dimension d is opted out.
func (r *RespaceSpec) disabled(d int) bool {
	return d >= 0 && d < len(r.Disabled) && r.Disabled[d]
}

// validate rejects unusable respacing parameterizations; dims is the
// spec's dimension count.
func (r *RespaceSpec) validate(dims int) error {
	if r.AfterSteps < 0 {
		return fmt.Errorf("respace after-steps must be non-negative, got %d", r.AfterSteps)
	}
	if r.MaxRefits < 0 {
		return fmt.Errorf("respace max-refits must be non-negative, got %d", r.MaxRefits)
	}
	if len(r.Disabled) > dims {
		return fmt.Errorf("respace disables %d dimensions, spec has %d", len(r.Disabled), dims)
	}
	return nil
}

// RespaceRecord is one applied ladder re-fit, as surfaced in the refit
// history (/status, cmd/repex summary) and carried through snapshots.
type RespaceRecord struct {
	// At is the virtual time of the refit; Event the exchange-event
	// index it fired after.
	At    float64 `json:"at"`
	Event int     `json:"event"`
	// Dim is the re-fitted dimension; Refit its refit ordinal (1-based).
	Dim   int `json:"dim"`
	Refit int `json:"refit"`
	// Old and New are the window values before and after.
	Old []float64 `json:"old"`
	New []float64 `json:"new"`
}

// maybeRespace runs the respacing policy after a fired exchange event,
// before the snapshot for the same boundary is captured (so a refit and
// the checkpoint that persists it are atomic). For every dimension whose
// controller has been saturated past the persistence threshold it asks
// the planner for a re-fitted ladder, sanity-checks the proposal, swaps
// the grid, resets the dimension's controller and publishes a
// RespaceEvent. No RNG draws and no virtual time pass here, so a run
// that never refits is bit-identical with respacing on or off.
func (s *Simulation) maybeRespace(fb *FeedbackTrigger, event int) {
	rs := s.spec.Respace
	if rs == nil || rs.Planner == nil || fb == nil {
		return
	}
	// Refits ride on checkpoint boundaries: resuming the pre-refit
	// snapshot replays the refit identically (controller and collector
	// state restore bit-exact, the planner is pure), and the post-refit
	// snapshot captures the new grid directly.
	if s.spec.SnapshotEvery > 0 && event%s.spec.SnapshotEvery != 0 {
		return
	}
	for d := range s.spec.Dims {
		refits := s.refitCount(d)
		if rs.disabled(d) || len(s.spec.Dims[d].Values) < 2 || refits >= rs.maxRefits() {
			continue
		}
		st := fb.DimStatus(d)
		if !st.Saturated || st.SatSteps < rs.afterSteps() {
			continue
		}
		old := append([]float64(nil), s.spec.Dims[d].Values...)
		next, ok := rs.Planner.PlanRespace(d, append([]float64(nil), old...))
		if !ok || !respaceSane(old, next) {
			continue
		}
		rec := RespaceRecord{At: s.rt.Now(), Event: event, Dim: d, Refit: refits + 1,
			Old: old, New: append([]float64(nil), next...)}
		s.applyRespace(rec)
		fb.ResetDim(d)
		publish(s, RespaceEvent(rec))
		s.flushBus()
		s.recordRespace(d, event, rec.Refit)
	}
}

// refitCount is dimension d's applied refits, counted from the history
// (at most MaxRefits records a dimension). Only the dispatcher goroutine,
// the history's one writer, calls it, so it reads without respaceMu.
func (s *Simulation) refitCount(d int) int {
	n := 0
	for i := range s.respacings {
		if s.respacings[i].Dim == d {
			n++
		}
	}
	return n
}

// respaceSane verifies a planner proposal preserves the ladder's
// contract: same rung count, strictly monotone in the original
// direction, endpoints inside the original [min, max] envelope, and
// every value finite. A proposal failing any check is dropped — the run
// keeps its current grid.
func respaceSane(old, next []float64) bool {
	if len(next) != len(old) || len(old) < 2 {
		return false
	}
	up := old[len(old)-1] > old[0]
	lo, hi := old[0], old[len(old)-1]
	if !up {
		lo, hi = hi, lo
	}
	for i, v := range next {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < lo || v > hi {
			return false
		}
		if i > 0 {
			if up && next[i] <= next[i-1] {
				return false
			}
			if !up && next[i] >= next[i-1] {
				return false
			}
		}
	}
	return true
}

// applyRespace swaps dimension rec.Dim's window values for rec.New,
// rebuilds every slot's derived parameters and appends rec to the
// history, all in one respaceMu section, so a concurrent Respacing never
// reads a ladder without its record. Slot indices are preserved (the
// re-fit keeps rung count and order), so each replica stays in its slot
// and simply receives that slot's new parameters — the nearest-new-rung
// remap is the identity on slot index. A temperature change reaches an
// engine's velocities as a swap's does: at the replica's next segment.
func (s *Simulation) applyRespace(rec RespaceRecord) {
	s.respaceMu.Lock()
	s.spec.Dims[rec.Dim].Values = append([]float64(nil), rec.New...)
	s.fillSlotParams()
	s.respacings = append(s.respacings, rec)
	s.respaceMu.Unlock()
	for _, r := range s.replicas {
		r.Params = s.slotParams[r.Slot].Clone()
	}
}

// Respacing returns a deep copy of every dimension's current window
// values and a copy of the applied refits in order, read together under
// one lock: each dimension's ladder is the New of its last record, or
// its original values when it has none. Safe for concurrent use with a
// running dispatcher (the live HTTP server reads it mid-run, while a
// refit may be rewriting the grid).
func (s *Simulation) Respacing() (ladders [][]float64, history []RespaceRecord) {
	s.respaceMu.Lock()
	defer s.respaceMu.Unlock()
	ladders = make([][]float64, len(s.spec.Dims))
	for d := range s.spec.Dims {
		ladders[d] = append([]float64(nil), s.spec.Dims[d].Values...)
	}
	return ladders, append([]RespaceRecord(nil), s.respacings...)
}
