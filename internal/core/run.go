package core

import (
	"context"
	"errors"

	"repro/internal/slab"
)

// RunState is the lifecycle state of a run: pending → running →
// {completed, failed, cancelled}. A run's owner tracks it (serve.Run,
// which status endpoints and run registries read); RunContext's error
// says which terminal state a run reached.
type RunState int32

const (
	// RunPending is a constructed simulation that has not started.
	RunPending RunState = iota
	// RunRunning is a simulation inside Run/RunContext.
	RunRunning
	// RunCompleted is a run that finished its cycle budget.
	RunCompleted
	// RunFailed is a run that returned a non-cancellation error.
	RunFailed
	// RunCancelled is a run stopped through its context; its error wraps
	// ErrRunCancelled and its final snapshot (when a Spec.OnSnapshot hook
	// is attached) resumes exactly like a periodic one.
	RunCancelled
)

// String returns the lower-case state name used in status payloads.
func (s RunState) String() string {
	switch s {
	case RunPending:
		return "pending"
	case RunRunning:
		return "running"
	case RunCompleted:
		return "completed"
	case RunFailed:
		return "failed"
	case RunCancelled:
		return "cancelled"
	}
	return "unknown"
}

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	return s == RunCompleted || s == RunFailed || s == RunCancelled
}

// ErrRunCancelled is wrapped by the error RunContext returns when the
// run was stopped through its context. errors.Is(err, ErrRunCancelled)
// distinguishes cancellation from genuine failures.
var ErrRunCancelled = errors.New("run cancelled")

// Run executes the simulation under the spec's exchange-trigger policy
// (derived from the RE pattern when none is set explicitly) and returns
// the report. It is RunContext with a background (non-cancellable)
// context.
func (s *Simulation) Run() (*Report, error) {
	return s.RunContext(context.Background())
}

// RunContext executes the simulation like Run, stopping early when ctx
// is cancelled. Cancellation takes effect at the next exchange-event
// boundary: in-flight MD segments are failed cleanly (awaited and
// discarded, never absorbed into replica state), a final snapshot of
// the boundary is delivered through Spec.OnSnapshot, queued bus events
// are flushed, and the run returns its partial report with an error
// wrapping ErrRunCancelled. Because the forced snapshot has exactly the
// shape of a periodic one — taken right after a fire, discarded
// segments simply redone on resume — resuming it reproduces the
// uninterrupted run's slot history bit for bit.
func (s *Simulation) RunContext(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Start holds minus a resumed run's elapsed time (applySnapshot), so
	// the run back-dates its start by it, keeping Makespan and
	// Utilization cumulative over the whole simulation rather than just
	// the post-resume segment.
	s.report.Start += s.rt.Now()
	tr := s.spec.triggerPolicy()
	s.report.Trigger = tr.Name()
	// The pattern is a property of the policy, whichever knob chose it.
	s.report.Pattern = PatternAsynchronous
	if tr.Aligned() {
		s.report.Pattern = PatternSynchronous
	}
	err := newDispatcher(ctx, s, tr).run()
	s.report.End = s.rt.Now()
	// A finished run keeps its report, not the loop's scratch: the rows'
	// slab (its chunk lives on in the report's rows), the pair outcomes'
	// chunk (its subscribers have what they were sent) and the bus batch.
	s.rows, s.outcomes, s.busBatch = slab.Slab[int]{}, slab.Slab[PairOutcome]{}, nil
	return s.report, err
}
