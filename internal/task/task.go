// Package task defines the workload abstraction shared by the RepEx core
// and its runtime backends. It is the Go analogue of RADICAL-Pilot's
// ComputeUnit description/record split: a Spec says what to run, a Result
// records when and how it ran, and a Runtime schedules Specs onto
// resources.
//
// Two backends implement Runtime:
//
//   - internal/pilot.Runtime — executes tasks in virtual time on one or
//     more pilots of a simulated cluster, one routing slot per pilot
//     (used for all performance experiments), and
//   - internal/localexec.Runtime — executes the task's Run function for
//     real on local goroutines (used for validation and examples).
//
// The RepEx core (internal/core) is written against this interface only,
// which is precisely the decoupling the paper's design argues for.
package task

import (
	"errors"
	"fmt"
)

// ErrResourceLost marks a task failure caused by the executing resource
// disappearing (e.g. a pilot's walltime expiring) rather than by the
// task itself. Runtimes wrap this sentinel (errors.Is) so the scheduler
// can resubmit interrupted work without charging it against the task's
// own failure budget.
var ErrResourceLost = errors.New("task: executing resource lost")

// ResourceEvent records one lifecycle change of an executing resource:
// a pilot becoming active, shrinking after a node loss, receiving a
// preemption notice, resizing, or expiring. Runtimes that model elastic
// resources buffer these and expose them through ResourceReporter so
// the scheduler can publish them to its observability pipeline without
// the runtime depending on it.
type ResourceEvent struct {
	// At is the runtime-clock time of the change.
	At float64
	// Pilot is the routing slot of the affected pilot, the same
	// numbering as Result.Pilot.
	Pilot int
	// Kind is one of the ResourceEvent* constants.
	Kind string
	// Cores is the pilot's core count after the change.
	Cores int
	// Delta is the signed core change (negative for losses).
	Delta int
	// Notice is the preemption notice window in seconds (preempt only).
	Notice float64
}

// ResourceEvent kinds.
const (
	// ResourceLaunch: the pilot's allocation became active.
	ResourceLaunch = "launch"
	// ResourceShrink: node loss removed cores from a live pilot.
	ResourceShrink = "shrink"
	// ResourcePreempt: a preemption notice arrived; the pilot drains.
	ResourcePreempt = "preempt"
	// ResourceResize: an elastic resize changed the pilot's core count.
	ResourceResize = "resize"
	// ResourceExpire: the pilot ended (walltime, preemption or full loss).
	ResourceExpire = "expire"
)

// ResourceReporter is implemented by runtimes that buffer
// ResourceEvents. DrainResourceEvents returns and clears the buffered
// events in occurrence order; it is called from the orchestrator
// context like every other Runtime method.
type ResourceReporter interface {
	DrainResourceEvents() []ResourceEvent
}

// Kind classifies a task within a replica-exchange cycle.
type Kind int

const (
	// MD is a molecular-dynamics simulation phase task.
	MD Kind = iota
	// Exchange is an exchange-phase task (partner determination).
	Exchange
	// SinglePoint is a single-point energy evaluation task, used by
	// salt-concentration exchange where cross-state energies must be
	// computed by the MD engine itself.
	SinglePoint
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case MD:
		return "md"
	case Exchange:
		return "exchange"
	case SinglePoint:
		return "spe"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Spec describes one task.
type Spec struct {
	// Name labels the task; engines leave it empty for MD and
	// single-point tasks, whose Label is built from the fields below.
	Name      string
	Kind      Kind
	ReplicaID int
	// Cycle is the replica's MD cycle an MD task runs.
	Cycle int
	// Cores is the number of CPU cores the task occupies (MPI width).
	Cores int
	// Duration is the compute time on the reference machine, in
	// seconds, used by the virtual-time backend. The backend applies
	// machine speed scaling and jitter.
	Duration float64
	// Staging volumes: number of files and total bytes moved before and
	// after execution through the shared filesystem.
	InFiles  int
	InBytes  int64
	OutFiles int
	OutBytes int64
	// Run is the real work for the local backend; ignored by the
	// virtual backend. May be nil when only simulating.
	Run func() error
	// CanFail marks the task as subject to the cluster's fault
	// injection. MD tasks are typically CanFail; bookkeeping tasks not.
	CanFail bool
}

// Label returns Name when it is set, and otherwise builds the task's
// name from its kind, replica and cycle: md-r%03d-c%02d for an MD task,
// spe-r%03d for a single-point one. Only traces and error messages read
// it, so no string is built per submission.
func (s *Spec) Label() string {
	switch {
	case s.Name != "":
		return s.Name
	case s.Kind == MD:
		return fmt.Sprintf("md-r%03d-c%02d", s.ReplicaID, s.Cycle)
	case s.Kind == SinglePoint:
		return fmt.Sprintf("spe-r%03d", s.ReplicaID)
	}
	return ""
}

// Validate reports malformed specs.
func (s *Spec) Validate() error {
	if s.Cores <= 0 {
		return fmt.Errorf("task %q: cores must be positive, got %d", s.Label(), s.Cores)
	}
	if s.Duration < 0 {
		return fmt.Errorf("task %q: negative duration %g", s.Label(), s.Duration)
	}
	if s.InFiles < 0 || s.OutFiles < 0 || s.InBytes < 0 || s.OutBytes < 0 {
		return fmt.Errorf("task %q: negative staging volume", s.Label())
	}
	return nil
}

// Result records one executed task. All times are in the runtime's clock
// (virtual seconds for the pilot backend, wall seconds for localexec).
type Result struct {
	Spec *Spec
	// Submitted .. Finished bracket the full lifetime.
	Submitted float64
	Finished  float64
	// Component durations (Eq. 1 decomposition inputs):
	StageIn  float64 // input staging incl. metadata-server queueing
	CoreWait float64 // waiting for cores (Execution Mode II waves)
	Launch   float64 // agent launcher queueing + launch latency (T_RP-over)
	Exec     float64 // compute time (T_MD or T_EX)
	StageOut float64 // output staging
	// Pilot is the routing slot the task ran on: 0 on a single pilot,
	// and unchanged when failover replaces the slot's pilot. Stamped at
	// submission, so the flight recorder can attribute each segment to
	// its executor.
	Pilot int
	// Err is non-nil if the task failed (fault injection or real error).
	Err error
}

// Failed reports whether the task failed.
func (r Result) Failed() bool { return r.Err != nil }

// Handle is a pending task.
type Handle interface {
	// Done reports whether the task has finished (successfully or not).
	Done() bool
	// Result returns the result; valid only after Done reports true.
	Result() Result
}

// Runtime schedules task specs onto resources. All methods must be called
// from the single orchestrator context that owns the runtime (matching
// RepEx's single-threaded client-side EMM).
//
// The runtime exposes two waiting styles: direct awaits on individual
// handles (Await, AwaitAll), and a completion stream (SubmitWatched,
// AwaitNext) that delivers finished tasks incrementally in completion
// order. The stream is what the event-driven dispatcher in internal/core
// runs on: each completion is enqueued once and delivered once, so the
// dispatcher pays O(1) per event instead of rescanning a handle slice.
//
// A handle lives until it is delivered: a runtime may reuse it for a
// later submission once Await or AwaitAll has returned its result, or
// once the AwaitNext after the one that delivered it is called. Callers
// keep the Result, never the handle.
type Runtime interface {
	// Now returns the runtime's current time in seconds.
	Now() float64
	// Cores returns the number of cores available to the workload.
	Cores() int
	// Submit enqueues a task for execution and returns immediately.
	Submit(s *Spec) Handle
	// SubmitWatched enqueues a task like Submit and additionally
	// registers it on the runtime's completion stream: when the task
	// finishes (successfully or not), its handle is delivered exactly
	// once by a subsequent AwaitNext call.
	SubmitWatched(s *Spec) Handle
	// AwaitNext blocks until at least one watched completion is pending
	// delivery or the absolute deadline passes, and returns the completed
	// watched handles in completion order (nil on timeout). A +Inf
	// deadline waits indefinitely for the next completion; callers must
	// therefore only pass +Inf while watched tasks are outstanding. The
	// slice may be a buffer the runtime reuses, and the handles in it
	// may be reused for later submissions: both are valid until the next
	// AwaitNext, and a caller that needs a result later copies the
	// Result.
	AwaitNext(deadline float64) []Handle
	// Await blocks until h is done and returns its result; h is dead
	// once it returns.
	Await(h Handle) Result
	// AwaitAll blocks until all handles are done and returns their
	// results in order; the handles are dead once it returns, and the
	// slice may be a buffer the runtime reuses at the next AwaitAll.
	AwaitAll(hs []Handle) []Result
	// Overhead charges d seconds of client-side overhead to the clock
	// (RepEx task-preparation time; a no-op sleep in wall time).
	Overhead(d float64)
	// SleepUntil blocks the orchestrator until the absolute time t
	// (used by window-style exchange triggers to idle to a boundary).
	SleepUntil(t float64)
}

// BatchAwaiter is an optional Runtime extension for a caller with
// nothing to do about a completion until n of them are pending, like the
// synchronous pattern's barrier. AwaitBatch is AwaitNext that returns
// once n watched completions are pending delivery (or the deadline
// passes), and earlier only where the runtime's caller must act at a
// completion's own time; what that is, the runtime says. Its handles
// live shorter than AwaitNext's: the runtime may reuse them once the
// caller next blocks on it (AwaitNext, AwaitBatch, Await, AwaitAll,
// Overhead or SleepUntil), so the caller copies every Result before. A
// runtime without it delivers completions one AwaitNext at a time.
type BatchAwaiter interface {
	AwaitBatch(n int, deadline float64) []Handle
}

// RunAll is a convenience that submits all specs and awaits all results.
// The slice is AwaitAll's: it may be a buffer the runtime reuses at its
// next AwaitAll, and so at the next RunAll on the same runtime. A caller
// that keeps two batches copies the first.
func RunAll(rt Runtime, specs []*Spec) []Result {
	hs := make([]Handle, len(specs))
	for i, s := range specs {
		hs[i] = rt.Submit(s)
	}
	return rt.AwaitAll(hs)
}
