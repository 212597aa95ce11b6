// Package localexec implements task.Runtime on real goroutines and the
// wall clock. It is used when the MD engine genuinely integrates the
// equations of motion (validation runs and the examples), as opposed to
// the virtual-time pilot backend used for the scaling experiments.
//
// Cores are modelled as a weighted semaphore: a task occupying N cores
// holds N slots, so oversubscription behaviour (Execution Mode II) is
// preserved even in real execution.
package localexec

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/task"
)

// Runtime executes tasks on local goroutines, one a task. Handles are
// reused, as task.Runtime's contract allows: an unwatched handle once
// Await returns it, a watched one at the AwaitNext after the one that
// delivered it. The goroutine is the one allocation a task costs.
type Runtime struct {
	start time.Time
	cores int

	mu    sync.Mutex
	cond  *sync.Cond
	inUse int

	// notify wakes the AwaitNext waiter on any task completion.
	notifyCh chan struct{}

	// streamMu guards the completion stream and the free handles.
	streamMu sync.Mutex
	// stream holds watched completions not yet delivered by AwaitNext,
	// in completion order; delivered is the slice the last AwaitNext
	// returned. The two swap at each delivery.
	stream, delivered []task.Handle
	// free holds dead handles for the next submissions.
	free []*handle

	overhead float64
}

// New returns a runtime with the given core budget. A non-positive value
// defaults to 1.
func New(cores int) *Runtime {
	if cores <= 0 {
		cores = 1
	}
	r := &Runtime{start: time.Now(), cores: cores, notifyCh: make(chan struct{}, 1)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Now returns wall seconds since the runtime was created.
func (r *Runtime) Now() float64 { return time.Since(r.start).Seconds() }

// Cores returns the core budget.
func (r *Runtime) Cores() int { return r.cores }

type handle struct {
	mu   sync.Mutex
	done bool
	res  task.Result
	// ch holds one token once the task is done.
	ch      chan struct{}
	watched bool
	// spare is set while the handle is on the free list (under streamMu).
	spare bool
}

func (h *handle) Done() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.done
}

func (h *handle) Result() task.Result {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res
}

func (h *handle) complete(res task.Result) {
	h.mu.Lock()
	h.done = true
	h.res = res
	h.mu.Unlock()
	h.ch <- struct{}{}
}

// newHandle takes a dead handle off the free list, or makes one.
func (r *Runtime) newHandle(watched bool) *handle {
	r.streamMu.Lock()
	defer r.streamMu.Unlock()
	n := len(r.free)
	if n == 0 {
		return &handle{ch: make(chan struct{}, 1), watched: watched}
	}
	h := r.free[n-1]
	r.free = r.free[:n-1]
	select {
	case <-h.ch:
	default:
	}
	h.mu.Lock()
	h.done, h.res = false, task.Result{}
	h.mu.Unlock()
	h.watched, h.spare = watched, false
	return h
}

// recycle puts a dead handle on the free list; called with streamMu held.
func (r *Runtime) recycle(h *handle) {
	if !h.spare {
		h.spare = true
		r.free = append(r.free, h)
	}
}

// acquire takes n core slots, blocking while the pool is exhausted.
func (r *Runtime) acquire(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.inUse+n > r.cores {
		r.cond.Wait()
	}
	r.inUse += n
}

func (r *Runtime) release(n int) {
	r.mu.Lock()
	r.inUse -= n
	r.mu.Unlock()
	r.cond.Broadcast()
}

// poke wakes the AwaitNext waiter.
func (r *Runtime) poke() {
	select {
	case r.notifyCh <- struct{}{}:
	default:
	}
}

// Submit starts the task as soon as cores are available.
func (r *Runtime) Submit(s *task.Spec) task.Handle { return r.submit(s, false) }

// SubmitWatched starts the task and registers it on the completion
// stream for delivery by AwaitNext.
func (r *Runtime) SubmitWatched(s *task.Spec) task.Handle { return r.submit(s, true) }

func (r *Runtime) submit(s *task.Spec, watched bool) task.Handle {
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("localexec: invalid task spec: %v", err))
	}
	cores := s.Cores
	if cores > r.cores {
		// Clamp rather than deadlock: a real laptop cannot refuse a
		// 16-core MPI task, it just runs it slower.
		cores = r.cores
	}
	h := r.newHandle(watched)
	submitted := r.Now()
	go func() {
		r.acquire(cores)
		execStart := r.Now()
		var err error
		if s.Run != nil {
			err = s.Run()
		} else if s.Duration > 0 {
			// No real work attached: emulate the duration so that
			// pattern logic (barriers, windows) still behaves.
			time.Sleep(time.Duration(s.Duration * float64(time.Second)))
		}
		execEnd := r.Now()
		r.release(cores)
		h.complete(task.Result{
			Spec:      s,
			Submitted: submitted,
			Finished:  execEnd,
			CoreWait:  execStart - submitted,
			Exec:      execEnd - execStart,
			Err:       err,
		})
		if watched {
			r.streamMu.Lock()
			r.stream = append(r.stream, h)
			r.streamMu.Unlock()
		}
		r.poke()
	}()
	return h
}

// Await blocks until the task finishes.
func (r *Runtime) Await(h task.Handle) task.Result {
	hh := h.(*handle)
	<-hh.ch
	hh.ch <- struct{}{}
	res := hh.Result()
	if !hh.watched {
		// A watched handle is still due on the stream; AwaitNext frees it.
		r.streamMu.Lock()
		r.recycle(hh)
		r.streamMu.Unlock()
	}
	return res
}

// AwaitAll blocks until every handle finishes.
func (r *Runtime) AwaitAll(hs []task.Handle) []task.Result {
	res := make([]task.Result, len(hs))
	for i, h := range hs {
		res[i] = r.Await(h)
	}
	return res
}

// AwaitNext blocks until at least one watched completion is pending
// delivery or the absolute deadline (in runtime seconds) passes, and
// drains the stream in completion order.
func (r *Runtime) AwaitNext(deadline float64) []task.Handle {
	r.streamMu.Lock()
	// The handles the last call delivered are dead now.
	for _, h := range r.delivered {
		r.recycle(h.(*handle))
	}
	r.delivered = r.delivered[:0]
	r.streamMu.Unlock()
	for {
		r.streamMu.Lock()
		if len(r.stream) > 0 {
			r.stream, r.delivered = r.delivered, r.stream
			out := r.delivered
			r.streamMu.Unlock()
			return out
		}
		r.streamMu.Unlock()
		if math.IsInf(deadline, 1) {
			<-r.notifyCh
			continue
		}
		remain := deadline - r.Now()
		if remain <= 0 {
			return nil
		}
		timer := time.NewTimer(time.Duration(remain * float64(time.Second)))
		select {
		case <-r.notifyCh:
			timer.Stop()
		case <-timer.C:
			// Deadline hit: one final drain attempt happens at the top of
			// the loop before the remain <= 0 return.
		}
	}
}

// SleepUntil blocks until the wall clock reaches runtime second t.
func (r *Runtime) SleepUntil(t float64) {
	if d := t - r.Now(); d > 0 {
		time.Sleep(time.Duration(d * float64(time.Second)))
	}
}

// Overhead records client-side overhead; it does not sleep in wall time.
func (r *Runtime) Overhead(d float64) {
	if d > 0 {
		r.overhead += d
	}
}

// OverheadTotal returns accumulated client-side overhead.
func (r *Runtime) OverheadTotal() float64 { return r.overhead }

var _ task.Runtime = (*Runtime)(nil)
