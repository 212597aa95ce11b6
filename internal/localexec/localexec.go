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

	// mu guards the cores in use, every handle's outcome, the completion
	// stream, the free handles and the alarm. cond is broadcast when a
	// task ends and when the alarm rings; core, Await and AwaitNext
	// waiters all wait on it.
	mu    sync.Mutex
	cond  sync.Cond
	inUse int
	// stream holds watched completions not yet delivered by AwaitNext,
	// in completion order; delivered is the slice the last AwaitNext
	// returned. The two swap at each delivery.
	stream, delivered []task.Handle
	// free holds dead handles for the next submissions.
	free []*handle
	// alarm wakes an AwaitNext at its finite deadline: each wait re-arms
	// it, and it broadcasts under mu.
	alarm *time.Timer
}

// New returns a runtime with the given core budget. A non-positive value
// defaults to 1.
func New(cores int) *Runtime {
	if cores <= 0 {
		cores = 1
	}
	r := &Runtime{start: time.Now(), cores: cores}
	r.cond.L = &r.mu
	return r
}

// Now returns wall seconds since the runtime was created.
func (r *Runtime) Now() float64 { return time.Since(r.start).Seconds() }

// Cores returns the core budget.
func (r *Runtime) Cores() int { return r.cores }

// handle is a task's outcome, guarded by its runtime's mu.
type handle struct {
	rt      *Runtime
	done    bool
	res     task.Result
	watched bool
	// spare is set while the handle is on the free list.
	spare bool
}

func (h *handle) Done() bool {
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	return h.done
}

func (h *handle) Result() task.Result {
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	return h.res
}

// recycle puts a dead handle on the free list; called with mu held.
func (r *Runtime) recycle(h *handle) {
	if !h.spare {
		h.spare = true
		r.free = append(r.free, h)
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
	// Clamp rather than deadlock: a real laptop cannot refuse a 16-core
	// MPI task, it just runs it slower.
	cores := min(s.Cores, r.cores)
	r.mu.Lock()
	var h *handle
	if n := len(r.free); n > 0 {
		h, r.free = r.free[n-1], r.free[:n-1]
	} else {
		h = new(handle)
	}
	*h = handle{rt: r, watched: watched}
	r.mu.Unlock()
	submitted := r.Now()
	go func() {
		r.mu.Lock()
		for r.inUse+cores > r.cores {
			r.cond.Wait()
		}
		r.inUse += cores
		r.mu.Unlock()
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
		r.mu.Lock()
		r.inUse -= cores
		h.done = true
		h.res = task.Result{
			Spec:      s,
			Submitted: submitted,
			Finished:  execEnd,
			CoreWait:  execStart - submitted,
			Exec:      execEnd - execStart,
			Err:       err,
		}
		if watched {
			r.stream = append(r.stream, h)
		}
		r.cond.Broadcast()
		r.mu.Unlock()
	}()
	return h
}

// Await blocks until the task finishes.
func (r *Runtime) Await(h task.Handle) task.Result {
	hh := h.(*handle)
	r.mu.Lock()
	defer r.mu.Unlock()
	for !hh.done {
		r.cond.Wait()
	}
	if !hh.watched {
		// A watched handle is still due on the stream; AwaitNext frees it.
		r.recycle(hh)
	}
	return hh.res
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
	r.mu.Lock()
	defer r.mu.Unlock()
	// The handles the last call delivered are dead now.
	for _, h := range r.delivered {
		r.recycle(h.(*handle))
	}
	r.delivered = r.delivered[:0]
	for len(r.stream) == 0 {
		if !math.IsInf(deadline, 1) {
			remain := deadline - r.Now()
			if remain <= 0 {
				return nil
			}
			r.ring(time.Duration(remain * float64(time.Second)))
		}
		r.cond.Wait()
	}
	r.stream, r.delivered = r.delivered, r.stream
	return r.delivered
}

// ring arms the alarm to broadcast after d; called with mu held. The
// callback takes mu too, so its broadcast cannot fall between arming the
// alarm and waiting.
func (r *Runtime) ring(d time.Duration) {
	if r.alarm == nil {
		r.alarm = time.AfterFunc(d, func() {
			r.mu.Lock()
			r.cond.Broadcast()
			r.mu.Unlock()
		})
		return
	}
	r.alarm.Reset(d)
}

// SleepUntil blocks until the wall clock reaches runtime second t.
func (r *Runtime) SleepUntil(t float64) {
	if d := t - r.Now(); d > 0 {
		time.Sleep(time.Duration(d * float64(time.Second)))
	}
}

// Overhead does nothing: a wall-clock runtime's client-side overhead is
// already on its clock, so it neither sleeps nor records it.
func (r *Runtime) Overhead(float64) {}

var _ task.Runtime = (*Runtime)(nil)
