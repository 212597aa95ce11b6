// Package localexec implements task.Runtime on real goroutines and the
// wall clock. It is used when the MD engine genuinely integrates the
// equations of motion (validation runs and the examples), as opposed to
// the virtual-time pilot backend used for the scaling experiments.
//
// Cores are a budget that tasks wait for in one FIFO queue: a task
// occupying N cores holds N of them, so oversubscription behaviour
// (Execution Mode II) is preserved even in real execution, with the
// admission order of the pilot backend's core pool (sim.Resource).
package localexec

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/slab"
	"repro/internal/task"
)

// Runtime executes tasks on local goroutines. A task waits for cores as
// a handle in a FIFO queue, which is admitted in order while its head
// fits: a task that does not fit blocks the tasks behind it, as in
// sim.Resource. A queued task holds no goroutine. The goroutine that
// ends a task starts the next admitted one itself; only cores freed
// beyond that one start a new goroutine, and a goroutine with nothing
// admitted exits, so an idle runtime holds none.
//
// Starting a goroutine allocates nothing: the admitted handle goes on
// the starting list and the goroutine runs spawn, a func() bound once in
// New, which takes it from there (go r.work(h) would allocate its
// closure). There is no long-lived worker pool: callers build a runtime
// per run and drop it, and a Runtime has no Close, so parked workers
// would outlive it.
//
// Handles are carved from a slab and reused, as task.Runtime's contract
// allows: an unwatched handle once Await returns it, a watched one at
// the AwaitNext after the one that delivered it, and one AwaitBatch
// delivered at the caller's next blocking call. A handle is on at most
// one of three lists, queued, starting or free, linked through its one
// next field. Under the simcheck build tag no handle is reused, and
// reading one past its reuse point panics.
type Runtime struct {
	start time.Time
	cores int
	spawn func() // work, bound once

	// mu guards everything below and every handle's state.
	mu sync.Mutex
	// wake is signalled when the orchestrator's wait is over: the handle
	// it awaits is done, or its stream wait may return. Every wait
	// belongs to the one orchestrator task.Runtime allows, and the alarm
	// signals it too, so each wait rechecks what it waits for.
	wake  sync.Cond
	inUse int
	// head and tail are the tasks waiting for cores, oldest first; tail
	// is stale while head is nil. starting holds admitted tasks no
	// goroutine has taken yet, and free the dead handles.
	head, tail, starting, free *handle
	handles                    slab.Slab[handle]
	// awaiting is the handle an Await waits for; batch is the number of
	// pending completions a stream wait needs, 0 outside one. A task end
	// signals wake only when the wait it names is over.
	awaiting *handle
	batch    int
	// stream holds watched completions not yet delivered, in completion
	// order, and failed marks a failed one among them; delivered is the
	// slice the last delivery returned. The two swap at each delivery.
	// lent marks delivered as AwaitBatch's: its handles die at the next
	// blocking call, not only at the next delivery.
	stream, delivered []task.Handle
	failed, lent      bool
	// alarm wakes a stream wait at its finite deadline: each wait re-arms
	// it, and it signals under mu.
	alarm *time.Timer
}

// New returns a runtime with the given core budget. A non-positive value
// defaults to 1.
func New(cores int) *Runtime {
	if cores <= 0 {
		cores = 1
	}
	r := &Runtime{start: time.Now(), cores: cores}
	r.wake.L = &r.mu
	r.spawn = r.work
	return r
}

// Now returns wall seconds since the runtime was created.
func (r *Runtime) Now() float64 { return time.Since(r.start).Seconds() }

// Cores returns the core budget.
func (r *Runtime) Cores() int { return r.cores }

// handle is one task, queued, running or done; its fields are guarded by
// its runtime's mu, bar spec and cores, which are set before the task
// is queued or started and not written again until it is reused.
type handle struct {
	rt        *Runtime
	spec      *task.Spec
	cores     int
	watched   bool
	submitted float64
	done      bool
	res       task.Result
	next      *handle
	// spare is set once the handle is dead: on the free list, or, under
	// simcheck, poisoned.
	spare bool
}

func (h *handle) Done() bool {
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	h.live()
	return h.done
}

func (h *handle) Result() task.Result {
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	h.live()
	return h.res
}

// live panics, under simcheck, on a handle read past its reuse point;
// called with mu held.
func (h *handle) live() {
	if poison && h.spare {
		panic(fmt.Sprintf("localexec: handle of task %q read past its reuse point", h.spec.Label()))
	}
}

// recycle marks a handle dead and, outside simcheck, puts it on the free
// list; called with mu held.
func (r *Runtime) recycle(h *handle) {
	if h.spare {
		return
	}
	h.spare = true
	if !poison {
		h.next, r.free = r.free, h
	}
}

// reclaim makes the handles of the last delivery dead; called with mu
// held, at every delivery and, after an AwaitBatch, at every blocking
// call.
func (r *Runtime) reclaim() {
	for _, h := range r.delivered {
		r.recycle(h.(*handle))
	}
	r.delivered = r.delivered[:0]
	r.lent = false
}

// Submit queues the task for cores.
func (r *Runtime) Submit(s *task.Spec) task.Handle { return r.submit(s, false) }

// SubmitWatched queues the task and registers it on the completion
// stream for delivery by AwaitNext or AwaitBatch.
func (r *Runtime) SubmitWatched(s *task.Spec) task.Handle { return r.submit(s, true) }

func (r *Runtime) submit(s *task.Spec, watched bool) task.Handle {
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("localexec: invalid task spec: %v", err))
	}
	submitted := r.Now()
	r.mu.Lock()
	h := r.free
	if h != nil {
		r.free = h.next
	} else {
		h = &r.handles.Carve(1, r.cores, 0)[0]
	}
	// Clamp rather than deadlock: a real laptop cannot refuse a 16-core
	// MPI task, it just runs it slower.
	*h = handle{rt: r, spec: s, cores: min(s.Cores, r.cores), watched: watched, submitted: submitted}
	switch {
	case r.head == nil && r.inUse+h.cores <= r.cores:
		r.inUse += h.cores
		r.startOne(h)
	case r.head == nil:
		r.head, r.tail = h, h
	default:
		r.tail.next, r.tail = h, h
	}
	r.mu.Unlock()
	return h
}

// startOne puts h, whose cores are taken, on the starting list and starts
// a goroutine to run it; called with mu held.
func (r *Runtime) startOne(h *handle) {
	h.next, r.starting = r.starting, h
	go r.spawn()
}

// admit takes the queued tasks that fit, in order, stopping at the first
// that does not; called with mu held by a goroutine that just freed
// cores. It returns the first for the caller to run and starts a
// goroutine for each other one.
func (r *Runtime) admit() *handle {
	var next *handle
	for h := r.head; h != nil && r.inUse+h.cores <= r.cores; h = r.head {
		r.inUse += h.cores
		r.head = h.next
		if next == nil {
			next = h
		} else {
			r.startOne(h)
		}
	}
	return next
}

// work takes a task from the starting list and runs it, then every task
// its freed cores admit first, and exits when they admit none.
func (r *Runtime) work() {
	r.mu.Lock()
	h := r.starting
	r.starting = h.next
	for h != nil {
		r.mu.Unlock()
		s := h.spec
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
		r.inUse -= h.cores
		h.done = true
		h.res = task.Result{
			Spec:      s,
			Submitted: h.submitted,
			Finished:  execEnd,
			CoreWait:  execStart - h.submitted,
			Exec:      execEnd - execStart,
			Err:       err,
		}
		r.finished(h)
		h = r.admit()
	}
	r.mu.Unlock()
}

// finished queues a watched completion for delivery and signals the
// orchestrator if its wait is over; called with mu held.
func (r *Runtime) finished(h *handle) {
	if h.watched {
		r.stream = append(r.stream, h)
		r.failed = r.failed || h.res.Err != nil
		if r.batch > 0 && (len(r.stream) >= r.batch || r.failed) {
			r.batch = 0
			r.wake.Signal()
		}
	}
	if h == r.awaiting {
		r.awaiting = nil
		r.wake.Signal()
	}
}

// Await blocks until the task finishes.
func (r *Runtime) Await(h task.Handle) task.Result {
	hh := h.(*handle)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lent {
		r.reclaim()
	}
	hh.live()
	for !hh.done {
		r.awaiting = hh
		r.wake.Wait()
	}
	if !hh.watched {
		// A watched handle is still due on the stream; its delivery frees it.
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
	return r.awaitStream(1, deadline, false)
}

// AwaitBatch is AwaitNext that returns once n watched completions are
// pending delivery (task.BatchAwaiter), or earlier at a failed one,
// which the caller may relaunch then, or at the deadline. Its handles
// die at the runtime's next blocking call (this one, AwaitNext, Await,
// AwaitAll, Overhead or SleepUntil).
func (r *Runtime) AwaitBatch(n int, deadline float64) []task.Handle {
	return r.awaitStream(max(n, 1), deadline, true)
}

// awaitStream waits until n watched completions, or a failed one, are
// pending or the deadline passes, and delivers what is pending; lend
// marks the delivery as AwaitBatch's.
func (r *Runtime) awaitStream(n int, deadline float64, lend bool) []task.Handle {
	r.mu.Lock()
	defer r.mu.Unlock()
	// The handles the last delivery returned are dead now.
	r.reclaim()
	// The stream fills to n here: room for all of it at once, not a
	// doubling at a time.
	r.stream = slices.Grow(r.stream, max(n-len(r.stream), 0))
	for len(r.stream) < n && !r.failed {
		if !math.IsInf(deadline, 1) {
			remain := deadline - r.Now()
			if remain <= 0 {
				break
			}
			r.ring(time.Duration(remain * float64(time.Second)))
		}
		r.batch = n
		r.wake.Wait()
	}
	r.batch = 0
	if len(r.stream) == 0 {
		return nil
	}
	r.failed, r.lent = false, lend
	r.stream, r.delivered = r.delivered, r.stream
	if cap(r.stream) < cap(r.delivered) {
		// The buffer swapped in gets the room the other one needed.
		r.stream = make([]task.Handle, 0, cap(r.delivered))
	}
	return r.delivered
}

// ring arms the alarm to signal after d; called with mu held. The
// callback takes mu too, so its signal cannot fall between arming the
// alarm and waiting.
func (r *Runtime) ring(d time.Duration) {
	if r.alarm == nil {
		r.alarm = time.AfterFunc(d, func() {
			r.mu.Lock()
			r.wake.Signal()
			r.mu.Unlock()
		})
		return
	}
	r.alarm.Reset(d)
}

// SleepUntil blocks until the wall clock reaches runtime second t.
func (r *Runtime) SleepUntil(t float64) {
	r.Overhead(0)
	if d := t - r.Now(); d > 0 {
		time.Sleep(time.Duration(d * float64(time.Second)))
	}
}

// Overhead sleeps for nothing: a wall-clock runtime's client-side
// overhead is already on its clock. Like every blocking call it ends
// the life of an AwaitBatch's handles.
func (r *Runtime) Overhead(float64) {
	r.mu.Lock()
	if r.lent {
		r.reclaim()
	}
	r.mu.Unlock()
}

var (
	_ task.Runtime      = (*Runtime)(nil)
	_ task.BatchAwaiter = (*Runtime)(nil)
)
