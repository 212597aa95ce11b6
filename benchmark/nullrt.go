package main

import (
	"math"

	"repro/internal/task"
)

// nullRuntime is a zero-latency task.Runtime: a perfect machine with
// unbounded cores, no queueing, no staging, no launcher and no jitter. A
// task finishes exactly Duration virtual seconds after submission. It
// runs no goroutines and no event kernel, so a dispatcher run against it
// costs the dispatcher's own work plus a typed heap push and pop per
// task — the "true dispatcher cost" next to a run on the pilot runtime.
//
// Completion order is deterministic: by finish time, ties by submission
// order. AwaitNext delivers one completion per call, the shape the pilot
// runtime produces under execution jitter, so every completion is one
// dispatcher wakeup.
type nullRuntime struct {
	now   float64
	cores int
	seq   int64
	// watched holds the submitted-and-watched tasks not yet delivered,
	// as a binary min-heap on (finish, seq).
	watched []*nullHandle
}

type nullHandle struct {
	res task.Result
	seq int64
}

func (h *nullHandle) Done() bool          { return true }
func (h *nullHandle) Result() task.Result { return h.res }

func newNullRuntime(cores int) *nullRuntime { return &nullRuntime{cores: cores} }

func (r *nullRuntime) Now() float64 { return r.now }
func (r *nullRuntime) Cores() int   { return r.cores }

func (r *nullRuntime) Submit(s *task.Spec) task.Handle {
	r.seq++
	return &nullHandle{seq: r.seq, res: task.Result{
		Spec: s, Submitted: r.now, Finished: r.now + s.Duration, Exec: s.Duration,
	}}
}

func (r *nullRuntime) SubmitWatched(s *task.Spec) task.Handle {
	h := r.Submit(s).(*nullHandle)
	r.watched = append(r.watched, h)
	r.up(len(r.watched) - 1)
	return h
}

// AwaitNext delivers the earliest watched completion that finishes by
// the deadline, advancing the clock to it; with none, the clock moves to
// the deadline and nil is returned.
func (r *nullRuntime) AwaitNext(deadline float64) []task.Handle {
	if len(r.watched) == 0 || r.watched[0].res.Finished > deadline {
		if math.IsInf(deadline, 1) {
			panic("benchmark: AwaitNext(+Inf) with no watched task outstanding")
		}
		r.advance(deadline)
		return nil
	}
	h := r.watched[0]
	last := len(r.watched) - 1
	r.watched[0] = r.watched[last]
	r.watched[last] = nil
	r.watched = r.watched[:last]
	r.down(0)
	r.advance(h.res.Finished)
	return []task.Handle{h}
}

func (r *nullRuntime) Await(h task.Handle) task.Result {
	res := h.Result()
	r.advance(res.Finished)
	return res
}

func (r *nullRuntime) AwaitAll(hs []task.Handle) []task.Result {
	out := make([]task.Result, len(hs))
	for i, h := range hs {
		out[i] = r.Await(h)
	}
	return out
}

func (r *nullRuntime) Overhead(d float64)   { r.advance(r.now + d) }
func (r *nullRuntime) SleepUntil(t float64) { r.advance(t) }

// advance moves the clock forward to t; it never runs backwards.
func (r *nullRuntime) advance(t float64) {
	if t > r.now {
		r.now = t
	}
}

func (r *nullRuntime) less(i, j int) bool {
	a, b := r.watched[i], r.watched[j]
	if a.res.Finished != b.res.Finished {
		return a.res.Finished < b.res.Finished
	}
	return a.seq < b.seq
}

func (r *nullRuntime) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !r.less(i, parent) {
			return
		}
		r.watched[i], r.watched[parent] = r.watched[parent], r.watched[i]
		i = parent
	}
}

func (r *nullRuntime) down(i int) {
	for {
		child := 2*i + 1
		if child >= len(r.watched) {
			return
		}
		if child+1 < len(r.watched) && r.less(child+1, child) {
			child++
		}
		if !r.less(child, i) {
			return
		}
		r.watched[i], r.watched[child] = r.watched[child], r.watched[i]
		i = child
	}
}

var _ task.Runtime = (*nullRuntime)(nil)
