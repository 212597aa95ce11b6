package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/md"
	"repro/internal/task"
)

// This file holds the benchmark-owned decorators of the traced pass.
// Each wraps one of the interfaces the core is written against —
// task.Runtime, core.Engine, core.Trigger — forwards every call to the
// real implementation and charges the wall time of the call to its
// layer. The program itself is not touched.
//
// Attribution rests on one property of the code under test: the
// dispatcher is a single goroutine and the virtual-time substrate is
// cooperative, so while the dispatcher is inside a task.Runtime call the
// only code running is sim + cluster + pilot (or, on localexec, the
// worker goroutines). Wall time inside Runtime calls therefore is the
// substrate's time, and what is left of the core span after the runtime,
// engine, trigger and snapshot-hook children is the core's self time.
//
// The decorators forward the optional interfaces the core type-asserts
// (task.ResourceReporter, core.ReplayableEngine, the trigger's Validate,
// LatencyObserver, ExchangeObserver and StatefulTrigger) so a wrapped
// run is bit-identical to a plain one. Two assertions on concrete types
// cannot be forwarded from outside: the dispatcher's *FeedbackTrigger
// check (controller trace spans, ladder respacing) sees the wrapper
// instead, so a traced feedback run records no controller spans and
// never respaces. No benchmark workload uses either.

// layerClock accumulates the wall time and number of calls spent inside
// one layer. Atomic because CrossEnergy runs on the exchange worker
// pool and task bodies on localexec goroutines.
type layerClock struct {
	ns    atomic.Int64
	calls atomic.Int64
}

func (c *layerClock) seconds() float64 { return time.Duration(c.ns.Load()).Seconds() }

// span is one recorded call: which layer boundary, on which track, when.
type span struct {
	name       string
	track      int
	start, dur time.Duration
}

// Tracks of the exported trace. Calls on the dispatcher goroutine nest
// by containment on trackCore; calls that can run concurrently get
// their own track.
const (
	trackUnit    = 0 // the repetition and its harness-side steps
	trackCore    = 1 // core span and its runtime/engine/trigger children
	trackWorkers = 2 // task bodies and cross energies off the dispatcher
	trackClient0 = 3 // HTTP client i is trackClient0+i
)

// spanLog keeps the spans of one repetition in memory until the
// benchmark ends. It is bounded: spans past the capacity are counted,
// not kept.
type spanLog struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

// spanLogCapacity bounds one repetition's span log (~12 MB when full).
const spanLogCapacity = 1 << 18

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(name string, track int, start time.Time, dur time.Duration) {
	l.mu.Lock()
	if len(l.spans) < spanLogCapacity {
		l.spans = append(l.spans, span{name: name, track: track, start: start.Sub(l.t0), dur: dur})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// tracer is the per-repetition sink of the decorators.
type tracer struct {
	runtime  layerClock // task.Runtime calls on the dispatcher goroutine
	engine   layerClock // core.Engine calls on the dispatcher goroutine
	cross    layerClock // Engine.CrossEnergy, possibly on exchange workers
	trigger  layerClock // core.Trigger calls
	taskRun  layerClock // task.Spec.Run bodies (real MD) on runtime workers
	callback layerClock // the benchmark's OnSnapshot hook, inside the core span
	mdSteps  atomic.Int64
	// log, when non-nil, additionally records every call as a span.
	log *spanLog
}

// done charges the call that started at t0 to clock c.
func (t *tracer) done(c *layerClock, name string, track int, t0 time.Time) {
	d := time.Since(t0)
	c.ns.Add(int64(d))
	c.calls.Add(1)
	if t.log != nil {
		t.log.add(name, track, t0, d)
	}
}

// note records a harness-side span (no layer clock).
func (t *tracer) note(name string, track int, t0 time.Time) {
	if t != nil && t.log != nil {
		t.log.add(name, track, t0, time.Since(t0))
	}
}

// ---------------------------------------------------------------------------
// task.Runtime

// tracedRuntime forwards to rt, timing every call that can do work.
// Handles pass through unwrapped: both backends type-assert their own
// handle type in Await.
type tracedRuntime struct {
	rt task.Runtime
	tr *tracer
}

func traceRuntime(rt task.Runtime, tr *tracer) task.Runtime {
	return &tracedRuntime{rt: rt, tr: tr}
}

// Now and Cores are field reads in both backends and are called several
// times per completion; timing them would cost more than they do.
func (r *tracedRuntime) Now() float64 { return r.rt.Now() }
func (r *tracedRuntime) Cores() int   { return r.rt.Cores() }

func (r *tracedRuntime) Submit(s *task.Spec) task.Handle {
	defer r.tr.done(&r.tr.runtime, "rt.Submit", trackCore, time.Now())
	return r.rt.Submit(s)
}

func (r *tracedRuntime) SubmitWatched(s *task.Spec) task.Handle {
	defer r.tr.done(&r.tr.runtime, "rt.SubmitWatched", trackCore, time.Now())
	return r.rt.SubmitWatched(s)
}

func (r *tracedRuntime) AwaitNext(deadline float64) []task.Handle {
	defer r.tr.done(&r.tr.runtime, "rt.AwaitNext", trackCore, time.Now())
	return r.rt.AwaitNext(deadline)
}

func (r *tracedRuntime) Await(h task.Handle) task.Result {
	defer r.tr.done(&r.tr.runtime, "rt.Await", trackCore, time.Now())
	return r.rt.Await(h)
}

func (r *tracedRuntime) AwaitAll(hs []task.Handle) []task.Result {
	defer r.tr.done(&r.tr.runtime, "rt.AwaitAll", trackCore, time.Now())
	return r.rt.AwaitAll(hs)
}

func (r *tracedRuntime) Overhead(d float64) {
	defer r.tr.done(&r.tr.runtime, "rt.Overhead", trackCore, time.Now())
	r.rt.Overhead(d)
}

func (r *tracedRuntime) SleepUntil(t float64) {
	defer r.tr.done(&r.tr.runtime, "rt.SleepUntil", trackCore, time.Now())
	r.rt.SleepUntil(t)
}

// DrainResourceEvents forwards task.ResourceReporter; a runtime without
// it reports no events, which is what the core does on its own.
func (r *tracedRuntime) DrainResourceEvents() []task.ResourceEvent {
	rr, ok := r.rt.(task.ResourceReporter)
	if !ok {
		return nil
	}
	defer r.tr.done(&r.tr.runtime, "rt.DrainResourceEvents", trackCore, time.Now())
	return rr.DrainResourceEvents()
}

var (
	_ task.Runtime          = (*tracedRuntime)(nil)
	_ task.ResourceReporter = (*tracedRuntime)(nil)
)

// ---------------------------------------------------------------------------
// core.Engine

// tracedEngine forwards to eng. Task bodies (task.Spec.Run, real MD) are
// wrapped too, so the time the runtime's workers spend integrating is
// visible next to the time the dispatcher spends waiting for them.
type tracedEngine struct {
	eng core.Engine
	tr  *tracer
}

// tracedReplayableEngine adds core.ReplayableEngine for engines that
// have it; a snapshot records EngineDraws -1 for the others, so the
// wrapper must not grow the interface on its own.
type tracedReplayableEngine struct {
	tracedEngine
	re core.ReplayableEngine
}

func traceEngine(eng core.Engine, tr *tracer) core.Engine {
	te := tracedEngine{eng: eng, tr: tr}
	if re, ok := eng.(core.ReplayableEngine); ok {
		return &tracedReplayableEngine{tracedEngine: te, re: re}
	}
	return &te
}

func (e *tracedEngine) Name() string { return e.eng.Name() }

func (e *tracedEngine) InitReplica(r *core.Replica, s *core.Spec) {
	defer e.tr.done(&e.tr.engine, "engine.InitReplica", trackCore, time.Now())
	e.eng.InitReplica(r, s)
}

func (e *tracedEngine) MDTask(r *core.Replica, s *core.Spec, dim int) *task.Spec {
	defer e.tr.done(&e.tr.engine, "engine.MDTask", trackCore, time.Now())
	ts := e.eng.MDTask(r, s, dim)
	if run := ts.Run; run != nil {
		steps := int64(s.StepsPerCycle)
		ts.Run = func() error {
			defer e.tr.done(&e.tr.taskRun, "md.task_run", trackWorkers, time.Now())
			e.tr.mdSteps.Add(steps)
			return run()
		}
	}
	return ts
}

func (e *tracedEngine) ExchangeTask(dim, totalReplicas int, s *core.Spec) *task.Spec {
	defer e.tr.done(&e.tr.engine, "engine.ExchangeTask", trackCore, time.Now())
	return e.eng.ExchangeTask(dim, totalReplicas, s)
}

func (e *tracedEngine) SinglePointTasks(dim int, group []*core.Replica, s *core.Spec) []*task.Spec {
	defer e.tr.done(&e.tr.engine, "engine.SinglePointTasks", trackCore, time.Now())
	return e.eng.SinglePointTasks(dim, group, s)
}

func (e *tracedEngine) OwnEnergy(r *core.Replica) float64 {
	defer e.tr.done(&e.tr.engine, "engine.OwnEnergy", trackCore, time.Now())
	return e.eng.OwnEnergy(r)
}

// CrossEnergy has its own clock: the core may call it from the exchange
// worker pool, where its time overlaps itself and is part of the core's
// pair-evaluation phase rather than a child on the dispatcher goroutine.
func (e *tracedEngine) CrossEnergy(r *core.Replica, under md.Params) float64 {
	defer e.tr.done(&e.tr.cross, "engine.CrossEnergy", trackWorkers, time.Now())
	return e.eng.CrossEnergy(r, under)
}

func (e *tracedEngine) TorsionIndex(label string) int { return e.eng.TorsionIndex(label) }

func (e *tracedEngine) PrepOverhead(nTasks, ndims int) float64 {
	defer e.tr.done(&e.tr.engine, "engine.PrepOverhead", trackCore, time.Now())
	return e.eng.PrepOverhead(nTasks, ndims)
}

func (e *tracedReplayableEngine) RNGDraws() int64 { return e.re.RNGDraws() }

func (e *tracedReplayableEngine) ReplayRNG(n int64) {
	defer e.tr.done(&e.tr.engine, "engine.ReplayRNG", trackCore, time.Now())
	e.re.ReplayRNG(n)
}

var (
	_ core.Engine           = (*tracedEngine)(nil)
	_ core.ReplayableEngine = (*tracedReplayableEngine)(nil)
)

// ---------------------------------------------------------------------------
// core.Trigger

// tracedTrigger forwards to inner. The optional interfaces whose absence
// the core treats exactly like a no-op implementation (Validate,
// LatencyObserver, StatefulTrigger with empty state) are always present
// and fall back to that no-op.
type tracedTrigger struct {
	inner core.Trigger
	tr    *tracer
}

// tracedObservingTrigger adds core.ExchangeObserver for closed-loop
// policies. It is a separate type because an observer makes the core
// collect per-pair outcomes on every exchange, which would perturb the
// policies that do not observe.
type tracedObservingTrigger struct {
	tracedTrigger
	obs core.ExchangeObserver
}

func traceTrigger(inner core.Trigger, tr *tracer) core.Trigger {
	tt := tracedTrigger{inner: inner, tr: tr}
	if obs, ok := inner.(core.ExchangeObserver); ok {
		return &tracedObservingTrigger{tracedTrigger: tt, obs: obs}
	}
	return &tt
}

func (t *tracedTrigger) Name() string  { return t.inner.Name() }
func (t *tracedTrigger) Aligned() bool { return t.inner.Aligned() }

func (t *tracedTrigger) Deadline(st core.TriggerState) float64 {
	defer t.tr.done(&t.tr.trigger, "trigger.Deadline", trackCore, time.Now())
	return t.inner.Deadline(st)
}

func (t *tracedTrigger) Decide(st core.TriggerState) core.TriggerDecision {
	defer t.tr.done(&t.tr.trigger, "trigger.Decide", trackCore, time.Now())
	return t.inner.Decide(st)
}

func (t *tracedTrigger) Observe(res task.Result) {
	defer t.tr.done(&t.tr.trigger, "trigger.Observe", trackCore, time.Now())
	t.inner.Observe(res)
}

func (t *tracedTrigger) Reset(st core.TriggerState) {
	defer t.tr.done(&t.tr.trigger, "trigger.Reset", trackCore, time.Now())
	t.inner.Reset(st)
}

func (t *tracedTrigger) Validate() error {
	if v, ok := t.inner.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

func (t *tracedTrigger) ObserveLatency(latency float64) {
	if lo, ok := t.inner.(core.LatencyObserver); ok {
		defer t.tr.done(&t.tr.trigger, "trigger.ObserveLatency", trackCore, time.Now())
		lo.ObserveLatency(latency)
	}
}

func (t *tracedTrigger) EncodeState() ([]byte, error) {
	if st, ok := t.inner.(core.StatefulTrigger); ok {
		defer t.tr.done(&t.tr.trigger, "trigger.EncodeState", trackCore, time.Now())
		return st.EncodeState()
	}
	return nil, nil
}

func (t *tracedTrigger) RestoreState(data []byte) error {
	if st, ok := t.inner.(core.StatefulTrigger); ok {
		defer t.tr.done(&t.tr.trigger, "trigger.RestoreState", trackCore, time.Now())
		return st.RestoreState(data)
	}
	// Same refusal the core gives a policy without the interface.
	return fmt.Errorf("benchmark: trigger %q cannot restore snapshot state", t.inner.Name())
}

func (t *tracedObservingTrigger) ObserveExchange(ev core.ExchangeEvent) {
	defer t.tr.done(&t.tr.trigger, "trigger.ObserveExchange", trackCore, time.Now())
	t.obs.ObserveExchange(ev)
}

var (
	_ core.StatefulTrigger  = (*tracedTrigger)(nil)
	_ core.LatencyObserver  = (*tracedTrigger)(nil)
	_ core.ExchangeObserver = (*tracedObservingTrigger)(nil)
)
