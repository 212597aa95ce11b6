// Package sim provides a deterministic discrete-event simulation (DES)
// kernel with a virtual clock, cooperative processes, counting resources
// and condition signals.
//
// The kernel is the substrate on which the HPC cluster model
// (internal/cluster) and the pilot-job runtime (internal/pilot) execute in
// virtual time, so that experiments involving thousands of CPU cores and
// hours of wall time run in milliseconds while preserving ordering,
// contention and queueing behaviour.
//
// There is one kernel, one Proc type and one event queue, and two ways to
// drive a Proc:
//
//   - A goroutine process (Env.Go, Env.GoAt) runs ordinary blocking code:
//     Sleep, Signal.Wait, Resource.Acquire, Completion.Await park the
//     process. The body is a coroutine of the goroutine that runs the
//     kernel (iter.Pull; see goProc, which falls back to a goroutine
//     behind a channel pair on a toolchain before go1.23), so at any
//     instant either the kernel or exactly one process is active, and a
//     panic in a body surfaces from Env.Run. A parked process runs the
//     kernel's loop itself (Proc.Park): it steps stepped processes inline
//     and returns from Park at its own wakeup, so the only switches are
//     from one goroutine process to another, two coroutine switches on
//     one thread through RunUntil. Use it for the one long-lived
//     process whose logic reads best as straight-line code (a run's
//     orchestrator) and for user code.
//
//   - A stepped process (Env.Spawn, Env.Start) has no goroutine: the
//     loop calls its Stepper inline on every wakeup, and the stepper
//     registers its next wakeup with the non-blocking forms (Proc.WakeIn,
//     Delay.Wake, Delay.WakeAt, Signal.Enrol, Completion.Enrol,
//     Resource.Request), reads the outcome flags (Proc.Notified, Granted,
//     Aborted) on the wakeup after, and ends with Proc.Exit. Start takes
//     the first step at once, Spawn queues it for now. The Proc lives in
//     caller-owned storage, so a process and all its state are one
//     allocation. Use it for everything below the orchestrator (a
//     compute unit, a pilot's bootstrap and timers, a fault driver); a
//     wakeup is a method call.
//
// The blocking forms are "register with the non-blocking form, then park
// until flagged", so queueing, grant, abort and broadcast logic exists
// once and both kinds of process contend on the same FIFO queues. Event
// order is (t, seq) with seq drawn in schedule-call order; a stepped
// process makes the same calls in the same order as the blocking code it
// replaces, which makes a simulation fully deterministic for a fixed seed
// and spawn order whichever way its processes are driven. Behind its one
// exit (Env.next) the queue is a heap plus FIFOs for the wakeups that are
// scheduled already sorted, those for the current instant and those of
// each fixed-length Delay: the order is the single heap's, the cost is not.
package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Env is a discrete-event simulation environment. The zero value is not
// usable; create one with NewEnv.
type Env struct {
	now    float64
	events []event // binary min-heap on (t, seq) of events scheduled for later than now
	// lane holds the events scheduled for the current instant, in seq
	// order; each would have been pushed as the heap's minimum. Every
	// entry is at now: the clock moves only while the lane is empty.
	lane fifo[event]
	// delays holds the fixed-length sleep queues (see Delay). It never
	// grows past the capacity NewEnv gives it: callers point into it.
	// delayRoom is what is left of the block their first arrays are cut
	// from.
	delays    []Delay
	delayRoom []event
	seq       int64
	// slots maps event.slot to the live process occupying it. Events name
	// their process by slot, not by pointer, so the heap holds no pointers:
	// sifting it costs no GC write barriers and the collector never scans
	// it. free lists vacated slots for reuse.
	slots []slot
	free  []int32
	nlive int
	// room is the number of live processes the kernel has room for
	// (Reserve): a queue that outgrows its array grows to it at once.
	room  int
	trace func(t float64, msg string)
	// limit is the bound of the RunUntil in progress (-Inf while none is),
	// up to which a parked goroutine process drives the queue itself. due
	// is the goroutine process it popped and handed back to RunUntil to
	// resume; nil outside that hand-over.
	limit float64
	due   *Proc
	// check checks the kernel's invariants under the simcheck build tag;
	// it is empty otherwise.
	check checker
}

// NewEnv returns a fresh simulation environment with the clock at zero.
func NewEnv() *Env {
	return &Env{delays: make([]Delay, 0, maxDelays), limit: math.Inf(-1)}
}

// Now returns the current virtual time in seconds.
func (e *Env) Now() float64 { return e.now }

// SetTrace installs a trace hook invoked on process wakeups; nil disables.
func (e *Env) SetTrace(fn func(t float64, msg string)) { e.trace = fn }

// Stepper is the body of a stepped process: the kernel calls Step inline
// on every wakeup of the process, starting with the one at spawn time.
// Step must not call a blocking form; it registers the next wakeup with a
// non-blocking one and returns, or calls Proc.Exit.
type Stepper interface {
	Step(p *Proc)
	// ProcName names the process for Proc.Name and the trace hook. It is
	// called lazily, so a stepper may build the string on demand.
	ProcName() string
}

// Proc is a cooperative simulation process, driven either by a goroutine
// (Env.Go: the blocking methods must be called from the goroutine running
// the process body) or by a Stepper (Env.Spawn: non-blocking forms only).
type Proc struct {
	env *Env
	// g is the goroutine process this Proc is part of; nil for a stepped
	// one, which its stepper names. A stepped process lives inside its
	// stepper (a compute unit, say), so what only goroutine processes use
	// stays out of it.
	g       *goProc
	stepper Stepper
	// gen is the wakeup generation; events scheduled for an earlier
	// generation are stale and are dropped by the kernel. This is what
	// lets a process wait on "signal OR timeout" without double-resume.
	gen  int64
	slot int32
	dead bool
	// Outcome flags of the wait the process last registered. A process
	// waits on one thing at a time, so one set per process suffices.
	notified, granted, aborted bool
}

// goProc is a goroutine process: its Proc, its name and body, and the
// coroutine that runs the body, one allocation. The switches between the
// body and the kernel are its methods (handoff_coro.go; handoff_chan.go
// before go1.23): the kernel calls resume, the body calls park, and
// Env.Close calls stop.
type goProc struct {
	Proc
	name string
	fn   func(*Proc)
	coroutine
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string {
	if p.stepper != nil {
		return p.stepper.ProcName()
	}
	return p.g.name
}

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.env.now }

// Notified reports whether the signal or completion the process last
// enrolled on had fired by the time it woke (false: its timeout did).
func (p *Proc) Notified() bool { return p.notified }

// Granted reports whether the process's last Resource.Request holds its
// units.
func (p *Proc) Granted() bool { return p.granted }

// Aborted reports whether the process's last abortable Resource.Request
// was refused: wider than the capacity at request time or after a shrink.
func (p *Proc) Aborted() bool { return p.aborted }

type event struct {
	t    float64
	seq  int64
	gen  int64
	slot int32
}

// slot is one entry of the process table. gen outlives the occupant: a
// process moving in starts above every generation its predecessors used,
// so their leftover events can never match it.
type slot struct {
	p   *Proc
	gen int64
}

func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// up places ev at h[i], a hole, after moving it towards the root past
// every ancestor it sorts before.
func up(h []event, i int, ev event) {
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// push inserts ev into the heap.
func (e *Env) push(ev event) {
	e.events = append(e.events, ev)
	up(e.events, len(e.events)-1, ev)
}

// pop removes and returns the heap's earliest event; the heap must be
// non-empty. The hole at the root walks down to a leaf along the smaller
// child (one compare a level), and the displaced last element sifts up
// from there: it came from the bottom, so it rarely moves far.
func (e *Env) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.events = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		h[i] = h[c]
		i = c
	}
	up(h, i, last)
	return top
}

// schedule arranges for p to be resumed at time t with its current
// generation. Stale events (generation mismatch at pop time) are dropped.
func (e *Env) schedule(p *Proc, t float64) {
	e.seq++
	e.check.scheduled()
	ev := event{t: t, seq: e.seq, gen: p.gen, slot: p.slot}
	if t <= e.now {
		ev.t = e.now
		e.lane.push(ev, e.room)
		return
	}
	e.push(ev)
}

// next removes and returns the earliest queued event in (t, seq) order,
// or reports false if there is none at or before limit. It is the only
// way out of the queue: the earliest of the heap's top and the delay
// queues' heads, then the lane. Heap and delay events at now go first:
// they were scheduled before the clock got here, so before anything in
// the lane.
func (e *Env) next(limit float64) (event, bool) {
	var first *event      // earliest heap or delay event
	var from *fifo[event] // the delay queue it heads; nil for the heap
	if len(e.events) > 0 {
		first = &e.events[0]
	}
	for i := range e.delays {
		if q := &e.delays[i].q; q.len() > 0 {
			if ev := &q.items[q.head]; first == nil || ev.before(first) {
				first, from = ev, q
			}
		}
	}
	if e.lane.len() > 0 && (first == nil || first.t > e.now) {
		if e.now > limit {
			return event{}, false
		}
		return e.lane.pop(), true
	}
	if first == nil || first.t > limit {
		return event{}, false
	}
	if from != nil {
		return from.pop(), true
	}
	return e.pop(), true
}

// maxDelays bounds the queues next scans: a Delay obtained past it
// schedules through the heap.
const maxDelays = 16

// delayQueueRoom is the number of wakeups a delay queue has room for
// before its first growth. The first arrays of delayBlock queues are one
// allocation: a one-dimensional pilot run obtains six lengths (the
// metadata operation, the launch latency, and the input and output
// transfers of its MD and exchange tasks), and a run that obtains more
// takes another block.
const (
	delayQueueRoom = 64
	delayBlock     = 6
)

// Delay is a sleep of one fixed length: Wake(p) is p.WakeIn(d) for the d
// it was obtained with, in the same (t, seq) order, but outside the heap.
// The clock never goes back and now+d rounds monotonically in now, so the
// wakeups of one d are scheduled already sorted and wait in a FIFO:
// nothing to sift, however many events the heap holds. It is for a model
// constant many processes sleep for; a varying sleep belongs to WakeIn.
//
// WakeAt books a wakeup at a time computed from the length, such as the
// end of a turn at a FIFO server with a fixed service time: one server's
// turns end in order, so their wakeups share the FIFO too. A wakeup that
// would sort before the FIFO's tail (another server's turn, on the same
// length) goes through the heap instead, so the order stays the heap's.
type Delay struct {
	env     *Env
	d       float64
	q       fifo[event]
	viaHeap bool // obtained past maxDelays, not in Env.delays
}

// Delay returns the sleep queue of length d virtual seconds (negative d
// is treated as zero), the same one for the same d.
func (e *Env) Delay(d float64) *Delay {
	if !(d > 0) {
		d = 0
	}
	for i := range e.delays {
		if e.delays[i].d == d {
			return &e.delays[i]
		}
	}
	if len(e.delays) == cap(e.delays) {
		return &Delay{env: e, d: d, viaHeap: true}
	}
	// Every process waiting on a booked server holds a wakeup here, so the
	// queue starts with room for delayQueueRoom of them rather than
	// growing there from one. The room is cut, capped, from a block
	// rather than allocated a queue at a time; a block for all maxDelays
	// queues would be 32 KB, whoever uses two of them.
	if len(e.delayRoom) == 0 {
		e.delayRoom = make([]event, delayBlock*delayQueueRoom)
	}
	items := e.delayRoom[:0:delayQueueRoom]
	e.delayRoom = e.delayRoom[delayQueueRoom:]
	e.delays = append(e.delays, Delay{env: e, d: d, q: fifo[event]{items: items}})
	return &e.delays[len(e.delays)-1]
}

// Len returns the sleep's length in virtual seconds: the d it was
// obtained with, zero for a negative one.
func (q *Delay) Len() float64 { return q.d }

// Wake schedules a wakeup of p the Delay's length from now and returns.
// The wakeup is dropped if anything else wakes the process first.
func (q *Delay) Wake(p *Proc) { q.WakeAt(p, q.env.now+q.d) }

// WakeAt schedules a wakeup of p at virtual time t (now if t is in the
// past) and returns: on the FIFO while t is not before its tail, through
// the heap otherwise. The wakeup is dropped if anything else wakes the
// process first.
func (q *Delay) WakeAt(p *Proc, t float64) {
	e := q.env
	if t <= e.now || q.viaHeap || q.q.len() > 0 && t < q.q.items[len(q.q.items)-1].t {
		e.schedule(p, t)
		return
	}
	e.seq++
	e.check.scheduled()
	q.q.push(event{t: t, seq: e.seq, gen: p.gen, slot: p.slot}, e.room)
}

// Go spawns a new goroutine process that starts at the current virtual
// time. It may be called before Run or from inside another process.
//
// fn runs as a coroutine of the goroutine that calls Run, and ends the
// process by returning. A panic in fn — or a runtime.Goexit, e.g. via
// testing.T.Fatal — unwinds through the kernel and out of Run in that
// goroutine, where it can be recovered; the environment is then stopped
// mid-event and must not be run again. (Built before go1.23 fn has a
// goroutine of its own: a panic there kills the program and a Goexit
// leaves the kernel waiting for a park that never comes.)
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	return e.GoAt(name, e.now, fn)
}

// GoAt spawns a goroutine process that starts at absolute virtual time t
// (clamped to now if in the past).
func (e *Env) GoAt(name string, t float64, fn func(p *Proc)) *Proc {
	g := &goProc{Proc: Proc{env: e}, name: name, fn: fn}
	p := &g.Proc
	p.g = g
	e.admit(p)
	g.start()
	e.schedule(p, t)
	return p
}

// Spawn starts a stepped process on caller-owned storage p (typically a
// field of the stepper itself): s.Step(p) is first called at the current
// virtual time, in spawn order with everything else scheduled for now.
func (e *Env) Spawn(p *Proc, s Stepper) {
	*p = Proc{env: e, stepper: s}
	e.admit(p)
	e.schedule(p, e.now)
}

// Start starts a stepped process on caller-owned storage p like Spawn,
// and saves Spawn's kernel event when it can. If no wakeup is due at the
// current instant, Spawn's queued first step would be the next thing to
// run, so s.Step(p) runs now, inline, before Start returns, with no
// event and no trace call; otherwise the first step is queued, as Spawn
// queues it. An inline step sees what a queued one would, and its
// wakeups sort where a queued step's would, provided it schedules
// nothing for the current instant, and the caller, before it yields to
// the kernel, neither touches what the step reads or writes nor
// schedules a wakeup for an instant the step schedules one for (the
// step's would sort first; a queued step's sort last).
func (e *Env) Start(p *Proc, s Stepper) {
	if !e.quiet() {
		e.Spawn(p, s)
		return
	}
	*p = Proc{env: e, stepper: s}
	e.admit(p)
	p.gen++
	s.Step(p)
}

// quiet reports whether no wakeup is due at the current instant: the
// lane is empty, and the heap's and every delay queue's earliest event
// are later.
func (e *Env) quiet() bool {
	if e.lane.len() > 0 || len(e.events) > 0 && e.events[0].t <= e.now {
		return false
	}
	for i := range e.delays {
		if q := &e.delays[i].q; q.len() > 0 && q.items[q.head].t <= e.now {
			return false
		}
	}
	return true
}

// admit gives a new process a slot in the process table.
func (e *Env) admit(p *Proc) {
	e.nlive++
	if n := len(e.free); n > 0 {
		p.slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		p.slot = int32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	sl := &e.slots[p.slot]
	sl.p = p
	p.gen = sl.gen
}

// Exit ends a stepped process: pending wakeups become stale and queued
// resource requests are skipped. Step must return right after.
func (p *Proc) Exit() {
	e := p.env
	p.dead = true
	e.nlive--
	e.slots[p.slot] = slot{gen: p.gen + 1}
	e.free = append(e.free, p.slot)
}

// errUnwound is the panic that unwinds a parked goroutine process when
// its environment is closed; the process's own switch recovers it.
var errUnwound = errors.New("sim: process unwound by Env.Close")

// Close unwinds every goroutine process that has not ended, parked at a
// blocking call or not yet started: each one's deferred calls run and
// its coroutine ends. A process parked when its environment stops being
// run (a panic out of Run, or a run abandoned with wakeups queued) would
// otherwise stay suspended for good, and keep the whole environment
// reachable with it. Call Close from outside the environment's
// processes, once it will not be run again; stepped processes hold no
// coroutine and are left as they are.
func (e *Env) Close() {
	for i := 0; i < len(e.slots); i++ {
		if p := e.slots[i].p; p != nil && p.g != nil {
			p.g.stop()
		}
	}
}

// Run executes events until none remain.
func (e *Env) Run() { e.RunUntil(math.Inf(1)) }

// RunUntil executes events with timestamps <= t and then stops, leaving
// later events queued. The clock ends at t if later events remain and at
// the last event's time if none do; it never moves backwards, so a t
// already in the past runs nothing and leaves the clock alone.
func (e *Env) RunUntil(t float64) {
	defer func(outer float64) { e.limit, e.due = outer, nil }(e.limit)
	e.limit = t
	for {
		p := e.due
		e.due = nil
		if p == nil {
			if p = e.advance(t); p == nil {
				break
			}
		}
		p.g.resume()
	}
	if t > e.now && e.Pending() > 0 {
		e.now = t
	}
}

// advance runs wakeups with timestamps <= limit until one is a goroutine
// process's, and returns that process with the clock at its wakeup; nil
// if none is left. Stale wakeups are dropped and stepped processes are
// stepped inline, on the stack of whoever calls: RunUntil, or a parked
// goroutine process driving the queue (Park).
func (e *Env) advance(limit float64) *Proc {
	for {
		ev, ok := e.next(limit)
		if !ok {
			return nil
		}
		e.check.delivered(e, ev)
		p := e.slots[ev.slot].p
		if p == nil || ev.gen != p.gen {
			continue // stale wakeup: the process moved on, or is gone
		}
		e.now = ev.t
		if e.trace != nil {
			e.trace(e.now, p.Name())
		}
		p.gen++
		if p.stepper == nil {
			return p
		}
		p.stepper.Step(p)
	}
}

// Pending reports the number of queued (possibly stale) events.
func (e *Env) Pending() int {
	n := len(e.events) + e.lane.len()
	for i := range e.delays {
		n += e.delays[i].q.len()
	}
	return n
}

// Live reports the number of live (spawned, not finished) processes.
func (e *Env) Live() int { return e.nlive }

// Reserve tells the kernel that up to n more processes than are live now
// may be live at once, each with a wakeup queued: a pilot runtime
// reserves, at each new chunk of units, the units its pilots run at once.
// The process table, its free list, the heap and the same-instant lane
// get room for them now, and a delay queue, a signal's waiters or a
// resource's queue that outgrows its array grows to that room at once,
// not by doubling. Past the room, queues grow as append does. The room is
// the largest of the reservations, each counted from the processes live
// when it was made: two made back to back do not add up.
func (e *Env) Reserve(n int) {
	if e.nlive+n <= e.room {
		return
	}
	e.room = e.nlive + n
	e.slots = reserve(e.slots, e.room)
	e.free = reserve(e.free, e.room)
	e.events = reserve(e.events, e.room)
	e.lane.items = reserve(e.lane.items, e.room)
}

// reserve returns s with capacity for n elements.
func reserve[T any](s []T, n int) []T {
	return slices.Grow(s, max(n-len(s), 0))
}

// Park suspends the process until its next wakeup. It is the blocking
// half of every blocking form: register a wakeup with a non-blocking
// form, then Park. Goroutine processes only.
//
// The parked process runs the kernel's loop itself, up to the bound of
// the RunUntil in progress: stepped processes are stepped inline, and its
// own wakeup returns from Park without a switch. Only another goroutine
// process's wakeup, or the end of the slice, switches back to RunUntil,
// which resumes that process (Env.due) or returns.
func (p *Proc) Park() {
	if p.stepper != nil {
		panic("sim: blocking call from stepped process " + p.Name())
	}
	e := p.env
	q := e.advance(e.limit)
	if q == p {
		return
	}
	e.due = q
	p.g.park()
}

// WakeIn schedules a wakeup of the process d virtual seconds from now
// and returns (the non-blocking form of Sleep). Negative d is treated as
// zero. The wakeup is dropped if anything else wakes the process first.
func (p *Proc) WakeIn(d float64) {
	if d < 0 {
		d = 0
	}
	p.env.schedule(p, p.env.now+d)
}

// Sleep suspends the process for d virtual seconds. Negative d is treated
// as zero (yield to same-time events already queued).
func (p *Proc) Sleep(d float64) {
	p.WakeIn(d)
	p.Park()
}

// ---------------------------------------------------------------------------
// Signal: condition-variable style wakeups.

// Signal is a broadcast/signal condition for processes. The zero value is
// not usable; create with NewSignal.
type Signal struct {
	env *Env
	// first is the oldest waiter (first.p nil: there is none) and rest the
	// ones behind it: a signal with one waiter at a time, like a unit's
	// own latch, allocates no queue.
	first sigWaiter
	rest  fifo[sigWaiter]
}

type sigWaiter struct {
	p   *Proc
	gen int64
}

// NewSignal returns a new Signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Enrol registers p to be woken by the next Signal or Broadcast and
// returns (the non-blocking form of Wait). p.Notified() is false until
// the signal fires; a process woken by anything else first (a WakeIn
// timeout) is skipped by the signal.
func (s *Signal) Enrol(p *Proc) {
	p.notified = false
	w := sigWaiter{p: p, gen: p.gen}
	if s.first.p == nil {
		s.first = w
		return
	}
	s.rest.push(w, s.env.room)
}

// pop removes and returns the oldest waiter; there must be one.
func (s *Signal) pop() sigWaiter {
	w := s.first
	s.first = sigWaiter{}
	if s.rest.len() > 0 {
		s.first = s.rest.pop()
	}
	return w
}

// Wait blocks the calling process until Signal or Broadcast is invoked.
func (s *Signal) Wait(p *Proc) {
	s.Enrol(p)
	p.Park()
}

// WaitTimeout blocks until the signal fires or d virtual seconds elapse.
// It reports whether the signal fired (true) or the timeout expired
// (false).
func (s *Signal) WaitTimeout(p *Proc, d float64) bool {
	s.Enrol(p)
	p.WakeIn(d) // timeout event, same generation
	p.Park()
	return p.notified
}

// wake notifies one waiter, reporting false for a stale one (already
// woken by its timeout or elsewhere).
func (s *Signal) wake(w sigWaiter) bool {
	if w.p.dead || w.p.gen != w.gen {
		return false
	}
	w.p.notified = true
	s.env.schedule(w.p, s.env.now)
	return true
}

// Broadcast wakes all currently waiting processes at the current time.
func (s *Signal) Broadcast() {
	for s.first.p != nil {
		s.wake(s.pop())
	}
}

// Signal wakes a single waiting process (FIFO), if any.
func (s *Signal) Signal() {
	for s.first.p != nil {
		if s.wake(s.pop()) {
			return
		}
	}
}

// Waiters reports the number of registered (possibly stale) waiters.
func (s *Signal) Waiters() int {
	if s.first.p == nil {
		return 0
	}
	return 1 + s.rest.len()
}

// ---------------------------------------------------------------------------
// Resource: counting semaphore with FIFO queueing in virtual time.

// Resource models a pool of interchangeable units (e.g. CPU cores) that
// processes acquire and release. Queueing is strict FIFO: a large request
// at the head blocks smaller requests behind it, like a conservative
// backfill-free scheduler.
type Resource struct {
	env      *Env
	capacity int
	used     int
	queue    fifo[resWaiter]
	peakUsed int
	// busyIntegral accumulates used*dt for utilization accounting.
	busyIntegral float64
	lastUpdate   float64
}

type resWaiter struct {
	p *Proc
	n int
	// abortable requests are woken with p.aborted set when a capacity
	// shrink makes them permanently unsatisfiable, instead of staying
	// queued forever.
	abortable bool
}

// NewResource returns a resource with the given capacity.
func NewResource(env *Env, capacity int) *Resource {
	if capacity < 0 {
		panic(fmt.Sprintf("sim: negative resource capacity %d", capacity))
	}
	return &Resource{env: env, capacity: capacity}
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.used }

// Available returns capacity minus in-use units.
func (r *Resource) Available() int { return r.capacity - r.used }

// PeakInUse returns the maximum concurrently held units observed.
func (r *Resource) PeakInUse() int { return r.peakUsed }

// QueueLen returns the number of waiting acquisitions.
func (r *Resource) QueueLen() int { return r.queue.len() }

func (r *Resource) account() {
	now := r.env.now
	r.busyIntegral += float64(r.used) * (now - r.lastUpdate)
	r.lastUpdate = now
}

// BusyIntegral returns the time integral of units-in-use (unit-seconds)
// up to the current virtual time.
func (r *Resource) BusyIntegral() float64 {
	r.account()
	return r.busyIntegral
}

// Request asks for n units on behalf of p and returns without blocking
// (the non-blocking form of Acquire). If the units are free and nobody
// is queued they are taken at once and p.Granted() is already true on
// return. Otherwise the request joins the FIFO queue and p is woken at
// the moment it is granted — or, for an abortable request, at the moment
// a capacity shrink (SetCapacity) makes it unsatisfiable, with
// p.Aborted() set. An abortable request wider than the current capacity
// is aborted on the spot; a plain one panics (it would deadlock
// forever).
func (r *Resource) Request(p *Proc, n int, abortable bool) {
	p.granted, p.aborted = false, false
	switch {
	case n <= 0:
		p.granted = true
	case n > r.capacity:
		if !abortable {
			panic(fmt.Sprintf("sim: acquire %d exceeds capacity %d", n, r.capacity))
		}
		p.aborted = true
	case r.TryAcquire(n):
		p.granted = true
	default:
		r.queue.push(resWaiter{p: p, n: n, abortable: abortable}, r.env.room)
	}
}

// Acquire blocks the calling process until n units are available and held.
// Acquiring more than the capacity panics (it would deadlock forever).
func (r *Resource) Acquire(p *Proc, n int) {
	r.Request(p, n, false)
	for !p.granted {
		p.Park()
	}
}

// TryAcquire attempts to take n units without blocking and reports success.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 {
		return true
	}
	if r.queue.len() == 0 && r.used+n <= r.capacity {
		r.take(n)
		return true
	}
	return false
}

func (r *Resource) take(n int) {
	r.account()
	r.used += n
	if r.used > r.peakUsed {
		r.peakUsed = r.used
	}
}

// Release returns n units to the pool and grants queued requests in FIFO
// order while they fit.
func (r *Resource) Release(n int) {
	if n <= 0 {
		return
	}
	r.account()
	r.used -= n
	if r.used < 0 {
		panic("sim: resource release below zero")
	}
	r.grantQueued()
}

// grantQueued grants queued requests in FIFO order while they fit.
func (r *Resource) grantQueued() {
	for r.queue.len() > 0 {
		w := r.queue.peek()
		if w.p.dead {
			r.queue.pop()
			continue
		}
		if r.used+w.n > r.capacity {
			break
		}
		r.queue.pop()
		r.take(w.n)
		w.p.granted = true
		r.env.schedule(w.p, r.env.now)
	}
}

// SetCapacity changes the capacity in place. Growing grants queued
// requests that now fit (FIFO); shrinking leaves in-use units
// untouched — the pool is simply over-committed until holders release —
// and aborts queued abortable requests wider than the new capacity,
// since no sequence of releases could ever satisfy them. Queued plain
// requests are never aborted: their callers hold no abort path, so they
// stay queued (and a shrink below their width leaves them blocked until
// a matching grow, mirroring Acquire's capacity panic contract).
func (r *Resource) SetCapacity(n int) {
	if n < 0 {
		panic(fmt.Sprintf("sim: negative resource capacity %d", n))
	}
	grew := n > r.capacity
	r.capacity = n
	if grew {
		r.grantQueued()
		return
	}
	r.queue.retain(func(w resWaiter) bool {
		if w.n > n && w.abortable {
			w.p.aborted = true
			r.env.schedule(w.p, r.env.now)
			return false
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// Completion: one-shot latch usable as a future.

// Completion is a one-shot event that processes can wait on, the DES
// analogue of a future. It owns its signal, so it can be embedded by
// value and bound with Init.
type Completion struct {
	sig  Signal
	done bool
}

// Init binds a zero Completion (a struct field, say) to env.
func (c *Completion) Init(env *Env) { c.sig.env = env }

// Done reports whether the completion fired.
func (c *Completion) Done() bool { return c.done }

// Complete fires the completion, waking all waiters. Completing twice
// panics: it indicates a lifecycle bug in the caller.
func (c *Completion) Complete() {
	if c.done {
		panic("sim: Completion fired twice")
	}
	c.done = true
	c.sig.Broadcast()
}

// Enrol registers p to be woken when the completion fires and returns
// (the non-blocking form of Await; add p.WakeIn for a timeout). The
// completion must not have fired yet: check Done first.
func (c *Completion) Enrol(p *Proc) { c.sig.Enrol(p) }

// Await blocks until the completion fires.
func (c *Completion) Await(p *Proc) {
	for !c.done {
		c.sig.Wait(p)
	}
}
