package pilot

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/task"
)

// Runtime is the pilot runtime: task.Runtime over a row of routing
// slots, each holding one pilot. A single pilot is one slot; several
// pilots on (possibly different) machines are several — the paper's
// final named extension ("RepEx can be extended to use multiple HPC
// resources simultaneously for a single REMD simulation", §5) is the
// same runtime with a longer row. All pilots must live in the
// orchestrator's simulation environment, and all methods must be called
// from the bound orchestrator process, mirroring RepEx's single-threaded
// execution-management module.
//
// Routing is weighted least-loaded over two signals: the core-width
// currently in flight on each slot, plus an exponentially decaying
// estimate of recently completed core work. Both are kept per slot, not
// per pilot incarnation, so a failover relaunch inherits its slot's
// history instead of looking idle and attracting a thundering herd. A
// staging-affinity discount prefers the pilot that last ran a replica
// (its staged inputs are already there).
type Runtime struct {
	proc  *sim.Proc
	slots []slot
	// OverheadTotal accumulates client-side overhead charged via
	// Overhead, for reporting T_RepEx-over.
	OverheadTotal float64
	// Failover, when set, replaces an expired or draining pilot in place
	// (same machine, same description, fresh batch-queue wait) the next
	// time a submission would route to it — a preemption notice thus
	// overlaps the new queue wait with the old pilot's drain window.
	// When unset, dead pilots are skipped and the surviving slots absorb
	// the work.
	Failover bool
	// loadDecayTau is the e-folding time, in virtual seconds, of the
	// completed-work estimate.
	loadDecayTau float64
	// affinityBonus is the load discount granted to the pilot that last
	// successfully ran a replica's task.
	affinityBonus float64
	// home[id] is the pilot instance that last successfully ran replica
	// id. Instances, not slots: a relaunched pilot has lost the staged
	// data.
	home []*Pilot
	// relaunched counts replacement pilots launched by failover.
	relaunched int
	// retired holds replaced pilots until their remaining resource
	// events (the drain-then-expire of a preempted pilot) are drained.
	retired []retiredPilot

	// The completion stream: stream holds finished watched units not yet
	// delivered by AwaitNext, in virtual-time completion order; delivered
	// is the slice the last AwaitNext returned, whose units the next call
	// moves to spare. The two swap at each delivery.
	arrivals          *sim.Signal
	stream, delivered []task.Handle
	// batch is the number of pending completions AwaitBatch waits for;
	// 0 outside it, where every watched completion wakes the caller. lent
	// marks delivered as AwaitBatch's: its units become spares at the
	// next call that blocks, not only at the next AwaitNext.
	batch int
	lent  bool
	// spare holds finished units for submissions to reuse: the units
	// AwaitNext delivered, from its next call on, and the unwatched units
	// Await and AwaitAll delivered, from their return on.
	spare []*Unit
	// units is the storage of the units no spare could stand in for. A
	// new chunk holds at least as many units of the submitted task's
	// width as the runtime's pilots run at once, what Execution Mode I
	// keeps in flight, so a run allocates a logarithmic number of
	// chunks, not a unit per task in flight.
	units slab.Slab[Unit]
	// results is the slice AwaitAll returns, refilled by every call.
	results []task.Result
}

// slot is one routing slot: its current occupant and the routing history
// that outlives any one occupant.
type slot struct {
	pl *Pilot
	// routed counts tasks sent to the slot.
	routed int
	// inflight is the core-width submitted but not yet completed. Unit
	// completions settle it, so a pilot failure (whose units all fail,
	// completing them) drains it naturally — no reset on relaunch.
	inflight int
	// recent is the decaying completed-work estimate (core-width units)
	// as of recentAt.
	recent, recentAt float64
}

// retiredPilot is a replaced pilot and the slot it occupied.
type retiredPilot struct {
	pl   *Pilot
	slot int
}

func newRuntime(proc *sim.Proc, pilots []*Pilot) *Runtime {
	r := &Runtime{
		proc:          proc,
		slots:         make([]slot, len(pilots)),
		loadDecayTau:  300,
		affinityBonus: 0.05,
		arrivals:      sim.NewSignal(proc.Env()),
	}
	for i, pl := range pilots {
		r.slots[i].pl = pl
	}
	return r
}

// NewRuntime binds one pilot to an orchestrator process.
func NewRuntime(pl *Pilot, proc *sim.Proc) *Runtime {
	return newRuntime(proc, []*Pilot{pl})
}

// NewFailoverRuntime launches a pilot from desc on cl and binds it to
// proc with Failover set: the first submission after that pilot expires
// or starts draining launches a replacement from the same description.
func NewFailoverRuntime(cl *cluster.Cluster, desc Description, proc *sim.Proc) (*Runtime, error) {
	pl, err := Launch(cl, desc)
	if err != nil {
		return nil, err
	}
	r := NewRuntime(pl, proc)
	r.Failover = true
	return r, nil
}

// NewMultiRuntime binds pilots, one routing slot each, to an
// orchestrator process. At least one pilot is required and all must
// share the orchestrator's environment.
func NewMultiRuntime(proc *sim.Proc, pilots ...*Pilot) (*Runtime, error) {
	if len(pilots) == 0 {
		return nil, fmt.Errorf("pilot: runtime needs at least one pilot")
	}
	for i, pl := range pilots {
		if pl.env != proc.Env() {
			return nil, fmt.Errorf("pilot: pilot %d lives in a different simulation environment", i)
		}
	}
	return newRuntime(proc, pilots), nil
}

// Pilot returns the pilot currently occupying slot 0.
func (r *Runtime) Pilot() *Pilot { return r.slots[0].pl }

// PilotAt returns the pilot currently occupying routing slot i, nil
// beyond the row (the chaos driver's lookup: after a failover relaunch
// the slot holds the replacement).
func (r *Runtime) PilotAt(i int) *Pilot {
	if i < 0 || i >= len(r.slots) {
		return nil
	}
	return r.slots[i].pl
}

// Relaunched reports how many replacement pilots failover has launched.
func (r *Runtime) Relaunched() int { return r.relaunched }

// Routed returns how many tasks each slot received.
func (r *Runtime) Routed() []int {
	out := make([]int, len(r.slots))
	for i := range r.slots {
		out[i] = r.slots[i].routed
	}
	return out
}

// InFlightCores returns the core-width submitted but not yet completed
// per slot (for tests and balance inspection).
func (r *Runtime) InFlightCores() []int {
	out := make([]int, len(r.slots))
	for i := range r.slots {
		out[i] = r.slots[i].inflight
	}
	return out
}

// RecentLoad returns slot i's decayed completed-work estimate in
// core-width units (for tests and balance inspection); zero on a single
// slot, which keeps none.
func (r *Runtime) RecentLoad(i int) float64 { return r.decayedRecent(&r.slots[i]) }

// decayedRecent folds the elapsed-time decay into the slot's completed
// work estimate and returns it.
func (r *Runtime) decayedRecent(sl *slot) float64 {
	now := r.proc.Now()
	if dt := now - sl.recentAt; dt > 0 {
		sl.recent *= math.Exp(-dt / r.loadDecayTau)
		sl.recentAt = now
	}
	return sl.recent
}

// Now returns the virtual time.
func (r *Runtime) Now() float64 { return r.proc.Now() }

// Cores returns the aggregate current core count across all slots.
func (r *Runtime) Cores() int {
	n := 0
	for i := range r.slots {
		n += r.slots[i].pl.Cores()
	}
	return n
}

// route picks the slot whose relative load — in-flight core-width plus
// the decaying completed-work estimate, over current capacity, minus the
// staging-affinity discount when its pilot last ran this replica — would
// stay lowest. Tasks wider than a pilot are only routed to pilots that
// fit them. Expired and draining pilots are replaced in place when
// Failover is set (a failed replacement launch keeps the old pilot) and
// skipped otherwise; if no live candidate remains the task goes to the
// least-loaded dead one and fails fast, which the scheduler's
// resubmission cap converts into replica drops. A task that fits no
// slot at all is a caller bug (bench.Run's admission rejects a replica,
// or a salt dimension's single-point task, wider than every pilot) and
// panics.
func (r *Runtime) route(s *task.Spec) int {
	best, bestLoad := -1, 0.0
	bestAny, bestAnyLoad := -1, 0.0 // fallback incl. dead pilots
	var home *Pilot
	if uint(s.ReplicaID) < uint(len(r.home)) {
		home = r.home[s.ReplicaID]
	}
	for i := range r.slots {
		sl := &r.slots[i]
		dead := sl.pl.Expired() || sl.pl.Draining()
		if dead && r.Failover && s.Cores <= sl.pl.desc.Cores {
			if npl, err := Launch(sl.pl.cl, sl.pl.desc); err == nil {
				r.retired = append(r.retired, retiredPilot{sl.pl, i})
				sl.pl = npl
				r.relaunched++
				dead = false
			}
		}
		pl := sl.pl
		// Fit against the nominal size for dead pilots (fail-fast
		// fallback) and the current size for live ones.
		if s.Cores > pl.desc.Cores && s.Cores > pl.Cores() {
			continue
		}
		load := 0.0 // a single slot has nothing to weigh
		if len(r.slots) > 1 {
			capacity := pl.Cores()
			if capacity <= 0 {
				capacity = pl.desc.Cores
			}
			load = (float64(sl.inflight) + r.decayedRecent(sl) + float64(s.Cores)) / float64(capacity)
			if pl == home {
				load -= r.affinityBonus
			}
		}
		if bestAny < 0 || load < bestAnyLoad {
			bestAny, bestAnyLoad = i, load
		}
		if dead || s.Cores > pl.Cores() {
			continue
		}
		if best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best < 0 {
		best = bestAny
	}
	if best < 0 {
		panic(fmt.Sprintf("pilot: task %q (%d cores) fits no pilot", s.Label(), s.Cores))
	}
	return best
}

// submit routes the task and starts it on the chosen slot's pilot, in a
// spare unit when there is one and a freshly carved one otherwise. The
// unit learns its runtime, slot and delivery before its first step,
// which may finish it, and its result is stamped with the slot for the
// flight recorder.
func (r *Runtime) submit(s *task.Spec, watched bool) *Unit {
	i := r.route(s)
	sl := &r.slots[i]
	sl.routed++
	sl.inflight += s.Cores
	var u *Unit
	if n := len(r.spare); n > 0 {
		u, r.spare = r.spare[n-1], r.spare[:n-1]
	} else {
		least := 0
		if r.units.Room() == 0 {
			// Every new unit chunk reserves room in the kernel's
			// queues for one more round of the units of this width
			// the pilots run at once, each with a wakeup queued, and
			// holds at least that round. Reserving at every fresh unit
			// instead grows the queues with each unit that goes live.
			least = r.Cores() / max(s.Cores, 1)
			r.proc.Env().Reserve(least)
		}
		u = &r.units.Carve(1, least, 0)[0]
	}
	sl.pl.submitInto(u, s)
	u.rt, u.slot, u.watched = r, i, watched
	u.res.Pilot = i
	sl.pl.start(u)
	return u
}

// unitDone is called by a routed unit's lifecycle on reaching DONE or
// FAILED: it settles the slot's in-flight width, feeds the decayed
// completed-work estimate, remembers the replica's last home for staging
// affinity (successful runs only — a killed unit left no usable outputs
// behind; a single slot, every task's only route, keeps neither) and
// queues a watched unit for delivery, waking the caller unless an
// AwaitBatch can let it sleep on (see there).
func (r *Runtime) unitDone(u *Unit) {
	sl := &r.slots[u.slot]
	sl.inflight -= u.spec.Cores
	if u.res.Err == nil && len(r.slots) > 1 {
		sl.recent = r.decayedRecent(sl) + float64(u.spec.Cores)
		if id := u.spec.ReplicaID; id >= 0 {
			if id >= len(r.home) {
				// At least double: replicas finish in no particular order.
				n := max(id+1, 2*len(r.home))
				r.home = slices.Grow(r.home, n-len(r.home))[:n]
			}
			r.home[id] = u.pl
		}
	}
	if u.watched {
		r.stream = append(r.stream, u)
		if len(r.stream) >= r.batch || u.res.Err != nil || r.eventsBuffered() {
			r.arrivals.Broadcast()
		}
	}
}

// eventsBuffered reports whether a pilot, current or retired, holds
// resource events DrainResourceEvents has not taken yet.
func (r *Runtime) eventsBuffered() bool {
	for i := range r.slots {
		if len(r.slots[i].pl.events) > 0 {
			return true
		}
	}
	for _, o := range r.retired {
		if len(o.pl.events) > 0 {
			return true
		}
	}
	return false
}

// Submit schedules a task on the least-loaded slot that fits it.
func (r *Runtime) Submit(s *task.Spec) task.Handle { return r.submit(s, false) }

// SubmitWatched routes the task like Submit and registers it on the
// completion stream for delivery by AwaitNext.
func (r *Runtime) SubmitWatched(s *task.Spec) task.Handle { return r.submit(s, true) }

// Await blocks the orchestrator until the unit finishes and returns its
// result. An unwatched unit this runtime routed becomes a spare: the
// handle is dead once Await returns.
func (r *Runtime) Await(h task.Handle) task.Result {
	if r.lent {
		r.reclaim()
	}
	u := h.(*Unit)
	u.done.Await(r.proc)
	if u.rt == r && !u.watched {
		// Clearing rt marks the unit spare, so a second Await of the same
		// handle cannot list it twice.
		u.rt = nil
		r.recycle(u)
	}
	return u.res
}

// AwaitAll blocks until all units finish, as Await does for each. The
// returned slice is the runtime's own buffer, valid until the next
// AwaitAll.
func (r *Runtime) AwaitAll(hs []task.Handle) []task.Result {
	r.results = slices.Grow(r.results[:0], len(hs))
	for _, h := range hs {
		r.results = append(r.results, r.Await(h))
	}
	return r.results
}

// AwaitNext blocks until a watched unit completion is pending delivery
// or the absolute deadline passes, draining the stream in completion
// order. The returned slice is the runtime's own buffer and the units in
// it become spares at the next call: both are valid until then.
func (r *Runtime) AwaitNext(deadline float64) []task.Handle {
	r.reclaim()
	for len(r.stream) == 0 {
		if math.IsInf(deadline, 1) {
			r.arrivals.Wait(r.proc)
			continue
		}
		remain := deadline - r.proc.Now()
		if remain <= 0 {
			return nil
		}
		r.arrivals.WaitTimeout(r.proc, remain)
	}
	r.stream, r.delivered = r.delivered, r.stream
	if cap(r.stream) < cap(r.delivered) {
		// The buffer swapped in gets the room the other one needed at
		// once, rather than doubling up to it.
		r.stream = make([]task.Handle, 0, cap(r.delivered))
	}
	return r.delivered
}

// AwaitBatch is AwaitNext that lets the orchestrator sleep until n
// watched completions are pending (task.BatchAwaiter). Two kinds of
// completion wake it earlier, at their own time, as AwaitNext would: a
// failed one, which the caller may relaunch then, and one that finds a
// pilot's resource events buffered, which the caller would have drained
// at that wakeup, before any fault a later completion brings. The
// delivered units become spares at the runtime's next blocking call
// (this one, AwaitNext, Await, AwaitAll, Overhead or SleepUntil), so a
// barrier's resubmission reuses the round it just collected.
func (r *Runtime) AwaitBatch(n int, deadline float64) []task.Handle {
	// The stream fills to n here: room for all of it at once, not a
	// doubling at a time.
	r.stream = slices.Grow(r.stream, max(n-len(r.stream), 0))
	r.batch = n
	hs := r.AwaitNext(deadline)
	r.batch, r.lent = 0, true
	return hs
}

// reclaim makes the delivered units spares: at every AwaitNext, and at
// any blocking call after an AwaitBatch.
func (r *Runtime) reclaim() {
	r.spare = slices.Grow(r.spare, len(r.delivered))
	for _, h := range r.delivered {
		r.recycle(h.(*Unit))
	}
	r.delivered = r.delivered[:0]
	r.lent = false
}

// recycle makes a delivered unit a spare or, under simcheck, poisons it:
// it is never reused, and reading it panics.
func (r *Runtime) recycle(u *Unit) {
	if poison {
		u.dead = true
		return
	}
	r.spare = append(r.spare, u)
}

// SleepUntil blocks the orchestrator until virtual time t.
func (r *Runtime) SleepUntil(t float64) {
	if r.lent {
		r.reclaim()
	}
	if d := t - r.proc.Now(); d > 0 {
		r.proc.Sleep(d)
	}
}

// Overhead charges client-side (RepEx) overhead to the virtual clock.
func (r *Runtime) Overhead(d float64) {
	if r.lent {
		r.reclaim()
	}
	if d <= 0 {
		return
	}
	r.OverheadTotal += d
	r.proc.Sleep(d)
}

// DrainResourceEvents returns and clears the buffered pilot lifecycle
// events of every slot's current and retired pilots, stamped with the
// slot and merged into occurrence order (task.ResourceReporter). Retired
// pilots are dropped once expired and drained, so a long run cannot
// accumulate dead pilots.
func (r *Runtime) DrainResourceEvents() []task.ResourceEvent {
	var out []task.ResourceEvent
	kept := r.retired[:0]
	for _, o := range r.retired {
		out = append(out, stamped(o.pl.TakeEvents(), o.slot)...)
		if !o.pl.Expired() {
			kept = append(kept, o)
		}
	}
	r.retired = kept
	for i := range r.slots {
		out = append(out, stamped(r.slots[i].pl.TakeEvents(), i)...)
	}
	// Stable insertion sort by time: the batches are tiny and already
	// near-sorted.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].At < out[j-1].At; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// stamped labels a pilot's events with its routing slot.
func stamped(ev []task.ResourceEvent, slot int) []task.ResourceEvent {
	for i := range ev {
		ev[i].Pilot = slot
	}
	return ev
}

var (
	_ task.Runtime          = (*Runtime)(nil)
	_ task.ResourceReporter = (*Runtime)(nil)
	_ task.BatchAwaiter     = (*Runtime)(nil)
)
