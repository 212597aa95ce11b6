package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/exchange"
	"repro/internal/task"
)

// This file is the event-driven scheduling core: one dispatcher loop,
// parameterized by a Trigger policy, drives every Replica Exchange
// Pattern. MD completions stream in through task.Runtime.AwaitNext (O(1)
// per event); the trigger decides when the ready replicas transition to
// the exchange phase, and one shared exchangePhase routine performs it.
//
// Failure handling is event-driven too: a failed MD segment is
// resubmitted through SubmitWatched as another in-flight event, so a
// retrying replica never blocks the loop — exchanges keep firing among
// the healthy replicas while the relaunch runs (the non-blocking fault
// recovery the paper's production scale requires).

// mdFlight is one replica's in-flight MD segment: the task handle, the
// dimension the segment was submitted for (relaunches must reuse it even
// if the dispatcher's current dimension has advanced) and the failure
// accounting of this segment. It is two cache lines, and names its
// replica by index, not by pointer.
type mdFlight struct {
	// h is the segment's latest submission; nil once the segment has been
	// absorbed or discarded.
	h task.Handle
	// res is the result of h's latest delivery, copied by take: the
	// runtime may reuse h once AwaitNext is called again, and the barrier
	// absorbs results several calls later.
	res task.Result
	// start is the runtime time of the segment's first submission;
	// relaunches keep it, so (now - start) at final completion is the
	// segment's completion latency including every retry.
	start float64
	// id is the replica's ID: its index in Simulation.replicas and in the
	// dispatcher's flights.
	id int32
	// dim is the exchange dimension the segment was submitted under.
	dim int32
	// infra counts resource-loss resubmissions (pilot walltime expiry)
	// of this segment; unlike Replica.Retries it is per-segment and does
	// not consume the replica's fault budget.
	infra int32
	// rel counts replica-failure relaunches of this segment, so the
	// segment's trace span can report how many retries it absorbed
	// (infra + rel) without decoding the replica's lifetime budget.
	rel int32
}

// dispatcher is the state of one run of the core loop: the run's policy
// and its optional sides, the flights in the air, the replicas waiting
// for an exchange and the accounting of the collection round in
// progress. One is built per RunContext call; nothing in it is created
// per completion.
//
// Aligned policies (the barrier) reproduce the synchronous pattern
// exactly: each round is one (cycle, dimension) sub-cycle over all alive
// replicas, MD results are processed in submission order once the whole
// batch finished, and the record carries MD wall plus preparation
// overhead. Non-aligned policies reproduce the asynchronous shape:
// completions are processed as they arrive, exchanges run over the ready
// subset, and each record covers one exchange event.
type dispatcher struct {
	s   *Simulation
	ctx context.Context
	tr  Trigger
	// latObs is the policy's LatencyObserver side (nil without one):
	// adaptive policies are fed each MD segment's completion latency —
	// submission to final completion, including relaunch retries — rather
	// than the raw per-attempt exec time Observe sees.
	latObs LatencyObserver
	// stateful is the policy's StatefulTrigger side (nil without one):
	// its controller state rides in every snapshot, and New hands it
	// back on resume.
	stateful StatefulTrigger
	// need is the policy's BatchedTrigger side, and batch the runtime's
	// BatchAwaiter side when need is there (both nil otherwise): a wait
	// then sleeps until as many completions are pending as could change
	// the decision, bar a failure's relaunch and the resource events the
	// runtime wakes it for.
	need  BatchedTrigger
	batch task.BatchAwaiter
	// fb is the policy as a FeedbackTrigger (nil otherwise): feedback
	// policies get a controller-decision span after each fire and drive
	// ladder respacing.
	fb      *FeedbackTrigger
	aligned bool
	ndims   int
	// segBudget is a replica's MD-segment budget: the synchronous pattern
	// runs one segment per (cycle, dimension) sub-cycle, the asynchronous
	// family one segment per cycle.
	segBudget int

	// flights is indexed by replica ID: a replica has at most one MD
	// segment in the air.
	flights []mdFlight
	ready   []*Replica // non-aligned: processed replicas awaiting exchange
	// next is the latest resubmission set, in submission order; under an
	// aligned policy it is the batch the barrier absorbs at fire time.
	next    []*Replica
	readyB  int // ready replicas with budget left
	pending int // outstanding MD tasks
	done    int // completed-but-unprocessed tasks (aligned)
	alive   int
	event   int         // exchange events fired so far
	dim     int         // dimension of the upcoming exchange
	mdAccum PhaseRecord // MD results (incl. failed attempts) of the round
	prep    float64     // MD preparation overhead of the current round
	roundT0 float64     // round start (before MD preparation)
	mdStart float64     // first MD submission of the current round
	// noopFires counts consecutive fires that neither exchanged nor
	// resubmitted; lastFireAt is the runtime time of the latest one.
	noopFires  int
	lastFireAt float64
	// waitAt is when the current wait began. A completion it delivers is
	// stamped max(its finish, waitAt): the time a dispatcher woken by
	// every completion would have taken it, however late the runtime
	// delivered it.
	waitAt float64
}

func newDispatcher(ctx context.Context, s *Simulation, tr Trigger) *dispatcher {
	d := &dispatcher{
		s:         s,
		ctx:       ctx,
		tr:        tr,
		aligned:   tr.Aligned(),
		ndims:     len(s.spec.Dims),
		segBudget: s.spec.Cycles,
		flights:   make([]mdFlight, len(s.replicas)),
		// A round resubmits, and a collection round readies, at most
		// every replica.
		next:  make([]*Replica, 0, len(s.replicas)),
		event: s.report.ExchangeEvents,
		dim:   s.report.ExchangeEvents % len(s.spec.Dims),
	}
	if d.aligned {
		d.segBudget *= d.ndims
		// A round an event: the events left are fixed by the spec.
		s.rowsLeft = d.segBudget - d.event
	} else {
		d.ready = make([]*Replica, 0, len(s.replicas))
	}
	for _, r := range s.replicas {
		if r.Alive {
			d.alive++
		}
	}
	// Closed-loop policies are fed exchange outcomes through the observer
	// hook: publishExchange feeds ObserveExchange synchronously, so the
	// fired dimension's control step has already run when fire records
	// the controller span.
	s.exObs, _ = tr.(ExchangeObserver)
	d.latObs, _ = tr.(LatencyObserver)
	d.stateful, _ = tr.(StatefulTrigger)
	d.fb, _ = tr.(*FeedbackTrigger)
	if d.need, _ = tr.(BatchedTrigger); d.need != nil {
		d.batch, _ = s.rt.(task.BatchAwaiter)
	}
	return d
}

// run drives the simulation to completion under the policy, or until
// the context is cancelled (checked at exchange-event boundaries only,
// so every observable stop point has the shape of a periodic snapshot).
func (d *dispatcher) run() error {
	s, tr := d.s, d.tr
	// Queued bus events are flushed once per dispatcher wakeup; the
	// deferred flush covers error returns mid-round. Resource events are
	// drained first (LIFO), so pilot lifecycle changes buffered by an
	// elastic runtime reach the bus even on error paths.
	defer s.flushBus()
	defer s.drainResourceEvents()
	// A context cancelled before the run starts stops at event 0 — the
	// same boundary semantics, with nothing in flight yet.
	if d.ctx.Err() != nil {
		return d.cancel()
	}
	d.roundT0 = s.rt.Now()
	d.resubmit(s.replicas)
	s.drainResourceEvents() // pilot launch events precede the first round
	s.flushBus()
	tr.Reset(d.state())
	c := &s.clock
	c.lap(phaseSetup)
	defer c.split() // whatever the loop left untimed, an error return's too

	for d.pending > 0 || d.done > 0 || len(d.ready) > 0 {
		st := d.state()
		switch dec := tr.Decide(st); dec {
		case TriggerWait:
			if d.pending == 0 {
				return fmt.Errorf("core: trigger %q stalled with no MD task outstanding", tr.Name())
			}
			d.noopFires = 0
			if err := d.wait(st); err != nil {
				return err
			}
		case TriggerFireAtDeadline, TriggerFire:
			c.split()
			if dec == TriggerFireAtDeadline {
				s.rt.SleepUntil(tr.Deadline(st))
				c.lap(phaseAwait)
			}
			if err := d.closeRound(); err != nil {
				return err
			}
		}
	}
	return nil
}

// wait is one wakeup of the loop, begun in state st: the completions
// the runtime delivers by the policy's deadline are processed, then the
// resource events and bus records they queued go out. The loop clock
// times it as LoopPhases describes.
func (d *dispatcher) wait(st TriggerState) error {
	s, c := d.s, &d.s.clock
	d.waitAt = st.Now
	deadline := d.tr.Deadline(st)
	n := 1
	if d.batch != nil {
		n = min(max(d.need.Need(st), 1), d.pending)
	}
	sampled := n >= loopSample || c.wakeups%loopSample == 0
	c.wakeups++
	if sampled {
		c.split()
	}
	var hs []task.Handle
	if d.batch != nil {
		hs = d.batch.AwaitBatch(n, deadline)
	} else {
		hs = s.rt.AwaitNext(deadline)
	}
	timed := sampled
	if sampled {
		c.sample(phaseAwait)
	} else if len(hs) >= loopSample {
		c.split()
		timed = true
	}
	for _, h := range hs {
		if err := d.complete(h); err != nil {
			return err
		}
	}
	s.drainResourceEvents()
	s.flushBus() // queued bus events go out once per wakeup
	switch {
	case sampled:
		c.sample(phaseComplete)
	case timed:
		c.lap(phaseComplete)
	}
	return nil
}

// closeRound acts on a fire decision: the exchange event when anything
// can exchange, then budgeted replicas go back to MD and the policy
// opens its next collection round.
func (d *dispatcher) closeRound() error {
	s, c := d.s, &d.s.clock
	s.drainResourceEvents()
	c.lap(phasePublish)
	// A non-aligned fire with fewer than two ready replicas is a no-op:
	// nothing can exchange, and the round — with its MD wall span — keeps
	// accumulating.
	fired := d.aligned || len(d.ready) >= 2
	if fired {
		if err := d.fire(); err != nil {
			return err
		}
		d.roundT0 = s.rt.Now()
	}
	from := d.ready
	if d.aligned {
		from = s.replicas
	}
	resubmitted := d.resubmit(from)
	d.ready, d.readyB = d.ready[:0], 0
	d.tr.Reset(d.state())
	c.lap(phaseDecide)
	if fired || resubmitted > 0 {
		d.noopFires = 0
		return nil
	}
	// Two consecutive no-op fires at the same instant cannot change the
	// trigger's input and would spin forever (e.g. a zero-length window
	// slipped past validation).
	if d.noopFires > 0 && s.rt.Now() <= d.lastFireAt {
		return fmt.Errorf("core: trigger %q fires without progress (livelock)", d.tr.Name())
	}
	d.noopFires++
	d.lastFireAt = s.rt.Now()
	return nil
}

// state is the bookkeeping snapshot the policy is consulted with.
func (d *dispatcher) state() TriggerState {
	st := TriggerState{
		Now:     d.s.rt.Now(),
		Pending: d.pending,
		Alive:   d.alive,
		// dim already points at the upcoming exchange's dimension: fires
		// advance it before Reset opens the next window, so per-dimension
		// policies steer the right actuator pair.
		Dim: d.dim,
	}
	if d.aligned {
		st.Ready = d.done
	} else {
		st.Ready = len(d.ready)
		st.ReadyBudget = d.readyB
	}
	return st
}

// budgeted reports whether r still has MD segments to run.
func (d *dispatcher) budgeted(r *Replica) bool {
	return r.Alive && r.Cycle < d.segBudget
}

// resubmit sends the budgeted replicas of from (in order) to MD and
// returns how many that was.
func (d *dispatcher) resubmit(from []*Replica) int {
	next := d.next[:0]
	for _, r := range from {
		if d.budgeted(r) {
			next = append(next, r)
		}
	}
	d.next = next
	d.submit(next)
	return len(next)
}

// submit sends one MD segment per replica, charging a single
// task-preparation overhead for the whole batch.
func (d *dispatcher) submit(rs []*Replica) {
	if len(rs) == 0 {
		return
	}
	s := d.s
	p := s.engine.PrepOverhead(len(rs), d.ndims)
	s.clock.pause()
	s.rt.Overhead(p)
	s.clock.resume()
	d.prep += p
	d.mdStart = s.rt.Now()
	for _, r := range rs {
		f := &d.flights[r.ID]
		*f = mdFlight{id: int32(r.ID), dim: int32(d.dim), start: d.mdStart}
		d.launch(f)
	}
}

// launch puts f's segment on the runtime's completion stream: the only
// place a watched task is submitted. The spec is stamped with the
// replica's ID here, whatever the engine wrote, because take finds the
// flight through it.
func (d *dispatcher) launch(f *mdFlight) {
	r := d.s.replicas[f.id]
	spec := d.s.engine.MDTask(r, d.s.spec, int(f.dim))
	spec.ReplicaID = r.ID
	f.h = d.s.rt.SubmitWatched(spec)
	d.pending++
}

// take resolves a delivered handle to its flight through the replica ID
// launch stamped and copies the result into it; nothing reads the handle
// afterwards. A handle that is not that flight's own (never submitted
// here, or delivered again after its segment ended) is a runtime fault
// and fails the run.
func (d *dispatcher) take(h task.Handle) (*mdFlight, error) {
	d.checkInvariants()
	res := h.Result()
	if res.Spec == nil || uint(res.Spec.ReplicaID) >= uint(len(d.flights)) ||
		d.flights[res.Spec.ReplicaID].h != h {
		return nil, errors.New("core: runtime delivered a handle that is no replica's in-flight MD segment")
	}
	d.pending--
	f := &d.flights[res.Spec.ReplicaID]
	f.res = res
	return f, nil
}

// complete processes one delivered MD completion: a relaunchable failure
// goes back out, an aligned result waits for the barrier, anything else
// is absorbed and its replica becomes ready.
func (d *dispatcher) complete(h task.Handle) error {
	f, err := d.take(h)
	if err != nil {
		return err
	}
	d.tr.Observe(f.res)
	// Err, not Failed: a value receiver would copy the result each time.
	failed := f.res.Err != nil
	if failed && d.relaunch(f) {
		return nil
	}
	at := max(f.res.Finished, d.waitAt)
	if d.latObs != nil && !failed {
		// Final completion of this segment: its latency spans back to
		// the first submission, so fault-driven relaunch delay widens
		// adaptive windows correctly.
		d.latObs.ObserveLatency(at - f.start)
	}
	if d.aligned {
		// Deferred: the barrier processes the whole batch in submission
		// order at fire time, matching the synchronous pattern's
		// post-barrier accounting.
		d.done++
		return nil
	}
	d.absorb(f, &d.mdAccum, at)
	if r := d.s.replicas[f.id]; r.Alive {
		d.ready = append(d.ready, r)
		if d.budgeted(r) {
			d.readyB++
		}
	}
	return nil
}

// absorb folds the flight's final MD result, stamped at, into its
// replica and the given phase record, tracking deaths, and lands the
// flight.
func (d *dispatcher) absorb(f *mdFlight, phase *PhaseRecord, at float64) {
	r := d.s.replicas[f.id]
	d.s.finishMD(r, f.res, phase, at)
	if !r.Alive {
		d.alive--
	}
	d.s.recordMD(f)
	f.h = nil
}

// relaunch resubmits the flight's failed MD segment as a fresh
// dispatcher event and reports whether it did. Replica failures consume
// the replica's retry budget under FaultRelaunch; resource-loss failures
// (pilot walltime expiry) are resubmitted under either policy against a
// separate per-segment cap, since they are the infrastructure's fault,
// not the replica's.
func (d *dispatcher) relaunch(f *mdFlight) bool {
	s := d.s
	r, res := s.replicas[f.id], f.res
	kind, retries := "", 0
	switch {
	case errors.Is(res.Err, task.ErrResourceLost):
		if int(f.infra) >= s.spec.MaxRetries {
			return false
		}
		f.infra++
		kind, retries = FaultKindResourceLost, int(f.infra)
	case s.spec.FaultPolicy == FaultRelaunch && r.Retries < s.spec.MaxRetries:
		r.Retries++
		f.rel++
		kind, retries = FaultKindRelaunch, r.Retries
	default:
		return false
	}
	s.report.Relaunches++
	publish(s, FaultEvent{At: s.rt.Now(), Replica: r.ID,
		Kind: kind, Retries: retries, Exec: res.Exec})
	s.recordFault(r.ID, kind, retries)
	// The failed attempt is charged to the round it happened in.
	d.mdAccum.absorb(res)
	s.report.MDExecCoreSeconds += res.Exec * float64(res.Spec.Cores)
	d.launch(f)
	return true
}

// fire runs one exchange event and its boundary. The two policy
// families differ in five values, chosen up front: an aligned event is
// one synchronous sub-cycle — indexed by cycle, exchanging over every
// alive replica, its MD wall counted from the round's first submission
// and its wall from the round start, and it is the run's last when fewer
// than two replicas survive it; a non-aligned event is indexed by
// itself, exchanges over the ready subset (FIFO over the collection
// round), counts MD wall as the collection span since the round start
// and its wall is the exchange phase alone.
func (d *dispatcher) fire() error {
	s, c := d.s, &d.s.clock
	cycle, participants, mdOrigin := d.event, d.ready, d.roundT0
	if d.aligned {
		cycle, participants, mdOrigin = d.event/d.ndims, s.replicas, d.mdStart
	}
	rec := CycleRecord{Cycle: cycle, Dim: d.dim, At: s.rt.Now(),
		MD: d.mdAccum, RepExOverhead: d.prep}
	d.mdAccum, d.prep = PhaseRecord{}, 0
	if d.aligned {
		// The barrier's deferred batch, in submission order.
		for _, r := range d.next {
			d.absorb(&d.flights[r.ID], &rec.MD, rec.At)
		}
		d.done = 0
	}
	c.lap(phaseComplete)
	exStart := s.rt.Now()
	rec.MD.Wall = exStart - mdOrigin
	if !s.spec.DisableExchange {
		// exchangePhase skips dead participants itself.
		s.exchangePhase(participants, d.dim, cycle, &rec)
		rec.EX.Wall = s.rt.Now() - exStart
		s.recordExchange(d.event, d.dim, exStart, &rec)
	}
	c.lap(phaseExchange)
	rec.Wall = rec.EX.Wall
	if d.aligned {
		rec.Wall = s.rt.Now() - d.roundT0
	}
	s.report.Records = append(s.report.Records, rec)
	s.report.ExchangeEvents++
	s.snapshotSlots()
	s.publishExchange(d.event, cycle, d.dim, &rec)
	s.recordController(d.fb, d.dim, d.event)
	c.lap(phasePublish)
	if d.aligned && d.alive < 2 {
		return fmt.Errorf("core: fewer than two replicas alive after cycle %d", cycle)
	}
	d.event++
	d.dim = d.event % d.ndims

	// Respace before the boundary's snapshot so a refit and the
	// checkpoint that persists it land atomically.
	s.maybeRespace(d.fb, d.event)
	c.lap(phaseRespace)
	err := d.maybeSnapshot()
	c.lap(phaseSnapshot)
	if err != nil {
		return err
	}
	d.checkInvariants()
	// Cancellation is honoured only at fired boundaries: after a no-op
	// fire, ready-but-unexchanged replicas would not be reconstructible
	// from a snapshot, so the run keeps going to the next real event.
	if d.ctx.Err() != nil {
		return d.cancel()
	}
	return nil
}

// cancel stops the run at an exchange-event boundary. The snapshot is
// captured first, so it has exactly the shape of a periodic one: taken
// right after a fire, with no partially-absorbed MD results. Every
// in-flight segment is then awaited and discarded — never absorbed into
// replica state, so the engine's RNG stream stays at the boundary and
// the discarded segments are simply redone on resume, reproducing the
// uninterrupted run's slot history exactly.
func (d *dispatcher) cancel() error {
	s := d.s
	sn, snErr := d.captureSnapshot()
	for d.pending > 0 {
		for _, h := range s.rt.AwaitNext(math.Inf(1)) {
			f, err := d.take(h)
			if err != nil {
				return err
			}
			s.report.CancelledUnits++
			publish(s, FaultEvent{At: s.rt.Now(), Replica: int(f.id),
				Kind: FaultKindCancelled})
			s.recordFault(int(f.id), FaultKindCancelled, 0)
			f.h = nil
		}
	}
	s.flushBus()
	if snErr != nil {
		return snErr
	}
	if s.spec.OnSnapshot != nil {
		s.spec.OnSnapshot(sn)
		s.recordCheckpoint(d.event, "cancel")
	}
	return fmt.Errorf("core: %w at exchange event %d", ErrRunCancelled, d.event)
}

// exchangePhase performs one exchange along dimension d among the given
// participants: the single-point-energy tasks a dimension requires
// (salt), the exchange-computation task, the Metropolis sweep and the
// parameter swaps. Exchange groups are the grid lines along d restricted
// to alive participants; groups with fewer than two members cannot
// exchange and simply keep simulating. sweep seeds the alternating
// neighbour pairing.
//
// The Metropolis sweep is one serial pass in pair order: each pair
// draws its uniform, computes its acceptance probability, decides and
// swaps. Pairs are disjoint — a replica belongs to exactly one group
// along d and to at most one pair per sweep — so no swap reaches
// another pair's probability.
func (s *Simulation) exchangePhase(participants []*Replica, d, sweep int, rec *CycleRecord) {
	in := s.inScratch
	for _, r := range participants {
		if r.Alive {
			in[r.ID] = true
		}
	}
	members, off := s.collectGroups(d, in)
	for _, r := range participants {
		in[r.ID] = false
	}
	nGroups := len(off) - 1
	if nGroups == 0 {
		return
	}

	// Client-side preparation of exchange tasks.
	prep := s.engine.PrepOverhead(nGroups, len(s.spec.Dims))
	s.clock.pause()
	s.rt.Overhead(prep)
	s.clock.resume()
	rec.RepExOverhead += prep

	// Single-point energy tasks (salt exchange): one per replica, wide
	// as its group, doubling the task count — the paper's stated cause
	// of S-REMD's exchange cost.
	speStart := s.rt.Now()
	spe := s.speScratch[:0]
	for gi := 0; gi < nGroups; gi++ {
		for _, spec := range s.engine.SinglePointTasks(d, members[off[gi]:off[gi+1]], s.spec) {
			spe = append(spe, s.rt.Submit(spec))
		}
	}
	s.speScratch = spe
	if len(spe) > 0 {
		s.clock.pause()
		results := s.rt.AwaitAll(spe)
		s.clock.resume()
		for _, res := range results {
			rec.EX.absorb(res)
		}
		s.recordSPE(d, sweep, len(spe), speStart)
	}

	// The exchange-computation task itself (partner determination).
	if exSpec := s.engine.ExchangeTask(d, len(members), s.spec); exSpec != nil {
		h := s.rt.Submit(exSpec)
		s.clock.pause()
		res := s.rt.Await(h)
		s.clock.resume()
		rec.EX.absorb(res)
	}

	// Neighbour pair lists, flat across groups in group order — the same
	// pair order the per-group serial sweep produced.
	ids := s.exIDs[:0]
	for _, r := range members {
		ids = append(ids, r.ID)
	}
	s.exIDs = ids
	pairs := s.exPairs[:0]
	for gi := 0; gi < nGroups; gi++ {
		pairs = exchange.AppendNeighborPairs(pairs, ids[off[gi]:off[gi+1]], sweep)
	}
	s.exPairs = pairs

	pairStart := s.rt.Now()
	a0 := rec.Accepted
	wantOut := s.wantsPairOutcomes()
	if wantOut && len(pairs) > 0 {
		// A new chunk holds at least eight events of this size.
		s.pairScratch = s.outcomes.Carve(len(pairs), 8, 0)[:0]
	}
	s.rngDraws += int64(len(pairs))
	for _, pr := range pairs {
		rec.Attempted++
		u := s.rng.Float64()
		accepted := u < s.pairProbability(d, s.replicas[pr.I], s.replicas[pr.J])
		if wantOut {
			// Captured before applySwap: Lo/Hi are the partners'
			// window indices along d at decision time.
			ci := s.coordAlong(s.replicas[pr.I].Slot, d)
			cj := s.coordAlong(s.replicas[pr.J].Slot, d)
			out := PairOutcome{Lo: ci, Hi: cj, ReplicaI: pr.I, ReplicaJ: pr.J,
				Accepted: accepted}
			if out.Lo > out.Hi {
				out.Lo, out.Hi = out.Hi, out.Lo
				out.ReplicaI, out.ReplicaJ = out.ReplicaJ, out.ReplicaI
			}
			s.pairScratch = append(s.pairScratch, out)
		}
		if accepted {
			rec.Accepted++
			s.applySwap(s.replicas[pr.I], s.replicas[pr.J])
		}
	}
	s.recordPairs(d, sweep, len(pairs), rec.Accepted-a0, pairStart)
}
