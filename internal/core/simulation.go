package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/exchange"
	"repro/internal/md"
	"repro/internal/slab"
	"repro/internal/task"
	"repro/internal/trace"
)

// Simulation is a configured REMD run: the EMM of the paper's module
// structure. It owns the replica set, the slot-to-replica mapping and
// all runtime interaction; it is engine independent.
type Simulation struct {
	spec   *Spec
	engine Engine
	rt     task.Runtime

	grid       exchange.Grid
	replicas   []*Replica
	replicaAt  []int // slot -> replica ID
	slotParams []md.Params
	// slotGroups caches grid.GroupsAlong per dimension: the grouping is a
	// pure function of the grid shape, so recomputing it on every
	// exchange event (hot for asynchronous triggers) would be waste.
	slotGroups [][][]int
	// dimStride caches the row-major stride of each dimension for O(1)
	// slot-to-window-index conversion when publishing pair outcomes.
	dimStride []int
	// pairScratch accumulates the current exchange event's pair outcomes
	// for the event bus and the trigger's ExchangeObserver hook (nil
	// while neither consumer is attached). It is carved from outcomes,
	// sized once, and leaves with the published ExchangeEvent.
	pairScratch []PairOutcome
	// rows and outcomes are the write-once storage of the slot-history
	// rows and the pair outcomes: the report, the bus's ExchangeEvents
	// and every snapshot share what they hand out.
	rows     slab.Slab[int]
	outcomes slab.Slab[PairOutcome]
	// rowsLeft is the number of exchange events an aligned run has left
	// to record (0 when the policy does not fix it), set by
	// newDispatcher: no row chunk is carved past the run's end.
	rowsLeft int
	// exObs is the running trigger's ExchangeObserver side, set by
	// newDispatcher for closed-loop policies (nil otherwise).
	exObs ExchangeObserver
	rng   *rand.Rand
	// rngDraws counts uniforms consumed from rng, so a Snapshot can
	// restore the exact RNG state by replaying the draw count.
	rngDraws int64

	// Exchange-phase scratch, reused across events so the hot loop
	// allocates nothing per exchange: participant membership by replica
	// ID, the flat group members with their boundary offsets and IDs, the
	// flat pair list, and the single-point-energy handles.
	inScratch  []bool
	exMembers  []*Replica
	exOff      []int
	exIDs      []int
	exPairs    []exchange.Pair
	speScratch []task.Handle
	// busBatch accumulates a collection round's bus records for one
	// batched Bus.publish call per dispatcher wakeup.
	busBatch []BusRecord
	// tracer is the optional flight recorder (Spec.Tracer); the
	// record* helpers in tracer.go no-op while it is nil.
	tracer *trace.Recorder

	// respaceMu guards the fields a live ladder re-fit rewrites against
	// concurrent status readers: spec.Dims values, slotParams and the
	// respacing history. Only the dispatcher goroutine mutates them; HTTP
	// surfaces read through Respacing.
	respaceMu sync.Mutex
	// respacings is the run's refit history (appended by applyRespace),
	// the one record of refits: the MaxRefits budget counts it too.
	respacings []RespaceRecord

	// clock is the run's wall clock by loop phase (LoopSeconds): it never
	// reaches the virtual clock, the report or a snapshot.
	clock loopClock

	report *Report
}

// New validates the spec and builds the replica set with initial
// parameters; replica i starts in slot i.
func New(spec *Spec, engine Engine, rt task.Runtime) (*Simulation, error) {
	born := time.Now()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.MaxRetries == 0 {
		spec.MaxRetries = DefaultMaxRetries
	}
	for _, dim := range spec.Dims {
		if dim.Type == exchange.Umbrella && engine.TorsionIndex(dim.Torsion) < 0 {
			return nil, fmt.Errorf("core: engine %q has no torsion labelled %q", engine.Name(), dim.Torsion)
		}
	}
	grid := spec.Grid()
	n := grid.Size()
	s := &Simulation{
		spec:       spec,
		engine:     engine,
		rt:         rt,
		grid:       grid,
		replicas:   make([]*Replica, n),
		replicaAt:  make([]int, n),
		slotParams: make([]md.Params, n),
		rng:        rand.New(rand.NewSource(spec.Seed)),
		tracer:     spec.Tracer,
	}
	s.clock.mark = born
	s.dimStride = make([]int, len(spec.Dims))
	stride := 1
	for d := len(spec.Dims) - 1; d >= 0; d-- {
		s.dimStride[d] = stride
		stride *= len(spec.Dims[d].Values)
	}
	s.fillSlotParams()
	s.slotGroups = make([][][]int, len(spec.Dims))
	groups := 0
	for d := range spec.Dims {
		s.slotGroups[d] = grid.GroupsAlong(d)
		groups = max(groups, len(s.slotGroups[d]))
	}
	// An exchange event has at most every replica as a member, a boundary
	// a group and a pair every two members: its scratch is sized for that
	// once, here, and never grows.
	s.exMembers = make([]*Replica, 0, n)
	s.exOff = make([]int, 0, groups+1)
	s.exIDs = make([]int, 0, n)
	s.exPairs = make([]exchange.Pair, 0, n/2)
	// A salt exchange submits one single-point task a member
	// (Engine.SinglePointTasks), and the bus gets at most a completion a
	// replica at one wakeup, plus the exchange event at a barrier.
	for _, dim := range spec.Dims {
		if dim.Type == exchange.Salt {
			s.speScratch = make([]task.Handle, 0, n)
			break
		}
	}
	if spec.Bus != nil {
		s.busBatch = make([]BusRecord, 0, n+1)
	}
	// The replicas and their restraint arrays are carved from one backing
	// array each: a run allocates them once, not once per replica.
	reps := make([]Replica, n)
	free := make([]md.TorsionRestraint, n*s.umbrellaDims())
	for i := range reps {
		r := &reps[i]
		*r = Replica{ID: i, Slot: i, Params: s.slotParams[i], Alive: true}
		r.Params.Restraints = slab.Copy(&free, r.Params.Restraints)
		engine.InitReplica(r, spec)
		s.replicas[i] = r
		s.replicaAt[i] = i
	}
	s.inScratch = make([]bool, n)
	mode := ModeI
	if rt.Cores() < n*spec.CoresPerReplica {
		mode = ModeII
	}
	s.report = &Report{
		Name:            spec.Name,
		DimCode:         spec.DimCode(),
		Mode:            mode,
		Engine:          engine.Name(),
		Replicas:        n,
		Cores:           rt.Cores(),
		Cycles:          spec.Cycles,
		SlotFingerprint: fnv64Offset,
	}
	if sn := spec.Resume; sn != nil {
		if err := checkResume(spec, engine, len(s.replicas[0].Synth)); err != nil {
			return nil, err
		}
		s.applySnapshot(sn)
		// A stateful policy takes its controller state back, so the
		// resumed run makes the uninterrupted run's trigger decisions.
		if st, ok := spec.Trigger.(StatefulTrigger); ok && len(sn.TriggerData) > 0 {
			if err := st.RestoreState(sn.TriggerData); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// fillSlotParams derives every slot's thermodynamic parameters from the
// current dimension values. The slots' restraint arrays are carved from
// one fresh backing array, so a refit never writes into an array a
// reader already holds.
func (s *Simulation) fillSlotParams() {
	nu := s.umbrellaDims()
	free := make([]md.TorsionRestraint, len(s.slotParams)*nu)
	for slot := range s.slotParams {
		s.slotParams[slot] = s.paramsForSlot(slot, free[:0:nu])
		free = free[nu:]
	}
}

// umbrellaDims counts the umbrella dimensions: the restraints each
// slot's parameters carry.
func (s *Simulation) umbrellaDims() int {
	n := 0
	for _, dim := range s.spec.Dims {
		if dim.Type == exchange.Umbrella {
			n++
		}
	}
	return n
}

// paramsForSlot derives the thermodynamic parameters of a grid slot,
// appending its restraints to rs.
func (s *Simulation) paramsForSlot(slot int, rs []md.TorsionRestraint) md.Params {
	// 300 K and no salt along the dimensions a run does not exchange.
	p := md.Params{TemperatureK: 300}
	for d, dim := range s.spec.Dims {
		v := dim.Values[s.coordAlong(slot, d)]
		switch dim.Type {
		case exchange.Temperature:
			p.TemperatureK = v
		case exchange.Salt:
			p.SaltM = v
		case exchange.PH:
			p.PH = v
		case exchange.Umbrella:
			rs = append(rs, md.TorsionRestraint{
				Dihedral: s.engine.TorsionIndex(dim.Torsion),
				Center:   v,
				K:        dim.K,
			})
		}
	}
	if len(rs) > 0 {
		p.Restraints = rs
	}
	return p
}

// Replicas exposes the replica set (read-mostly; used by analysis).
func (s *Simulation) Replicas() []*Replica { return s.replicas }

// SlotParams returns the fixed parameters of a slot.
func (s *Simulation) SlotParams(slot int) md.Params { return s.slotParams[slot] }

// finishMD processes one final MD task result, stamping its bus records
// at: cycle count and energy refresh, or replica death. Relaunchable
// failures never reach this point — dispatcher.relaunch resubmits them
// as fresh events — so a result that arrives here failed has exhausted
// its retry budget (or runs under FaultDrop) and removes the replica.
func (s *Simulation) finishMD(r *Replica, res task.Result, phase *PhaseRecord, at float64) {
	phase.absorb(res)
	s.report.MDExecCoreSeconds += res.Exec * float64(res.Spec.Cores)
	if res.Failed() {
		r.Alive = false
		s.report.Dropped++
		publishMD(s, MDEvent{At: at, Replica: r.ID, Cycle: r.Cycle,
			Exec: res.Exec, Failed: true})
		publish(s, FaultEvent{At: at, Replica: r.ID,
			Kind: FaultKindDrop, Retries: r.Retries})
		s.recordFault(r.ID, FaultKindDrop, r.Retries)
		return
	}
	r.Cycle++
	r.Energy = s.engine.OwnEnergy(r)
	publishMD(s, MDEvent{At: at, Replica: r.ID, Cycle: r.Cycle,
		Exec: res.Exec})
}

// publish queues one event for the next batched bus flush; a no-op
// without a bus. Queued events reach subscribers in publication order
// when the dispatcher calls flushBus (once per wakeup / exchange event),
// which takes each subscriber's ring lock once per batch instead of once
// per event. It takes the concrete event type so that the conversion to
// Event, an allocation, happens only when somebody will receive it; MD
// completions skip it through publishMD.
func publish[E Event](s *Simulation, ev E) {
	if s.spec.Bus != nil {
		s.busBatch = append(s.busBatch, BusRecord{Other: ev})
	}
}

// publishMD queues one MD completion by value.
func publishMD(s *Simulation, ev MDEvent) {
	if s.spec.Bus != nil {
		s.busBatch = append(s.busBatch, BusRecord{MD: ev})
	}
}

// flushBus delivers the queued batch to the bus.
func (s *Simulation) flushBus() {
	if len(s.busBatch) == 0 {
		return
	}
	s.spec.Bus.publish(s.busBatch)
	clear(s.busBatch)
	s.busBatch = s.busBatch[:0]
}

// drainResourceEvents pulls buffered pilot lifecycle events out of an
// elastic runtime (one implementing task.ResourceReporter) into the
// observability pipeline: each is queued on the bus as a ResourceEvent,
// mirrored onto the flight recorder, and preemption notices bump the
// report counter. Runtimes without the interface make this a no-op, and
// nothing here touches the RNG stream or the virtual clock.
func (s *Simulation) drainResourceEvents() {
	rr, ok := s.rt.(task.ResourceReporter)
	if !ok {
		return
	}
	for _, ev := range rr.DrainResourceEvents() {
		if ev.Kind == task.ResourcePreempt {
			s.report.Preemptions++
		}
		publish(s, ResourceEvent(ev))
		s.recordResource(ev)
	}
}

// coordAlong returns slot's window index along dimension d.
func (s *Simulation) coordAlong(slot, d int) int {
	return slot / s.dimStride[d] % len(s.spec.Dims[d].Values)
}

// wantsPairOutcomes reports whether anyone consumes per-pair exchange
// outcomes: the event bus or a closed-loop trigger's observer hook.
func (s *Simulation) wantsPairOutcomes() bool {
	return s.spec.Bus != nil || s.exObs != nil
}

// publishExchange emits the ExchangeEvent record of the exchange event
// that just completed; called by the dispatcher right after
// snapshotSlots, so Slots shares the freshly appended history row. The
// trigger's ExchangeObserver hook (closed-loop policies) is fed first,
// synchronously — it can never lose events to ring overflow — then the
// bus fans the same record out to its subscribers.
func (s *Simulation) publishExchange(event, cycle, dim int, rec *CycleRecord) {
	if !s.wantsPairOutcomes() {
		return
	}
	pairs := s.pairScratch
	s.pairScratch = nil
	var row []int
	if n := len(s.report.SlotHistory); n > 0 {
		row = s.report.SlotHistory[n-1]
	}
	ev := ExchangeEvent{At: s.rt.Now(), Event: event, Cycle: cycle,
		Dim: dim, Pairs: pairs, Slots: row, MDWall: rec.MD.Wall, EXWall: rec.EX.Wall}
	if s.exObs != nil {
		s.exObs.ObserveExchange(ev)
	}
	publish(s, ev)
	s.flushBus()
}

// pairProbability computes the Metropolis acceptance probability for
// swapping the slots of replicas a and b along dimension d.
func (s *Simulation) pairProbability(d int, a, b *Replica) float64 {
	dim := s.spec.Dims[d]
	betaA := a.Params.Beta()
	betaB := b.Params.Beta()
	if dim.Type == exchange.Temperature {
		return exchange.AcceptTemperature(betaA, betaB, a.Energy, b.Energy)
	}
	// Hamiltonian exchange: cross energies of each configuration under
	// the other's parameters.
	eAA := a.Energy
	eBB := b.Energy
	eAB := s.engine.CrossEnergy(b, a.Params) // A's params on B's coords
	eBA := s.engine.CrossEnergy(a, b.Params) // B's params on A's coords
	return exchange.AcceptHamiltonian(betaA, betaB, eAA, eAB, eBA, eBB)
}

// applySwap exchanges the grid slots (and hence parameters) of two
// replicas. An engine that keeps velocities rescales them to the new
// temperature when it builds the replica's next segment.
func (s *Simulation) applySwap(a, b *Replica) {
	a.Slot, b.Slot = b.Slot, a.Slot
	s.replicaAt[a.Slot] = a.ID
	s.replicaAt[b.Slot] = b.ID
	s.takeSlotParams(a)
	s.takeSlotParams(b)
}

// takeSlotParams sets r's parameters to its slot's, copying the
// restraints into r's own array rather than a fresh clone. Swaps and a
// resume call it, and they only touch replicas with no segment in
// flight; an engine that keeps parameters past a call
// (engines.Real.MDTask) copies them into an array of its own.
func (s *Simulation) takeSlotParams(r *Replica) {
	p := s.slotParams[r.Slot]
	p.Restraints = append(r.Params.Restraints[:0], p.Restraints...)
	r.Params = p
}

// snapshotSlots records the replicas' current slot assignment: the row
// is folded into the rolling fingerprint and appended to the report's
// slot history, which Spec.HistoryTail bounds to the most recent rows.
// The row is carved from the rows slab and never written again, so
// ExchangeEvent.Slots, a snapshot and a resumed report share it; a
// rotated-out row is not recycled but left to whoever still holds it.
func (s *Simulation) snapshotSlots() {
	hist := s.report.SlotHistory
	tail := s.spec.HistoryTail
	rotate := tail > 0 && len(hist) >= tail
	// A new row chunk holds no more rows than a tail keeps (a bounded
	// history's rows stay within twice its tail) or than an aligned run
	// has left to record (it ends with none to spare).
	left := s.rowsLeft
	if tail > 0 && (left == 0 || tail < left) {
		left = tail
	}
	row := s.rows.Carve(len(s.replicas), 8, left)
	for i, r := range s.replicas {
		row[i] = r.Slot
	}
	s.rowsLeft = max(s.rowsLeft-1, 0)
	if !rotate && len(hist) == cap(hist) {
		hist = slices.Grow(hist, s.rows.Room()/len(row)+1)
	}
	s.report.SlotFingerprint = fnvRow(s.report.SlotFingerprint, row)
	s.report.SlotRows++
	if rotate {
		copy(hist, hist[1:])
		hist[len(hist)-1] = row
	} else {
		hist = append(hist, row)
	}
	s.report.SlotHistory = hist
}

// collectGroups fills the exchange-group scratch for dimension d with
// the alive replicas for which keep (indexed by replica ID) is true,
// dropping groups of fewer than two, which cannot exchange. It returns
// the flat member slice and the group boundary offsets: group i is
// members[off[i]:off[i+1]]. Both returned slices alias per-simulation
// scratch and are valid until the next call.
func (s *Simulation) collectGroups(d int, keep []bool) ([]*Replica, []int) {
	members := s.exMembers[:0]
	off := s.exOff[:0]
	for _, slots := range s.slotGroups[d] {
		start := len(members)
		for _, slot := range slots {
			r := s.replicas[s.replicaAt[slot]]
			if r.Alive && keep[r.ID] {
				members = append(members, r)
			}
		}
		if len(members)-start >= 2 {
			off = append(off, start)
		} else {
			members = members[:start]
		}
	}
	off = append(off, len(members))
	s.exMembers, s.exOff = members, off
	return members, off
}
