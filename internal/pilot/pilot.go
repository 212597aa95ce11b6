// Package pilot implements a pilot-job runtime in virtual time, modelled
// on RADICAL-Pilot (Merzky et al.), the runtime system RepEx builds on.
//
// A Pilot is a placeholder job: it waits in the machine's batch queue,
// then holds a block of cores for the workload. Compute units (tasks) are
// submitted to the pilot independently of the machine's batch system and
// go through the RADICAL-Pilot unit lifecycle:
//
//	NEW -> STAGING_IN -> SCHEDULING -> EXECUTING -> STAGING_OUT -> DONE/FAILED
//
// Three overhead sources are modelled explicitly because the paper
// measures them (Figure 5):
//
//   - staging through the shared filesystem (T_data),
//   - the agent's serialized task launcher, making launch overhead
//     proportional to the number of concurrent tasks (T_RP-over), and
//   - a wave-scheduling penalty for units that had to wait for cores
//     (the RP 0.35 "MPI task scheduling issue" visible in Figure 11b).
//
// Pilots are mortal: Description.Walltime bounds a pilot's life like a
// real batch job, and on expiry executing and queued units fail with
// ErrPilotExpired (wrapping task.ErrResourceLost) while the machine
// allocation is released. Runtime (runtime.go) is the one task.Runtime
// over pilots: a row of routing slots, each holding a pilot and — with
// Failover — replacing it in place when it dies. One slot is the
// paper's single pilot; several slots, possibly on several machines,
// are how one REMD simulation spans multiple HPC resources at once.
package pilot

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/task"
)

// ErrTaskFailed is the error recorded on a unit killed by fault injection.
var ErrTaskFailed = errors.New("pilot: task failed (injected fault)")

// ErrPilotExpired is the error recorded on units interrupted by their
// pilot's walltime expiring. It wraps task.ErrResourceLost so the
// scheduler recognises it as an infrastructure failure (resubmit without
// charging the replica's fault budget) rather than a task failure.
var ErrPilotExpired = fmt.Errorf("pilot: walltime expired: %w", task.ErrResourceLost)

// ErrPilotPreempted is the error recorded on units killed when a
// preemption notice's window runs out, and on submissions a draining
// pilot refuses. Like ErrPilotExpired it wraps task.ErrResourceLost.
var ErrPilotPreempted = fmt.Errorf("pilot: preempted: %w", task.ErrResourceLost)

// ErrNodeLost is the error recorded on units killed by a node failing
// inside a live allocation (LoseCores). The pilot itself survives,
// smaller; only the units on the lost cores fail. Wraps
// task.ErrResourceLost.
var ErrNodeLost = fmt.Errorf("pilot: node lost: %w", task.ErrResourceLost)

// ErrNoCapacity is the error recorded on units whose core request can
// never be satisfied by the pilot's *current* core count (after node
// losses or shrinking resizes). Wraps task.ErrResourceLost so the
// scheduler resubmits — with several routing slots the resubmission
// routes to a pilot that still fits the task.
var ErrNoCapacity = fmt.Errorf("pilot: task wider than remaining cores: %w", task.ErrResourceLost)

// State is the compute-unit lifecycle state.
type State int

// Unit lifecycle states.
const (
	StateNew State = iota
	StateStagingIn
	StateScheduling
	StateExecuting
	StateStagingOut
	StateDone
	StateFailed
)

// String returns the RADICAL-Pilot style state name.
func (s State) String() string {
	switch s {
	case StateNew:
		return "NEW"
	case StateStagingIn:
		return "STAGING_IN"
	case StateScheduling:
		return "SCHEDULING"
	case StateExecuting:
		return "EXECUTING"
	case StateStagingOut:
		return "STAGING_OUT"
	case StateDone:
		return "DONE"
	case StateFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("STATE(%d)", int(s))
	}
}

// Description describes a pilot: the core count to hold and a walltime.
// A positive Walltime bounds the pilot's life: that many virtual seconds
// after the allocation becomes active, the pilot expires — executing and
// queued units fail with ErrPilotExpired and the machine allocation is
// released, exactly like a batch system killing an over-walltime job.
// Zero or negative means unbounded.
type Description struct {
	Cores    int
	Walltime float64
}

// Pilot is a live pilot job.
type Pilot struct {
	env    *sim.Env
	cl     *cluster.Cluster
	cfg    cluster.Config
	desc   Description
	cores  *sim.Resource
	active *sim.Completion
	alloc  *cluster.Allocation
	// The agent's launcher serves one unit at a time, FIFO, for a fixed
	// hold: gap for a unit that got its cores at once, gapWave for one
	// that waited for them (wave penalty). A unit's turn is known when it
	// asks, so it is booked, not queued: launcherFree is when the units
	// booked so far have left the launcher. Each then sleeps the launch
	// latency.
	gap, gapWave float64
	launcherFree float64
	latency      *sim.Delay
	// expiry fires when the pilot terminates (walltime, preemption
	// deadline or full node loss); Launch builds it, and only expire
	// completes it, once.
	expiry  *sim.Completion
	expired bool
	// expireErr records why the pilot ended (ErrPilotExpired,
	// ErrPilotPreempted or ErrNodeLost).
	expireErr error
	// curCores is the pilot's current core count: desc.Cores minus node
	// losses and shrinks, plus elastic grows.
	curCores int
	// draining is set by a preemption notice: no new submissions, units
	// already in flight run until the notice window closes.
	draining bool
	// oldest/newest are the ends of the intrusive list (Unit.older/newer)
	// of units currently holding cores: expiry walks it oldest first, node
	// loss kills from the newest end, and a finishing unit unlinks itself
	// in O(1).
	oldest, newest *Unit
	// events buffers resource lifecycle changes until a runtime drains
	// them (task.ResourceReporter).
	events []task.ResourceEvent

	unitsSubmitted int
	unitsDone      int
	unitsFailed    int
	unitsExpired   int
}

// Unit is a submitted compute unit; it implements task.Handle. A unit is
// one allocation: it embeds its stepped simulation process, its latches
// and the scratch its lifecycle carries between wakeups.
type Unit struct {
	pl    *Pilot
	spec  *task.Spec
	state State
	res   task.Result
	done  sim.Completion
	// interrupt fires to kill this unit mid-flight, carrying the cause
	// (walltime expiry, preemption deadline, node loss). Waiting on it
	// with a timeout is the unit's execution sleep: for an unmolested
	// unit it schedules exactly the one timeout event a plain sleep
	// would, so elastic pilots cost nothing on the happy path.
	interrupt sim.Completion
	// rt, when set, is the runtime that routed the unit to slot; the
	// unit's lifecycle reports to it right after reaching DONE or FAILED
	// (one call per completion: O(1), nothing allocated per unit), and a
	// watched unit is then delivered on the runtime's completion stream.
	rt      *Runtime
	slot    int
	watched bool

	// Lifecycle state (see step): the process, where it resumes, and
	// what it remembers across wakeups.
	proc    sim.Proc
	phase   unitPhase
	staging cluster.Staging
	mark    float64 // start of the interval being measured (t0, t1, t2 in turn)
	failing bool    // fault injection chose this unit: it dies at half its duration

	// older/newer link the pilot's list of units holding cores.
	older, newer *Unit
}

// Done reports whether the unit reached DONE or FAILED.
func (u *Unit) Done() bool { return u.done.Done() }

// Name returns the name of the unit's simulation process.
func (u *Unit) Name() string { return "unit:" + u.spec.Label() }

// Result returns the unit's record; valid once Done is true.
func (u *Unit) Result() task.Result { return u.res }

// State returns the unit's current lifecycle state.
func (u *Unit) State() State { return u.state }

// Launch submits a pilot to the cluster's batch queue and returns
// immediately; the pilot becomes active after the queue wait. An error is
// returned only for impossible descriptions (more cores than the machine
// has).
func Launch(cl *cluster.Cluster, desc Description) (*Pilot, error) {
	if desc.Cores <= 0 {
		return nil, fmt.Errorf("pilot: core count must be positive, got %d", desc.Cores)
	}
	if desc.Cores > cl.TotalCores() {
		return nil, fmt.Errorf("pilot: %d cores exceed machine %s (%d cores)",
			desc.Cores, cl.Config().Name, cl.TotalCores())
	}
	env, cfg := cl.Env(), cl.Config()
	pl := &Pilot{
		env:      env,
		cl:       cl,
		cfg:      cfg,
		desc:     desc,
		curCores: desc.Cores,
		cores:    sim.NewResource(env, desc.Cores),
		gap:      max(cfg.LaunchGap, 0),
		gapWave:  max(cfg.LaunchGap+cfg.WavePenalty, 0),
		latency:  env.Delay(cfg.LaunchLatency),
		active:   sim.NewCompletion(env),
		expiry:   sim.NewCompletion(env),
	}
	env.Go(fmt.Sprintf("pilot-%s", cl.Config().Name), func(p *sim.Proc) {
		alloc, err := cl.Allocate(p, desc.Cores)
		if err != nil {
			pl.active.Complete(err)
			return
		}
		pl.alloc = alloc
		pl.record(task.ResourceLaunch, desc.Cores, 0)
		pl.active.Complete(nil)
		if desc.Walltime > 0 {
			// Walltime watchdog: the batch system reclaims the
			// allocation that many seconds after it became active —
			// unless preemption or a full node loss terminated the
			// pilot first (expiry fires, the wait returns early).
			if !pl.expiry.AwaitTimeout(p, desc.Walltime) {
				pl.expire(ErrPilotExpired)
			}
		}
	})
	return pl, nil
}

// record buffers one resource lifecycle event at the current time.
func (pl *Pilot) record(kind string, delta int, notice float64) {
	pl.events = append(pl.events, task.ResourceEvent{
		At:     pl.env.Now(),
		Kind:   kind,
		Cores:  pl.curCores,
		Delta:  delta,
		Notice: notice,
	})
}

// TakeEvents returns and clears the buffered resource lifecycle events
// in occurrence order. The Pilot field is zero; the owning runtime
// stamps its routing slot.
func (pl *Pilot) TakeEvents() []task.ResourceEvent {
	ev := pl.events
	pl.events = nil
	return ev
}

// expire terminates the pilot with the given cause: executing units are
// interrupted, the machine allocation is released and future
// submissions fail fast. Idempotent — the first cause wins.
func (pl *Pilot) expire(err error) {
	if pl.expired {
		return
	}
	pl.expired = true
	pl.expireErr = err
	pl.expiry.Complete(err)
	for u := pl.oldest; u != nil; u = u.newer {
		if !u.interrupt.Done() {
			u.interrupt.Complete(err)
		}
	}
	if pl.alloc != nil {
		pl.alloc.Release()
	}
	delta := -pl.curCores
	pl.curCores = 0
	pl.record(task.ResourceExpire, delta, 0)
}

// LoseCores models a node failure inside the live allocation: the pilot
// shrinks by n cores instead of dying. Units on the lost cores (newest
// first) fail with ErrNodeLost; everything else keeps running on the
// smaller pilot. Losing every remaining core terminates the pilot.
// Returns the cores actually removed (0 before activation or after
// expiry).
func (pl *Pilot) LoseCores(n int) int {
	if n <= 0 || pl.expired || pl.alloc == nil {
		return 0
	}
	if n >= pl.curCores {
		// Losing every remaining core: the expire event carries the drop.
		n = pl.curCores
		pl.expire(ErrNodeLost)
		return n
	}
	pl.curCores -= n
	pl.cores.SetCapacity(pl.curCores)
	// Kill newest units until the held cores fit the shrunk capacity.
	// InUse only drops when the interrupted unit processes wake and
	// release, so track the excess locally.
	excess := pl.cores.InUse() - pl.curCores
	for u := pl.newest; u != nil && excess > 0; u = u.older {
		if u.interrupt.Done() {
			continue
		}
		u.interrupt.Complete(ErrNodeLost)
		excess -= u.spec.Cores
	}
	pl.alloc.ReleasePartial(n)
	pl.record(task.ResourceShrink, -n, 0)
	return n
}

// Preempt delivers a spot-style preemption notice: the pilot stops
// accepting submissions immediately (Draining), lets in-flight units
// run for up to notice virtual seconds, then expires with
// ErrPilotPreempted — killing whatever did not finish in the window. A
// non-positive notice expires the pilot immediately. No-op before
// activation, after expiry, or when a notice is already pending.
func (pl *Pilot) Preempt(notice float64) {
	if pl.expired || pl.draining || pl.alloc == nil {
		return
	}
	pl.draining = true
	pl.record(task.ResourcePreempt, 0, notice)
	if notice <= 0 {
		pl.expire(ErrPilotPreempted)
		return
	}
	pl.env.Go(fmt.Sprintf("pilot-%s-preempt", pl.cl.Config().Name), func(p *sim.Proc) {
		// Race the notice window against other terminations (walltime);
		// expire is idempotent, so whichever fires first wins.
		if !pl.expiry.AwaitTimeout(p, notice) {
			pl.expire(ErrPilotPreempted)
		}
	})
}

// Resize changes the pilot's core count by delta. Growing acquires
// cores from the machine without queueing (failing if none are free);
// shrinking is graceful — capacity drops and over-committed cores drain
// as units finish, no unit is killed — and is clamped to keep at least
// one core (use LoseCores or Preempt to end a pilot). Returns the
// signed change actually applied.
func (pl *Pilot) Resize(delta int) int {
	if delta == 0 || pl.expired || pl.alloc == nil {
		return 0
	}
	if delta > 0 {
		if !pl.alloc.Grow(delta) {
			return 0
		}
		pl.curCores += delta
		pl.cores.SetCapacity(pl.curCores)
		pl.record(task.ResourceResize, delta, 0)
		return delta
	}
	n := -delta
	if n >= pl.curCores {
		n = pl.curCores - 1
	}
	if n <= 0 {
		return 0
	}
	pl.curCores -= n
	pl.cores.SetCapacity(pl.curCores)
	pl.alloc.ReleasePartial(n)
	pl.record(task.ResourceResize, -n, 0)
	return -n
}

// Draining reports whether a preemption notice is pending: the pilot
// still runs in-flight units but refuses new submissions.
func (pl *Pilot) Draining() bool { return pl.draining && !pl.expired }

// Cores returns the pilot's *current* core count: the launched size
// minus node losses and shrinks, plus elastic grows (0 once expired).
// The launch Description's Cores keeps the nominal launched size.
func (pl *Pilot) Cores() int { return pl.curCores }

// CoresInUse returns cores currently held by executing units.
func (pl *Pilot) CoresInUse() int { return pl.cores.InUse() }

// BusyCoreSeconds returns the integral of cores held by units over time,
// the numerator of the utilization metric (Eq. 4).
func (pl *Pilot) BusyCoreSeconds() float64 { return pl.cores.BusyIntegral() }

// Expired reports whether the pilot's walltime has run out.
func (pl *Pilot) Expired() bool { return pl.expired }

// Counters reports unit accounting.
func (pl *Pilot) Counters() (submitted, done, failed int) {
	return pl.unitsSubmitted, pl.unitsDone, pl.unitsFailed
}

// UnitsExpired reports how many units the walltime expiry killed.
func (pl *Pilot) UnitsExpired() int { return pl.unitsExpired }

// SubmitUnit schedules a compute unit on the pilot. It returns
// immediately; the unit runs through its lifecycle as resources permit.
// A unit wider than the pilot ever was is a caller bug and panics; one
// merely wider than the pilot is now fails with ErrNoCapacity.
func (pl *Pilot) SubmitUnit(spec *task.Spec) *Unit {
	u := new(Unit)
	pl.submitInto(u, spec)
	pl.start(u)
	return u
}

// submitInto readies caller-supplied storage, which may be a delivered
// unit, for a submission that start then runs: u is reset whole — both
// latches, the embedded process, the lifecycle scratch. A finished unit
// leaves nothing else behind in the kernel: Proc.Exit moved its slot to
// a new generation, so its pending execution timer is dropped as stale,
// and the one waiter it can have left is its own in the interrupt latch,
// which the reset clears.
func (pl *Pilot) submitInto(u *Unit, spec *task.Spec) {
	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("pilot: invalid task spec: %v", err))
	}
	if widest := max(pl.desc.Cores, pl.curCores); spec.Cores > widest {
		panic(fmt.Sprintf("pilot: task %q wants %d cores, pilot has %d",
			spec.Label(), spec.Cores, widest))
	}
	*u = Unit{pl: pl, spec: spec, state: StateNew}
	u.done.Init(pl.env)
	u.interrupt.Init(pl.env)
	u.res.Spec = spec
	u.res.Submitted = pl.env.Now()
	pl.unitsSubmitted++
}

// start runs a submitted unit's lifecycle. On a pilot that is live or
// still in its queue wait, the first step is taken at once (it books the
// unit's first metadata operation, or enrols on the pilot's activation):
// a wakeup saved per unit. On a pilot that is gone or draining, the
// first step fails the unit, and it stays queued behind the instant's
// other wakeups: taken inline, the failure would settle the slot's
// in-flight width before the submissions after it are routed.
func (pl *Pilot) start(u *Unit) {
	if pl.expired || pl.draining || pl.active.Done() && pl.active.Err() != nil {
		pl.env.Spawn(&u.proc, (*unitStepper)(u))
		return
	}
	pl.env.Start(&u.proc, (*unitStepper)(u))
}

// failUnit completes a unit as FAILED with the given error and ends its
// process.
func (pl *Pilot) failUnit(u *Unit, err error) {
	u.state = StateFailed
	u.res.Err = err
	pl.unitsFailed++
	if errors.Is(err, task.ErrResourceLost) {
		pl.unitsExpired++
	}
	pl.finishUnit(u, err)
}

// finishUnit stamps the finish time, fires the unit's completion and
// stream callback, and ends its process.
func (pl *Pilot) finishUnit(u *Unit, err error) {
	u.res.Finished = pl.env.Now()
	u.done.Complete(err)
	if u.rt != nil {
		u.rt.unitDone(u)
	}
	u.proc.Exit()
}

// killErr returns the error a unit holding cores should fail with right
// now: its own interrupt's cause, the pilot's termination cause, or nil.
func (pl *Pilot) killErr(u *Unit) error {
	if u.interrupt.Done() {
		return u.interrupt.Err()
	}
	if pl.expired {
		return pl.expireErr
	}
	return nil
}

// holdCores appends a unit that was just granted cores to the list of
// units holding them.
func (pl *Pilot) holdCores(u *Unit) {
	u.older = pl.newest
	if pl.newest != nil {
		pl.newest.newer = u
	} else {
		pl.oldest = u
	}
	pl.newest = u
}

// releaseUnit returns the unit's cores and unlinks it from the list of
// units holding them.
func (pl *Pilot) releaseUnit(u *Unit) {
	pl.cores.Release(u.spec.Cores)
	if u.older != nil {
		u.older.newer = u.newer
	} else {
		pl.oldest = u.newer
	}
	if u.newer != nil {
		u.newer.older = u.older
	} else {
		pl.newest = u.older
	}
	u.older, u.newer = nil, nil
}

// unitPhase is where a unit's lifecycle resumes on its next wakeup.
type unitPhase uint8

const (
	unitAwaitPilot unitPhase = iota // from submission until the pilot is active
	unitStagingIn                   // STAGING_IN under way
	unitAwaitCores                  // SCHEDULING: queued for cores
	unitLaunching                   // booked launcher turn, then fixed launch latency
	unitExecuting                   // EXECUTING: timer racing the interrupt latch
	unitStagingOut                  // STAGING_OUT under way
)

// unitStepper is Unit as the kernel sees it, keeping the stepper methods
// out of Unit's exported method set.
type unitStepper Unit

func (s *unitStepper) ProcName() string { return (*Unit)(s).Name() }

func (s *unitStepper) Step(p *sim.Proc) { (*Unit)(s).step(p) }

// step drives the unit through its lifecycle: the kernel calls it on
// every wakeup of the unit's process. Each case either registers the
// next wakeup and returns, or falls through the loop into the next phase
// at the same virtual instant.
func (u *Unit) step(p *sim.Proc) {
	pl := u.pl
	for {
		switch u.phase {
		case unitAwaitPilot:
			// The unit cannot progress before the pilot is active.
			if !pl.active.Done() {
				pl.active.Enrol(p)
				return
			}
			switch {
			case pl.active.Err() != nil:
				pl.failUnit(u, pl.active.Err())
				return
			case pl.expired:
				pl.failUnit(u, pl.expireErr)
				return
			case pl.draining:
				// A pilot under preemption notice accepts no new work.
				pl.failUnit(u, ErrPilotPreempted)
				return
			}
			// STAGING_IN: input files through the shared filesystem.
			u.state = StateStagingIn
			u.staging.Begin(pl.cl, u.spec.InFiles, u.spec.InBytes)
			u.phase = unitStagingIn

		case unitStagingIn:
			if !u.staging.Step(p) {
				return
			}
			u.res.StageIn = u.staging.Elapsed()
			// SCHEDULING: wait for cores within the pilot. A unit that was
			// still queued when the pilot terminated dies with it (other
			// units' failures release their cores, so queued waiters
			// always wake); a unit wider than the post-shrink capacity is
			// aborted rather than left queued forever.
			u.state = StateScheduling
			u.mark = p.Now()
			u.phase = unitAwaitCores
			pl.cores.Request(p, u.spec.Cores, true)

		case unitAwaitCores:
			if !p.Granted() && !p.Aborted() {
				return
			}
			u.res.CoreWait = p.Now() - u.mark
			if p.Aborted() {
				err := ErrNoCapacity
				if pl.expired {
					err = pl.expireErr
				}
				pl.failUnit(u, err)
				return
			}
			if pl.expired {
				pl.cores.Release(u.spec.Cores)
				pl.failUnit(u, pl.expireErr)
				return
			}
			pl.holdCores(u)
			// Launch: serialized through the agent launcher, plus fixed
			// latency. Units that had to wait for cores (second and later
			// waves in Execution Mode II) pay the wave penalty *inside*
			// the serialized launcher, modelling RADICAL-Pilot 0.35's MPI
			// task re-scheduling issue: its wall-clock cost grows with
			// the number of re-scheduled tasks, which is what produces
			// the paper's Figure 11b efficiency dip in Mode II and the
			// uptick once cores = replicas.
			u.mark = p.Now()
			gap := pl.gap
			if u.res.CoreWait > 1e-9 && u.spec.Kind == task.MD {
				// Only the main MD workload is affected: the issue was
				// with re-scheduling the wide MPI task waves of the
				// simulation phase, not the short bookkeeping tasks.
				gap = pl.gapWave
			}
			end := max(u.mark, pl.launcherFree) + gap
			pl.launcherFree = end
			u.phase = unitLaunching
			pl.latency.WakeAt(p, end+pl.latency.Len())
			return

		case unitLaunching:
			u.res.Launch = p.Now() - u.mark
			if err := pl.killErr(u); err != nil {
				pl.releaseUnit(u)
				pl.failUnit(u, err)
				return
			}
			// EXECUTING: sleep d on the unit's own interrupt latch. A
			// unit chosen by fault injection fails partway through the
			// run (unless the pilot's termination or a node loss kills
			// it first).
			u.state = StateExecuting
			d := pl.cl.ScaleDuration(u.spec.Duration)
			u.failing = u.spec.CanFail && pl.cl.TaskFails()
			if u.failing {
				d /= 2
			} else {
				u.mark = p.Now()
			}
			u.phase = unitExecuting
			if !u.interrupt.Done() {
				// Completion.AwaitTimeout's arithmetic, to the bit: the
				// timer is set for (now+d)-now, which is not d.
				deadline := p.Now() + d
				if remain := deadline - p.Now(); remain >= 0 {
					u.interrupt.Enrol(p)
					p.WakeIn(remain)
					return
				}
			}

		case unitExecuting:
			var err error
			if u.interrupt.Done() {
				err = u.interrupt.Err()
			}
			if u.failing {
				u.res.Exec = p.Now() - u.mark - u.res.Launch
				if err == nil {
					err = ErrTaskFailed
				}
			} else {
				u.res.Exec = p.Now() - u.mark
			}
			pl.releaseUnit(u)
			if err != nil {
				pl.failUnit(u, err)
				return
			}
			// STAGING_OUT.
			u.state = StateStagingOut
			u.staging.Begin(pl.cl, u.spec.OutFiles, u.spec.OutBytes)
			u.phase = unitStagingOut

		case unitStagingOut:
			if !u.staging.Step(p) {
				return
			}
			u.res.StageOut = u.staging.Elapsed()
			u.state = StateDone
			pl.unitsDone++
			pl.finishUnit(u, nil)
			return
		}
	}
}
