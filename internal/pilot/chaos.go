package pilot

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// ChaosEvent is one scripted resource fault, pinned to virtual time so
// a chaos run is exactly as deterministic as a quiet one. Its JSON form
// is an entry of a resource file's "chaos" script.
type ChaosEvent struct {
	// At is the virtual time the fault fires, in seconds from run start.
	At float64 `json:"at_sec"`
	// Pilot is the routing slot the fault targets (always 0 under a
	// single-pilot runtime). The fault applies to whichever pilot
	// occupies the slot at fire time — after a failover relaunch, the
	// replacement.
	Pilot int `json:"pilot,omitempty"`
	// Kind is "node-loss", "preempt" or "resize".
	Kind string `json:"kind"`
	// Cores is the core count removed by "node-loss" or the signed
	// delta applied by "resize".
	Cores int `json:"cores,omitempty"`
	// Notice is the preemption notice window in seconds ("preempt");
	// omitted in a resource file, it inherits the resource's
	// preempt_notice_sec.
	Notice float64 `json:"notice_sec,omitempty"`
}

// Chaos event kinds.
const (
	ChaosNodeLoss = "node-loss"
	ChaosPreempt  = "preempt"
	ChaosResize   = "resize"
)

// Validate reports malformed chaos events.
func (e ChaosEvent) Validate() error {
	if e.At < 0 {
		return fmt.Errorf("chaos event at t=%g: time must be non-negative", e.At)
	}
	if e.Pilot < 0 {
		return fmt.Errorf("chaos event at t=%g: pilot slot must be non-negative, got %d", e.At, e.Pilot)
	}
	switch e.Kind {
	case ChaosNodeLoss:
		if e.Cores <= 0 {
			return fmt.Errorf("chaos event at t=%g: node-loss needs a positive core count, got %d", e.At, e.Cores)
		}
	case ChaosPreempt:
		if e.Notice < 0 {
			return fmt.Errorf("chaos event at t=%g: preempt notice must be non-negative, got %g", e.At, e.Notice)
		}
	case ChaosResize:
		if e.Cores == 0 {
			return fmt.Errorf("chaos event at t=%g: resize needs a non-zero core delta", e.At)
		}
	default:
		return fmt.Errorf("chaos event at t=%g: unknown kind %q (want %s, %s or %s)",
			e.At, e.Kind, ChaosNodeLoss, ChaosPreempt, ChaosResize)
	}
	return nil
}

// ChaosPlan is a scripted sequence of resource faults driven entirely
// in virtual time: node losses that shrink a pilot, spot-style
// preemption notices, and elastic resizes. Because every fault fires at
// a fixed virtual time on the deterministic DES clock, a chaos run is
// bit-reproducible — which is what lets CI gate on it.
type ChaosPlan struct {
	Events []ChaosEvent
}

// Validate reports the first malformed event.
func (c *ChaosPlan) Validate() error {
	for _, e := range c.Events {
		if err := e.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Empty reports a nil or event-free plan.
func (c *ChaosPlan) Empty() bool { return c == nil || len(c.Events) == 0 }

// Drive spawns the chaos driver process on env: it sleeps to each
// event's virtual time in order and applies the fault to the pilot then
// occupying the targeted slot (via lookup, so failover replacements are
// hit, not corpses). Faults against inactive pilots wait for
// activation; faults against expired pilots or empty slots are skipped.
// The plan is stable-sorted by time, so same-time events apply in plan
// order.
func (c *ChaosPlan) Drive(env *sim.Env, lookup func(slot int) *Pilot) {
	if c.Empty() {
		return
	}
	d := &chaosDriver{events: slices.Clone(c.Events), lookup: lookup}
	slices.SortStableFunc(d.events, func(a, b ChaosEvent) int { return cmp.Compare(a.At, b.At) })
	env.Spawn(&d.proc, d)
}

// chaosDriver is the chaos driver's stepped process: next is the event
// it is at, and pl the pilot the event found in its slot while it waits
// for that pilot's activation.
type chaosDriver struct {
	proc   sim.Proc
	events []ChaosEvent
	lookup func(slot int) *Pilot
	next   int
	slept  bool // the driver has slept to events[next]'s time
	pl     *Pilot
}

func (d *chaosDriver) ProcName() string { return "chaos" }

func (d *chaosDriver) Step(p *sim.Proc) {
	for ; d.next < len(d.events); d.next, d.slept, d.pl = d.next+1, false, nil {
		e := &d.events[d.next]
		if d.pl == nil {
			if !d.slept {
				d.slept = true
				if dt := e.At - p.Now(); dt > 0 {
					p.WakeIn(dt)
					return
				}
			}
			if d.pl = d.lookup(e.Pilot); d.pl == nil {
				continue
			}
			if !d.pl.active.Done() {
				// The fault arrived while the pilot sat in the batch
				// queue; a real node can only fail once held.
				d.pl.active.Enrol(p)
				return
			}
		}
		if d.pl.Expired() {
			continue
		}
		switch e.Kind {
		case ChaosNodeLoss:
			d.pl.LoseCores(e.Cores)
		case ChaosPreempt:
			d.pl.Preempt(e.Notice)
		case ChaosResize:
			d.pl.Resize(e.Cores)
		}
	}
	p.Exit()
}
