//go:build simcheck

package sim

import "fmt"

// checker holds what the kernel's invariants are checked against under
// the simcheck build tag (go test -tags simcheck): every delivered event
// is checked, and a violation panics.
type checker struct {
	last   event // the latest event delivered
	queued int   // events queued and not delivered yet
}

// scheduled counts one event into a queue.
func (c *checker) scheduled() { c.queued++ }

// delivered checks one event as the kernel takes it out of its queues:
// (t, seq) rises from event to event; Pending counts what the queues
// took in and have not given out; and an event the slot's occupant
// would run belongs to it, alive, and no event names a generation its
// slot has not reached.
func (c *checker) delivered(e *Env, ev event) {
	if !c.last.before(&ev) {
		violation("event (%g, %d) comes out after (%g, %d)", ev.t, ev.seq, c.last.t, c.last.seq)
	}
	c.last = ev
	c.queued--
	if n := e.Pending(); n != c.queued {
		violation("Pending reads %d with %d events queued", n, c.queued)
	}
	if p := e.slots[ev.slot].p; p != nil {
		if ev.gen > p.gen {
			violation("an event for slot %d at generation %d, its process is at %d", ev.slot, ev.gen, p.gen)
		}
		if ev.gen == p.gen && (p.dead || p.slot != ev.slot) {
			violation("slot %d's live event reaches a process that is dead or in slot %d", ev.slot, p.slot)
		}
	}
}

func violation(format string, args ...any) {
	panic("sim: invariant: " + fmt.Sprintf(format, args...))
}
