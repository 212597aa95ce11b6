//go:build simcheck

package core

import "fmt"

// checkInvariants checks the dispatcher's bookkeeping under the simcheck
// build tag (go test -tags simcheck), after every exchange event and
// before every delivered completion is taken; a violation panics. It
// allocates nothing, so a run's allocations are the untagged build's.
//
//   - Slots are a permutation: every replica's slot is in range and the
//     slot table maps it back to that replica, so no two share one.
//   - A refitted ladder stays strictly monotone, in its original
//     direction and envelope (respaceSane against each refit's Old).
//   - Segment budgets hold: no replica has run more than its budget,
//     and readyB counts the ready replicas with budget left.
//   - The flight census adds up: every alive replica is pending (its
//     segment in the air), done (delivered, awaiting the barrier),
//     ready (landed, awaiting an exchange) or idle, and the alive
//     counter counts the alive replicas.
func (d *dispatcher) checkInvariants() {
	s := d.s
	alive, inAir := 0, 0
	for i, r := range s.replicas {
		if r.ID != i || r.Slot < 0 || r.Slot >= len(s.replicaAt) || s.replicaAt[r.Slot] != r.ID {
			violation("replica %d at index %d holds slot %d, which the slot table gives to another: slots are not a permutation", r.ID, i, r.Slot)
		}
		if r.Cycle > d.segBudget {
			violation("replica %d has run %d segments, its budget is %d", r.ID, r.Cycle, d.segBudget)
		}
		if !r.Alive {
			continue
		}
		alive++
		if d.flights[i].h != nil {
			inAir++
		}
	}
	for _, rec := range s.respacings {
		if v := s.spec.Dims[rec.Dim].Values; !respaceSane(rec.Old, v) {
			violation("dimension %d's ladder %v left refit %d's contract (from %v)", rec.Dim, v, rec.Refit, rec.Old)
		}
	}
	budgeted := 0
	for _, r := range d.ready {
		if !r.Alive || d.flights[r.ID].h != nil {
			violation("ready replica %d is dead or has a segment in the air", r.ID)
		}
		if d.budgeted(r) {
			budgeted++
		}
	}
	if budgeted != d.readyB {
		violation("readyB is %d, %d ready replicas have budget left", d.readyB, budgeted)
	}
	if alive != d.alive {
		violation("%d replicas alive, the counter reads %d", alive, d.alive)
	}
	if idle := alive - inAir - len(d.ready); d.pending < 0 || d.done < 0 || inAir != d.pending+d.done {
		violation("flight census: %d pending + %d done + %d ready + %d idle against %d alive, %d segments in the air",
			d.pending, d.done, len(d.ready), idle, alive, inAir)
	}
}

func violation(format string, args ...any) {
	panic("core: invariant: " + fmt.Sprintf(format, args...))
}
