package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

const delayOrderGolden = "testdata/delay_order.golden"

// wakeAfter is the fixed-length sleep the scenario below is written
// against. The golden was generated with it calling p.WakeIn(d), every
// event on the one heap.
func wakeAfter(p *Proc, d float64) { p.env.Delay(d).Wake(p) }

// sleepAfter is wakeAfter's blocking form.
func sleepAfter(p *Proc, d float64) {
	wakeAfter(p, d)
	p.Park()
}

// delayOrderScenario drives fixed-length sleeps (wakeAfter) against
// everything else that orders wakeups and returns the (t, name) sequence
// the trace hook saw, with a marker line at each RunUntil boundary:
// goroutine and stepped processes mixing three fixed delays with variable
// WakeIns, same-instant wakeups and spawns; several processes landing on
// one instant through a fixed delay, a variable one and the current
// instant's queue; signal-or-fixed-timeout races won by either side, the
// loser left queued; a process that exits with a fixed wakeup pending and
// whose slot is taken over; RunUntil boundaries between and on instants
// with fixed wakeups queued at and after them; and, at a clock so large
// that now + d == now, fixed delays that must behave as WakeIn(0) does.
// 0.25 and 0.5 make ties the common case, 0.1 makes now + d round.
func delayOrderScenario() []string {
	e := NewEnv()
	var log []string
	e.SetTrace(func(t float64, name string) { log = append(log, fmt.Sprintf("%.17g %s", t, name)) })
	mark := func(what string) {
		log = append(log, fmt.Sprintf("-- %s: now=%.17g live=%d pending=%d", what, e.Now(), e.Live(), e.Pending()))
	}
	rng := rand.New(rand.NewSource(11))
	fixed := [3]float64{0.25, 0.5, 0.1}
	quarter := func(n int) float64 { return 0.25 * float64(1+rng.Intn(n)) }

	// A move is one wakeup registration: 0-2 a fixed delay, 3 a variable
	// one, 4 the current instant, 5 a child spawned at the current instant
	// that sleeps a fixed delay of its own, then a fixed delay.
	type move struct {
		kind int
		d    float64
	}
	plan := func(n int) []move {
		ms := make([]move, n)
		for i := range ms {
			ms[i] = move{kind: rng.Intn(6), d: quarter(6)}
		}
		return ms
	}
	children := 0
	register := func(p *Proc, m move) {
		switch m.kind {
		case 0, 1, 2:
			wakeAfter(p, fixed[m.kind])
		case 3:
			p.WakeIn(m.d)
		case 4:
			p.WakeIn(0)
		case 5:
			children++
			d := fixed[children%3]
			spawn(e, fmt.Sprintf("%s.c%d", p.Name(), children), func(c *Proc, wake int) {
				if wake == 1 {
					c.Exit()
					return
				}
				wakeAfter(c, d)
			})
			wakeAfter(p, fixed[(children+1)%3])
		}
	}

	gate := NewSignal(e)

	// One Signal or Broadcast every half second, on a fixed delay.
	e.Go("caster", func(p *Proc) {
		for i := 0; i < 14; i++ {
			sleepAfter(p, 0.5)
			if i%2 == 0 {
				gate.Signal()
			} else {
				gate.Broadcast()
			}
		}
	})

	for i := 0; i < 3; i++ {
		moves := plan(14)
		e.Go(fmt.Sprintf("gm%d", i), func(p *Proc) {
			for _, m := range moves {
				register(p, m)
				p.Park()
			}
		})
	}
	for i := 0; i < 5; i++ {
		moves := plan(14)
		spawn(e, fmt.Sprintf("sm%d", i), func(p *Proc, wake int) {
			if wake == len(moves) {
				p.Exit()
				return
			}
			register(p, moves[wake])
		})
	}

	// Racers wait on the gate with a fixed timeout. A racer the gate wakes
	// leaves its timeout queued and at once registers the next wakeup on
	// the same fixed delay, so a stale entry sits ahead of a live one of
	// the same process.
	for i := 0; i < 4; i++ {
		timeout, rest := fixed[i%3], fixed[(i+1)%3]
		racing := false
		rounds := 0
		spawn(e, fmt.Sprintf("racer%d", i), func(p *Proc, _ int) {
			if racing {
				racing = false
				if p.Notified() {
					wakeAfter(p, timeout)
				} else {
					wakeAfter(p, rest)
				}
				return
			}
			if rounds == 8 {
				p.Exit()
				return
			}
			rounds++
			racing = true
			gate.Enrol(p)
			wakeAfter(p, timeout)
		})
	}
	// The same race from a goroutine process, the timeout sometimes a
	// fixed delay and sometimes WaitTimeout's variable one.
	e.Go("racer.g", func(p *Proc) {
		for round := 0; round < 8; round++ {
			if round%3 == 2 {
				gate.WaitTimeout(p, 0.75)
				continue
			}
			gate.Enrol(p)
			sleepAfter(p, 0.5)
			if !p.Notified() {
				sleepAfter(p, 0.1)
			}
		}
	})

	// quitter exits on its knell with its fixed timeout still queued; heir
	// is spawned into the vacated slot at the same instant and sleeps on the
	// same fixed delay, behind the stale timeout.
	knell := NewSignal(e)
	quitter := spawn(e, "quitter", func(p *Proc, wake int) {
		if wake == 0 {
			knell.Enrol(p)
			wakeAfter(p, 0.5)
			return
		}
		p.Exit()
	})
	var heir *stepped
	e.GoAt("undertaker", 0.25, func(p *Proc) {
		knell.Signal()
		p.Sleep(0) // quitter runs, and exits, in between
		heir = spawn(e, "heir", func(h *Proc, wake int) {
			if wake == 3 {
				h.Exit()
				return
			}
			wakeAfter(h, 0.5)
		})
	})

	// Four processes land on 1.25, through a variable delay, two fixed ones
	// and a variable one again in schedule order; each queues two more
	// wakeups for that instant, which must come after all four.
	tie := func(name string, start float64, sleep func(p *Proc)) {
		e.GoAt(name, start, func(p *Proc) {
			sleep(p)
			spawn(e, name+".now", func(c *Proc, _ int) { c.Exit() })
			p.Sleep(0)
		})
	}
	tie("tie.fixed", 0.75, func(p *Proc) { sleepAfter(p, 0.5) })
	tie("tie.var", 0.5, func(p *Proc) { p.Sleep(0.75) })
	tie("tie.fixed2", 1, func(p *Proc) { sleepAfter(p, 0.25) })
	tie("tie.var2", 1.125, func(p *Proc) { p.Sleep(0.125) })

	// At a clock of 1e9 a delay of 1e-9 does not move time: it must queue
	// for the current instant like a zero one, behind what is already there.
	e.Go("far.g", func(p *Proc) {
		p.Sleep(1e9)
		for i := 0; i < 3; i++ {
			sleepAfter(p, 1e-9)
			sleepAfter(p, 0)
		}
		sleepAfter(p, 0.25)
		spawn(e, "far.now", func(c *Proc, _ int) { c.Exit() })
		sleepAfter(p, 1e-9)
	})
	spawn(e, "far.s", func(p *Proc, wake int) {
		switch wake {
		case 0:
			p.WakeIn(1e9)
		case 1, 3:
			wakeAfter(p, 1e-9)
		case 2:
			wakeAfter(p, 0)
		case 4:
			p.WakeIn(0.25) // ties with far.g's fixed 0.25
		case 5:
			wakeAfter(p, 0.1)
		default:
			p.Exit()
		}
	})

	outside := func(name string) {
		spawn(e, name, func(p *Proc, wake int) {
			if wake == 2 {
				p.Exit()
				return
			}
			wakeAfter(p, fixed[2-wake])
		})
	}

	mark("start")
	e.RunUntil(1.9) // between instants: fixed wakeups queued at 2 and later
	mark("RunUntil(1.9)")
	outside("outside.a") // 1.9 + 0.1 joins the fixed wakeups already due at 2
	e.RunUntil(2)
	mark("RunUntil(2)")
	gate.Broadcast()
	outside("outside.b")
	mark("queued at 2")
	e.RunUntil(2)
	mark("RunUntil(2) again")
	e.RunUntil(1) // in the past: runs nothing
	mark("RunUntil(1)")
	e.RunUntil(3.3)
	mark("RunUntil(3.3)")
	e.RunUntil(1e9)
	mark("RunUntil(1e9)")
	e.Run()
	mark("Run")
	log = append(log, fmt.Sprintf("-- heir took quitter's slot: %v", heir.proc.slot == quitter.proc.slot))
	return log
}

// TestDelayOrderGolden pins the wake order of fixed-length sleeps against
// the kernel that had none: the golden was generated with wakeAfter calling
// Proc.WakeIn, every event on the one heap. A mismatch means fix the
// kernel, not regenerate.
func TestDelayOrderGolden(t *testing.T) {
	checkGolden(t, delayOrderGolden, delayOrderScenario())
}
