package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

const mixedOrderGolden = "testdata/mixed_order.golden"

// mixedOrderScenario mixes the two kinds of process the way a run does —
// a few goroutine processes parked on signals among many stepped ones —
// and returns the (t, name) sequence the trace hook saw, with a marker
// line at each RunUntil boundary. Two goroutine processes wake each other
// through a pair of signals, and one of them races each wait against a
// timeout that the other always beats, leaving a stale WakeIn behind. A
// third awaits the steppers' completions through a signal with a timeout
// that sometimes fires, and spawns more steppers as it goes. The steppers
// contend for a Resource and hold it for one of two Delay lengths. The
// run is driven in RunUntil slices, some of which end while every
// goroutine process is parked, with wakeups queued from outside the
// kernel in between. Durations are multiples of 0.25 so that ties are the
// common case.
func mixedOrderScenario() []string {
	e := NewEnv()
	var log []string
	e.SetTrace(func(t float64, name string) { log = append(log, fmt.Sprintf("%g %s", t, name)) })
	mark := func(what string) {
		log = append(log, fmt.Sprintf("-- %s: now=%g live=%d pending=%d", what, e.Now(), e.Live(), e.Pending()))
	}
	rng := rand.New(rand.NewSource(11))
	quarter := func(n int) float64 { return 0.25 * float64(1+rng.Intn(n)) }

	ping, pong, done := NewSignal(e), NewSignal(e), NewSignal(e)
	cores := NewResource(e, 3)
	holds := [2]*Delay{e.Delay(0.25), e.Delay(0.75)}

	e.Go("ping", func(p *Proc) {
		for i := 0; i < 8; i++ {
			p.Sleep(0.5)
			pong.Signal()
			ping.Wait(p)
		}
	})
	e.Go("pong", func(p *Proc) {
		for i := 0; i < 8; i++ {
			if !pong.WaitTimeout(p, 1) {
				panic("pong timed out: ping always signals within 0.5")
			}
			p.Sleep(0.25)
			ping.Signal()
		}
	})

	finished, workers, active := 0, 0, 0
	worker := func(rounds int) {
		workers++
		active++
		name := fmt.Sprintf("w%d", workers)
		width, hold, rest := 1+rng.Intn(2), holds[rng.Intn(2)], quarter(3)
		state := "idle"
		spawn(e, name, func(p *Proc, _ int) {
			switch state {
			case "idle":
				if rounds == 0 {
					active--
					p.Exit()
					return
				}
				rounds--
				cores.Request(p, width, false)
				state = "queued"
				if p.Granted() {
					p.WakeIn(0)
				}
			case "queued":
				hold.Wake(p)
				state = "holding"
			case "holding":
				cores.Release(width)
				finished++
				if finished%3 == 0 {
					done.Broadcast()
				} else {
					done.Signal()
				}
				state = "idle"
				p.WakeIn(rest)
			}
		})
	}
	for i := 0; i < 5; i++ {
		worker(3)
	}

	e.Go("awaiter", func(p *Proc) {
		seen := 0
		for active > 0 {
			if !done.WaitTimeout(p, 0.75) {
				continue
			}
			if seen++; seen%4 == 0 && workers < 10 {
				worker(2)
				p.Sleep(0)
			}
		}
	})
	e.GoAt("late", 2.25, func(p *Proc) {
		for i := 0; i < 3; i++ {
			done.Wait(p)
			p.Sleep(0.25)
		}
	})

	mark("start")
	e.RunUntil(1.3) // between instants
	mark("RunUntil(1.3)")
	done.Broadcast()
	worker(1)
	e.Go("outside.g", func(p *Proc) { p.Sleep(0); ping.Signal(); p.Sleep(0.5) })
	mark("queued at 1.3")
	e.RunUntil(1.3)
	mark("RunUntil(1.3) again")
	e.RunUntil(3) // lands on an instant
	mark("RunUntil(3)")
	e.RunUntil(4.5)
	mark("RunUntil(4.5)")
	e.Run()
	mark("Run")
	return log
}

// TestMixedOrderGolden pins the wake order of the mixed scenario. The
// golden was generated by the kernel that switched to a goroutine process
// and back on every one of its wakeups, before parked processes drove the
// queue themselves; a mismatch means fix the kernel, not regenerate.
func TestMixedOrderGolden(t *testing.T) {
	checkGolden(t, mixedOrderGolden, mixedOrderScenario())
}
