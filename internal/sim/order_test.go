package sim

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

var updateOrder = flag.Bool("update", false, "rewrite the testdata/*.golden of the tests selected by -run from the current kernel")

const orderGolden = "testdata/order.golden"

// orderScenario drives every way the kernel orders wakeups on one Env and
// returns the (t, name) sequence the trace hook saw, with a marker line at
// each RunUntil boundary: goroutine and stepped processes side by side,
// Broadcast bursts, WaitTimeout races whose losers stay queued as stale
// events, a contended Resource whose capacity shrinks under abortable
// requests and grows back, Spawn from inside a step, and RunUntil
// boundaries that land on a burst instant, after which the test queues
// more same-instant wakeups from outside the kernel before resuming.
// Durations are multiples of 0.25 so that ties are the common case.
func orderScenario() []string {
	e := NewEnv()
	var log []string
	e.SetTrace(func(t float64, name string) { log = append(log, fmt.Sprintf("%g %s", t, name)) })
	mark := func(what string) {
		log = append(log, fmt.Sprintf("-- %s: now=%g live=%d pending=%d", what, e.Now(), e.Live(), e.Pending()))
	}
	rng := rand.New(rand.NewSource(7))
	quarter := func(n int) float64 { return 0.25 * float64(1+rng.Intn(n)) }

	gate := NewSignal(e)
	cores := NewResource(e, 4)
	var ready Completion
	ready.Init(e)

	// One burst a virtual second, and one Signal in between.
	e.Go("caster", func(p *Proc) {
		for i := 0; i < 9; i++ {
			p.Sleep(0.5)
			gate.Signal()
			p.Sleep(0.5)
			gate.Broadcast()
		}
	})

	// Goroutine waiters race the gate against a timeout, then contend for
	// cores with the blocking form.
	for i := 0; i < 4; i++ {
		timeout, width, hold := quarter(8), 1+rng.Intn(2), quarter(4)
		e.Go(fmt.Sprintf("gw%d", i), func(p *Proc) {
			for round := 0; round < 5; round++ {
				if !gate.WaitTimeout(p, timeout) {
					continue
				}
				cores.Acquire(p, width)
				p.Sleep(hold)
				cores.Release(width)
			}
		})
	}

	// Stepped waiters do the same with the non-blocking forms; their
	// requests are abortable, and a granted one spawns a child from inside
	// its step.
	for i := 0; i < 6; i++ {
		timeout, width, hold := quarter(8), 1+rng.Intn(4), quarter(4)
		name := fmt.Sprintf("sw%d", i)
		round, children := 0, 0
		state := "idle"
		spawn(e, name, func(p *Proc, _ int) {
			switch state {
			case "idle":
				if round == 5 {
					p.Exit()
					return
				}
				round++
				gate.Enrol(p)
				p.WakeIn(timeout)
				state = "raced"
			case "raced":
				if !p.Notified() {
					state = "idle"
					p.WakeIn(0)
					return
				}
				cores.Request(p, width, true)
				state = "queued"
				if p.Granted() || p.Aborted() {
					p.WakeIn(0)
				}
			case "queued":
				if p.Aborted() {
					state = "idle"
					p.WakeIn(0.25)
					return
				}
				children++
				child := fmt.Sprintf("%s.c%d", name, children)
				left := 2
				spawn(e, child, func(c *Proc, _ int) {
					if left == 0 {
						c.Exit()
						return
					}
					left--
					c.WakeIn(0)
				})
				state = "holding"
				p.WakeIn(hold)
			case "holding":
				cores.Release(width)
				state = "idle"
				p.WakeIn(0)
			}
		})
	}

	// Capacity shrinks under the queue (aborting the wide stepped requests)
	// and grows back past where it started.
	e.Go("shrinker", func(p *Proc) {
		p.Sleep(2.5)
		cores.SetCapacity(2)
		p.Sleep(2)
		cores.SetCapacity(5)
		p.Sleep(1.5)
		cores.SetCapacity(3)
	})

	// A completion fired from a step, awaited with a timeout that expires
	// first once and is beaten once.
	e.GoAt("late", 1.75, func(p *Proc) {
		for !ready.AwaitTimeout(p, 1) {
			p.Sleep(0.25)
		}
		p.Sleep(0.5)
	})
	spawn(e, "firer", func(p *Proc, wake int) {
		if wake == 0 {
			p.WakeIn(4)
			return
		}
		ready.Complete()
		p.Exit()
	})

	mark("start")
	e.RunUntil(3) // lands on the third burst
	mark("RunUntil(3)")
	// Same-instant wakeups queued while the kernel is stopped.
	gate.Broadcast()
	spawn(e, "outside", func(p *Proc, wake int) {
		if wake == 2 {
			p.Exit()
			return
		}
		p.WakeIn(0)
	})
	e.Go("outside.g", func(p *Proc) { p.Sleep(0); gate.Signal(); p.Sleep(0.25) })
	cores.SetCapacity(4)
	mark("queued at 3")
	e.RunUntil(3)
	mark("RunUntil(3) again")
	e.RunUntil(5.125) // between instants
	mark("RunUntil(5.125)")
	gate.Broadcast()
	e.RunUntil(6)
	mark("RunUntil(6)")
	e.Run()
	mark("Run")
	return log
}

// TestOrderGolden pins the kernel's wake order. The golden was generated
// by the kernel that pushed every event on one heap and switched
// goroutine processes over a channel pair; it is the contract any other
// queue or hand-off must reproduce line for line, so a mismatch means fix
// the kernel, not regenerate.
func TestOrderGolden(t *testing.T) {
	checkGolden(t, orderGolden, orderScenario())
}

// checkGolden compares a scenario's log with the golden file at path, or
// rewrites the file under -update.
func checkGolden(t *testing.T, path string, log []string) {
	got := strings.Join(log, "\n") + "\n"
	if *updateOrder {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update on the reference kernel)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("wake order diverges at line %d: got %q, want %q (%d lines vs %d)", i+1, gl[i], wl[i], len(gl), len(wl))
			}
		}
		t.Fatalf("wake order has %d lines, want %d", len(gl), len(wl))
	}
}
