package sim

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEnv()
	var at float64
	e.Go("p", func(p *Proc) {
		p.Sleep(2.5)
		at = p.Now()
	})
	e.Run()
	if at != 2.5 {
		t.Fatalf("woke at %v, want 2.5", at)
	}
	if e.Now() != 2.5 {
		t.Fatalf("env clock %v, want 2.5", e.Now())
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEnv()
	var at float64
	e.Go("p", func(p *Proc) {
		p.Sleep(-3)
		at = p.Now()
	})
	e.Run()
	if at != 0 {
		t.Fatalf("woke at %v, want 0", at)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Go("b", func(p *Proc) {
		p.Sleep(2)
		order = append(order, "b")
	})
	e.Go("a", func(p *Proc) {
		p.Sleep(1)
		order = append(order, "a")
	})
	e.Go("c", func(p *Proc) {
		p.Sleep(3)
		order = append(order, "c")
	})
	e.Run()
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	// Events at identical times run in scheduling (seq) order.
	e := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(1)
			order = append(order, i)
		})
	}
	e.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-time events out of FIFO order: %v", order)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEnv()
	hit := 0
	e.Go("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(1)
			hit++
		}
	})
	e.RunUntil(4.5)
	if hit != 4 {
		t.Fatalf("hit = %d, want 4", hit)
	}
	if e.Now() != 4.5 {
		t.Fatalf("clock = %v, want 4.5", e.Now())
	}
	e.Run()
	if hit != 10 {
		t.Fatalf("after Run, hit = %d, want 10", hit)
	}
}

func TestGoAtStartsLater(t *testing.T) {
	e := NewEnv()
	var at float64
	e.GoAt("late", 7, func(p *Proc) { at = p.Now() })
	e.Run()
	if at != 7 {
		t.Fatalf("started at %v, want 7", at)
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEnv()
	var childAt float64
	e.Go("parent", func(p *Proc) {
		p.Sleep(1)
		p.Env().Go("child", func(c *Proc) {
			c.Sleep(2)
			childAt = c.Now()
		})
		p.Sleep(10)
	})
	e.Run()
	if childAt != 3 {
		t.Fatalf("child at %v, want 3", childAt)
	}
}

func TestSignalBroadcastWakesAll(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	woke := 0
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) {
			s.Wait(p)
			woke++
		})
	}
	e.Go("caster", func(p *Proc) {
		p.Sleep(3)
		s.Broadcast()
	})
	e.Run()
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
}

func TestSignalWakesOne(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	var woke []string
	for _, n := range []string{"a", "b", "c"} {
		n := n
		e.Go(n, func(p *Proc) {
			s.Wait(p)
			woke = append(woke, n)
		})
	}
	e.Go("caster", func(p *Proc) {
		p.Sleep(1)
		s.Signal()
		p.Sleep(1)
		s.Signal()
	})
	e.Run()
	if !reflect.DeepEqual(woke, []string{"a", "b"}) {
		t.Fatalf("woke = %v, want [a b]", woke)
	}
	if s.Waiters() != 1 {
		t.Fatalf("waiters = %d, want 1", s.Waiters())
	}
}

func TestWaitTimeoutFires(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	var got bool
	var at float64
	e.Go("w", func(p *Proc) {
		got = s.WaitTimeout(p, 5)
		at = p.Now()
	})
	e.Run()
	if got {
		t.Fatal("WaitTimeout returned true, want timeout (false)")
	}
	if at != 5 {
		t.Fatalf("timed out at %v, want 5", at)
	}
}

func TestWaitTimeoutSignaledFirst(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	var got bool
	var at float64
	e.Go("w", func(p *Proc) {
		got = s.WaitTimeout(p, 5)
		at = p.Now()
	})
	e.Go("caster", func(p *Proc) {
		p.Sleep(2)
		s.Broadcast()
	})
	e.Run()
	if !got {
		t.Fatal("WaitTimeout returned false, want signal (true)")
	}
	if at != 2 {
		t.Fatalf("woke at %v, want 2", at)
	}
	// The stale timeout event must not wake the process again.
	if e.Now() != 2 {
		t.Fatalf("final clock %v, want 2 (timeout event dropped)", e.Now())
	}
}

func TestStaleTimeoutAfterResleep(t *testing.T) {
	// A process signaled before its timeout then sleeping again must not
	// be woken early by the stale timeout event.
	e := NewEnv()
	s := NewSignal(e)
	var at float64
	e.Go("w", func(p *Proc) {
		s.WaitTimeout(p, 10)
		p.Sleep(20)
		at = p.Now()
	})
	e.Go("caster", func(p *Proc) {
		p.Sleep(1)
		s.Broadcast()
	})
	e.Run()
	if at != 21 {
		t.Fatalf("woke at %v, want 21 (stale timeout must be dropped)", at)
	}
}

func TestResourceBasicAcquireRelease(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 4)
	e.Go("p", func(p *Proc) {
		r.Acquire(p, 3)
		if r.InUse() != 3 || r.Available() != 1 {
			t.Errorf("in use %d avail %d, want 3/1", r.InUse(), r.Available())
		}
		r.Release(3)
	})
	e.Run()
	if r.InUse() != 0 {
		t.Fatalf("in use %d after release, want 0", r.InUse())
	}
}

func TestResourceContention(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 2)
	var finish []float64
	for i := 0; i < 4; i++ {
		e.Go("job", func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(10)
			r.Release(1)
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	want := []float64{10, 10, 20, 20}
	if !reflect.DeepEqual(finish, want) {
		t.Fatalf("finish times %v, want %v", finish, want)
	}
	if r.PeakInUse() != 2 {
		t.Fatalf("peak %d, want 2", r.PeakInUse())
	}
}

func TestResourceFIFOHeadOfLineBlocking(t *testing.T) {
	// A large request at the head of the queue blocks later small ones.
	e := NewEnv()
	r := NewResource(e, 4)
	var order []string
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 3)
		p.Sleep(10)
		r.Release(3)
	})
	e.Go("big", func(p *Proc) {
		p.Sleep(1)
		r.Acquire(p, 4) // cannot fit until holder releases
		order = append(order, "big")
		r.Release(4)
	})
	e.Go("small", func(p *Proc) {
		p.Sleep(2)
		r.Acquire(p, 1) // would fit now, but queued behind big
		order = append(order, "small")
		r.Release(1)
	})
	e.Run()
	if !reflect.DeepEqual(order, []string{"big", "small"}) {
		t.Fatalf("order %v, want [big small]", order)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 2)
	if !r.TryAcquire(2) {
		t.Fatal("TryAcquire(2) on empty pool failed")
	}
	if r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) on full pool succeeded")
	}
	r.Release(2)
	if !r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) after release failed")
	}
}

func TestResourceAcquireBeyondCapacityPanics(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 2)
	e.Go("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Acquire beyond capacity did not panic")
			}
		}()
		r.Acquire(p, 3)
	})
	e.Run()
}

func TestResourceBusyIntegral(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 4)
	e.Go("p", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(5)
		r.Release(2)
		p.Sleep(5)
	})
	e.Run()
	if got := r.BusyIntegral(); got != 10 {
		t.Fatalf("busy integral %v, want 10 (2 cores x 5 s)", got)
	}
}

func TestCompletionAwait(t *testing.T) {
	e := NewEnv()
	c := NewCompletion(e)
	errBoom := errors.New("boom")
	var got error
	var at float64
	e.Go("waiter", func(p *Proc) {
		got = c.Await(p)
		at = p.Now()
	})
	e.Go("worker", func(p *Proc) {
		p.Sleep(4)
		c.Complete(errBoom)
	})
	e.Run()
	if got != errBoom {
		t.Fatalf("err = %v, want boom", got)
	}
	if at != 4 || c.At() != 4 {
		t.Fatalf("completed at %v/%v, want 4", at, c.At())
	}
}

func TestCompletionAwaitAlreadyDone(t *testing.T) {
	e := NewEnv()
	c := NewCompletion(e)
	var at float64
	e.Go("worker", func(p *Proc) { c.Complete(nil) })
	e.Go("late", func(p *Proc) {
		p.Sleep(9)
		if err := c.Await(p); err != nil {
			t.Errorf("err = %v, want nil", err)
		}
		at = p.Now()
	})
	e.Run()
	if at != 9 {
		t.Fatalf("await returned at %v, want 9 (no extra blocking)", at)
	}
}

func TestCompletionDoubleCompletePanics(t *testing.T) {
	e := NewEnv()
	c := NewCompletion(e)
	e.Go("p", func(p *Proc) {
		c.Complete(nil)
		defer func() {
			if recover() == nil {
				t.Error("double Complete did not panic")
			}
		}()
		c.Complete(nil)
	})
	e.Run()
}

func TestCompletionAwaitTimeout(t *testing.T) {
	e := NewEnv()
	c := NewCompletion(e)
	var ok bool
	e.Go("w", func(p *Proc) { ok = c.AwaitTimeout(p, 3) })
	e.Go("worker", func(p *Proc) {
		p.Sleep(10)
		c.Complete(nil)
	})
	e.Run()
	if ok {
		t.Fatal("AwaitTimeout = true, want false (timeout)")
	}
}

func TestDeterminism(t *testing.T) {
	// The same randomized workload replayed twice must produce identical
	// completion traces.
	run := func(seed int64) []float64 {
		e := NewEnv()
		rng := rand.New(rand.NewSource(seed))
		r := NewResource(e, 3)
		var trace []float64
		for i := 0; i < 50; i++ {
			d := rng.Float64() * 10
			s := rng.Float64() * 5
			e.Go("job", func(p *Proc) {
				p.Sleep(s)
				r.Acquire(p, 1)
				p.Sleep(d)
				r.Release(1)
				trace = append(trace, p.Now())
			})
		}
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different traces")
	}
}

func TestLiveCount(t *testing.T) {
	e := NewEnv()
	e.Go("p", func(p *Proc) { p.Sleep(1) })
	if e.Live() != 1 {
		t.Fatalf("live = %d, want 1", e.Live())
	}
	e.Run()
	if e.Live() != 0 {
		t.Fatalf("live = %d after run, want 0", e.Live())
	}
}

// Property: for any set of sleep durations, processes complete in
// nondecreasing time order equal to the sorted durations.
func TestPropertySleepOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		e := NewEnv()
		var finish []float64
		for _, r := range raw {
			d := float64(r) / 100
			e.Go("p", func(p *Proc) {
				p.Sleep(d)
				finish = append(finish, p.Now())
			})
		}
		e.Run()
		if !sort.Float64sAreSorted(finish) {
			return false
		}
		want := make([]float64, len(raw))
		for i, r := range raw {
			want[i] = float64(r) / 100
		}
		sort.Float64s(want)
		return reflect.DeepEqual(finish, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: resource accounting never exceeds capacity and ends at zero.
func TestPropertyResourceNeverOversubscribed(t *testing.T) {
	f := func(seed int64, capRaw uint8, jobsRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		jobs := int(jobsRaw%40) + 1
		e := NewEnv()
		r := NewResource(e, capacity)
		rng := rand.New(rand.NewSource(seed))
		ok := true
		for i := 0; i < jobs; i++ {
			n := rng.Intn(capacity) + 1
			d := rng.Float64() * 3
			e.Go("job", func(p *Proc) {
				r.Acquire(p, n)
				if r.InUse() > r.Capacity() {
					ok = false
				}
				p.Sleep(d)
				r.Release(n)
			})
		}
		e.Run()
		return ok && r.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Stepped processes.

// stepped is a stepped process whose body is a closure over a wakeup
// counter: fn receives the index of the wakeup it is handling.
type stepped struct {
	proc  Proc
	name  string
	wakes int
	fn    func(p *Proc, wake int)
}

func (s *stepped) Step(p *Proc)     { s.wakes++; s.fn(p, s.wakes-1) }
func (s *stepped) ProcName() string { return s.name }

func spawn(e *Env, name string, fn func(p *Proc, wake int)) *stepped {
	s := &stepped{name: name, fn: fn}
	e.Spawn(&s.proc, s)
	return s
}

func TestSteppedSleepRunsInlineInSpawnOrder(t *testing.T) {
	e := NewEnv()
	var log []string
	record := func(name string) func(p *Proc, wake int) {
		return func(p *Proc, wake int) {
			if wake == 0 {
				p.WakeIn(2)
				return
			}
			log = append(log, name)
			p.Exit()
		}
	}
	spawn(e, "a", record("a"))
	e.Go("b", func(p *Proc) { p.Sleep(2); log = append(log, "b") })
	spawn(e, "c", record("c"))
	e.Run()
	if !reflect.DeepEqual(log, []string{"a", "b", "c"}) {
		t.Fatalf("same-time wakeups ran %v, want spawn order a b c", log)
	}
	if e.Now() != 2 {
		t.Fatalf("clock %v, want 2", e.Now())
	}
}

func TestSteppedBlockingCallPanics(t *testing.T) {
	e := NewEnv()
	spawn(e, "bad", func(p *Proc, wake int) {
		defer func() {
			if recover() == nil {
				t.Error("Sleep from a stepped process did not panic")
			}
			p.Exit()
		}()
		p.Sleep(1)
	})
	e.Run()
}

// A stepped process waiting on "signal OR timeout" wakes exactly once,
// whichever comes first, and Notified tells which — including when both
// land on the same instant, in either order.
func TestSteppedSignalVersusTimeout(t *testing.T) {
	cases := []struct {
		name         string
		timeout      float64
		broadcastAt  float64
		raiserFirst  bool // spawn the broadcaster before the waiter
		wantAt       float64
		wantNotified bool
	}{
		{"signal first", 5, 3, false, 3, true},
		{"timeout first", 5, 7, false, 5, false},
		// Same instant, broadcaster's wakeup queued ahead of the timer:
		// the timer event delivers the wakeup, already notified.
		{"tie, signal ahead", 5, 5, true, 5, true},
		// Same instant, timer ahead: the broadcast finds a stale waiter.
		{"tie, timer ahead", 5, 5, false, 5, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEnv()
			s := NewSignal(e)
			raiser := func() {
				e.Go("raiser", func(p *Proc) { p.Sleep(tc.broadcastAt); s.Broadcast() })
			}
			if tc.raiserFirst {
				raiser()
			}
			var at []float64
			var notified []bool
			w := spawn(e, "waiter", func(p *Proc, wake int) {
				if wake == 0 {
					s.Enrol(p)
					p.WakeIn(tc.timeout)
					return
				}
				at = append(at, p.Now())
				notified = append(notified, p.Notified())
				if wake == 1 {
					p.WakeIn(10) // outlive the loser of the race
					return
				}
				p.Exit()
			})
			if !tc.raiserFirst {
				raiser()
			}
			e.Run()
			if w.wakes != 3 {
				t.Fatalf("waiter stepped %d times, want 3 (spawn, race, final sleep)", w.wakes)
			}
			if at[0] != tc.wantAt || notified[0] != tc.wantNotified {
				t.Fatalf("woke at %v notified=%v, want %v %v", at[0], notified[0], tc.wantAt, tc.wantNotified)
			}
			if at[1] != tc.wantAt+10 {
				t.Fatalf("second wakeup at %v, want %v: the race's loser was not dropped", at[1], tc.wantAt+10)
			}
		})
	}
}

func TestSteppedCompletionEnrol(t *testing.T) {
	e := NewEnv()
	var c Completion
	c.Init(e)
	boom := errors.New("boom")
	var got error
	spawn(e, "waiter", func(p *Proc, wake int) {
		if !c.Done() {
			c.Enrol(p)
			return
		}
		got = c.Err()
		p.Exit()
	})
	e.Go("firer", func(p *Proc) { p.Sleep(4); c.Complete(boom) })
	e.Run()
	if got != boom || c.At() != 4 {
		t.Fatalf("waiter saw err %v at %v, want boom at 4", got, c.At())
	}
}

func TestSetCapacityShrinkAbortsSteppedWaiter(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 4)
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 3)
		p.Sleep(10)
		r.Release(3)
	})
	var wokeAt float64
	var granted, aborted bool
	w := spawn(e, "wide", func(p *Proc, wake int) {
		if wake == 0 {
			r.Request(p, 4, true)
			if p.Granted() || p.Aborted() {
				t.Error("request behind a holder resolved immediately")
			}
			return
		}
		wokeAt, granted, aborted = p.Now(), p.Granted(), p.Aborted()
		p.Exit()
	})
	e.Go("shrink", func(p *Proc) { p.Sleep(5); r.SetCapacity(3) })
	e.Run()
	if w.wakes != 2 || wokeAt != 5 || granted || !aborted {
		t.Fatalf("wakes=%d at=%v granted=%v aborted=%v, want 2 wakes, aborted at 5", w.wakes, wokeAt, granted, aborted)
	}
	if r.QueueLen() != 0 || r.InUse() != 0 {
		t.Fatalf("queue %d in use %d after run, want 0 0", r.QueueLen(), r.InUse())
	}

	// Wider than the capacity at request time: refused on the spot.
	spawn(e, "too-wide", func(p *Proc, wake int) {
		r.Request(p, 9, true)
		if !p.Aborted() || p.Granted() {
			t.Error("oversized abortable request not aborted immediately")
		}
		p.Exit()
	})
	e.Run()
}

// Goroutine and stepped processes queue on one Resource in strict FIFO
// order of their requests, whichever way each is driven.
func TestMixedProcessesShareResourceFIFO(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 1)
	var order []int
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			e.Go("g", func(p *Proc) {
				r.Acquire(p, 1)
				order = append(order, i)
				p.Sleep(1)
				r.Release(1)
			})
			continue
		}
		holding := false
		spawn(e, "s", func(p *Proc, wake int) {
			switch {
			case wake == 0:
				r.Request(p, 1, false)
				if p.Granted() {
					t.Error("resource free behind the goroutine holder")
				}
			case !holding:
				if !p.Granted() {
					t.Error("stepped waiter woke without its grant")
				}
				holding = true
				order = append(order, i)
				p.WakeIn(1)
			default:
				r.Release(1)
				p.Exit()
			}
		})
	}
	e.Run()
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("grant order %v, want request order", order)
	}
	if e.Now() != 8 || r.InUse() != 0 {
		t.Fatalf("clock %v in use %d, want 8 and 0", e.Now(), r.InUse())
	}
}

func TestSteppedLiveAndPendingAccounting(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	for i := 0; i < 3; i++ {
		spawn(e, "p", func(p *Proc, wake int) {
			if wake == 0 {
				s.Enrol(p)
				// Loses to the broadcast at 1, from the heap or from a
				// delay queue: Pending counts both.
				if i == 0 {
					p.WakeIn(100)
				} else {
					e.Delay(100).Wake(p)
				}
				return
			}
			p.Exit()
		})
	}
	e.Go("raiser", func(p *Proc) { p.Sleep(1); s.Broadcast() })
	if e.Live() != 4 || e.Pending() != 4 {
		t.Fatalf("before run: live %d pending %d, want 4 4", e.Live(), e.Pending())
	}
	e.RunUntil(50)
	// Everyone has exited; only the three stale timeouts remain queued.
	if e.Live() != 0 || e.Pending() != 3 {
		t.Fatalf("mid run: live %d pending %d, want 0 live and 3 stale events", e.Live(), e.Pending())
	}
	if e.Now() != 50 {
		t.Fatalf("RunUntil left the clock at %v, want 50", e.Now())
	}
	// Wakeups for the current instant queue outside the heap and count
	// like any other: two spawns and a broadcast to one waiter.
	woken := 0
	for i := 0; i < 2; i++ {
		spawn(e, "now", func(p *Proc, wake int) {
			if wake == 0 && i == 0 {
				s.Enrol(p)
				return
			}
			woken++
			p.Exit()
		})
	}
	if e.Live() != 2 || e.Pending() != 5 {
		t.Fatalf("after spawns at now: live %d pending %d, want 2 and 3 stale + 2", e.Live(), e.Pending())
	}
	e.RunUntil(50)
	s.Broadcast()
	if e.Live() != 1 || e.Pending() != 4 || woken != 1 {
		t.Fatalf("after broadcast at now: live %d pending %d woken %d, want 1, 3 stale + 1, 1", e.Live(), e.Pending(), woken)
	}
	e.Run()
	if e.Pending() != 0 || e.Live() != 0 || woken != 2 {
		t.Fatalf("pending %d live %d woken %d after run, want 0 0 2", e.Pending(), e.Live(), woken)
	}
	// Stale events to dead processes are dropped without moving the
	// clock.
	if e.Now() != 50 {
		t.Fatalf("stale events moved the clock to %v", e.Now())
	}
}

// RunUntil with a limit already in the past runs nothing and leaves the
// clock where it is, whether the next event is later or at this instant.
func TestRunUntilNeverLowersClock(t *testing.T) {
	e := NewEnv()
	ran := 0
	spawn(e, "later", func(p *Proc, wake int) {
		if wake == 0 {
			p.WakeIn(10)
			return
		}
		ran++
		p.Exit()
	})
	e.RunUntil(4)
	if e.Now() != 4 {
		t.Fatalf("clock %v after RunUntil(4), want 4", e.Now())
	}
	e.RunUntil(2)
	if e.Now() != 4 {
		t.Fatalf("RunUntil(2) at 4 moved the clock to %v", e.Now())
	}
	var at float64
	e.Go("sleeper", func(p *Proc) { p.Sleep(1); at = p.Now() })
	e.RunUntil(3) // the sleeper's start is queued at 4
	if e.Now() != 4 || e.Pending() != 2 || at != 0 {
		t.Fatalf("RunUntil(3) at 4: clock %v pending %d sleeper woke at %v, want 4, 2, not yet", e.Now(), e.Pending(), at)
	}
	e.Run()
	if at != 5 || ran != 1 || e.Now() != 10 {
		t.Fatalf("sleeper woke at %v (want 5), later ran %d (want 1), clock %v (want 10)", at, ran, e.Now())
	}
}

// A process that exits hands its slot in the process table to the next
// spawn; the leftover events of the old occupant must not wake the new.
func TestReusedSlotIgnoresPredecessorsEvents(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	old := spawn(e, "old", func(p *Proc, wake int) {
		if wake == 0 {
			s.Enrol(p)
			p.WakeIn(10) // still queued when the process exits at 1
			return
		}
		p.Exit()
	})
	var wokeAt []float64
	var heir *stepped
	e.Go("driver", func(p *Proc) {
		p.Sleep(1)
		s.Broadcast()
		p.Sleep(1)
		heir = spawn(e, "heir", func(p *Proc, wake int) {
			wokeAt = append(wokeAt, p.Now())
			if wake == 0 {
				p.WakeIn(100)
				return
			}
			p.Exit()
		})
	})
	e.Run()
	if heir.proc.slot != old.proc.slot {
		t.Fatalf("heir got slot %d, want the vacated slot %d", heir.proc.slot, old.proc.slot)
	}
	if !reflect.DeepEqual(wokeAt, []float64{2, 102}) {
		t.Fatalf("heir woke at %v, want [2 102]: the predecessor's timer at 10 leaked", wokeAt)
	}
}

func TestSteppedNameIsLazyAndTraced(t *testing.T) {
	e := NewEnv()
	var seen []string
	e.SetTrace(func(_ float64, msg string) { seen = append(seen, msg) })
	w := spawn(e, "lazy", func(p *Proc, wake int) { p.Exit() })
	e.Run()
	if w.proc.Name() != "lazy" || !reflect.DeepEqual(seen, []string{"lazy"}) {
		t.Fatalf("name %q trace %v, want lazy", w.proc.Name(), seen)
	}
}

// Property: the queue's one exit, next, hands events out in (t, seq)
// order — the order a sort of everything scheduled gives — for random
// inputs with many equal timestamps: some scheduled for the current
// instant (the lane), some for later through WakeIn (the heap), some
// through fixed delays (their queues, and the heap past maxDelays of them),
// with pushes and pops interleaved and the clock following the pops.
func TestPropertyHeapPopsInTimeSeqOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEnv()
		p := &Proc{env: e}
		// Few distinct times: ties are the common case. 0 and 1e-300 do
		// not move the clock; 0.1 and 0.3 make now+d round.
		fixed := []float64{0, 1e-300, 0.1, 0.3, 1, 2, 3}
		if seed%2 == 0 { // the last of these are refused a queue
			for i := 0; i < maxDelays; i++ {
				fixed = append(fixed, 1+float64(i%4)+float64(i)/64)
			}
		}
		var popped, want []event
		drain := func(n int) {
			for ; n > 0; n-- {
				ev, ok := e.next(math.Inf(1))
				if !ok {
					return
				}
				e.now = ev.t
				popped = append(popped, ev)
			}
		}
		for round := 0; round < 40; round++ {
			for n := rng.Intn(30); n > 0; n-- {
				// Never earlier than the last pop, as schedule clamps to now.
				d := float64(rng.Intn(4))
				switch rng.Intn(3) {
				case 0:
					p.WakeIn(d) // a quarter land on now
				case 1:
					d = fixed[rng.Intn(len(fixed))]
					e.Delay(d).Wake(p)
				default:
					d = 0
					e.schedule(p, e.now)
				}
				want = append(want, event{t: e.now + d, seq: e.seq})
			}
			drain(rng.Intn(25))
		}
		if len(e.delays) > maxDelays {
			t.Errorf("%d delay queues, cap %d", len(e.delays), maxDelays)
		}
		// Nothing beyond the limit comes out, and the refusal loses nothing.
		if ev, ok := e.next(e.now - 1); ok {
			t.Errorf("next(%v) at now=%v returned an event at %v", e.now-1, e.now, ev.t)
		}
		if e.Pending() != len(want)-len(popped) {
			t.Errorf("Pending() = %d with %d scheduled and %d popped", e.Pending(), len(want), len(popped))
		}
		drain(len(want))
		if len(popped) != len(want) || e.Pending() != 0 {
			return false
		}
		slices.SortFunc(want, func(a, b event) int {
			if a.before(&b) {
				return -1
			}
			return 1
		})
		for i := range want {
			if popped[i].t != want[i].t || popped[i].seq != want[i].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: fifo behaves as the slice it replaces (append, q[1:], filter in
// place) through drains, slides of a never-empty queue and retains, and
// a queue that holds a steady few elements keeps a bounded array however
// many pass through it.
func TestPropertyFifoMatchesSlice(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q fifo[int]
		var ref []int
		next := 0
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				q.push(next)
				ref = append(ref, next)
				next++
			case op < 9:
				if len(ref) == 0 {
					continue
				}
				if q.peek() != ref[0] || q.pop() != ref[0] {
					return false
				}
				ref = ref[1:]
			default:
				m := 2 + rng.Intn(3)
				q.retain(func(v int) bool { return v%m != 0 })
				kept := ref[:0]
				for _, v := range ref {
					if v%m != 0 {
						kept = append(kept, v)
					}
				}
				ref = kept
			}
			if q.len() != len(ref) || !slices.Equal(q.items[q.head:], ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}

	var q fifo[int]
	for i := 0; i < 3; i++ {
		q.push(i)
	}
	for i := 3; i < 100000; i++ {
		q.push(i)
		if got := q.pop(); got != i-3 {
			t.Fatalf("pop %d, want %d", got, i-3)
		}
	}
	if cap(q.items) > 16 {
		t.Fatalf("a queue of 3 or 4 elements grew its array to %d", cap(q.items))
	}
}

// A goroutine process parked on a signal drives the queue itself: the
// steppers that fire the signal are stepped on its stack and its own
// wakeup returns from Park, so awaiting a thousand completions costs a
// handful of coroutine switches, not two per completion.
func TestParkedProcessDrivesSteppers(t *testing.T) {
	const n = 1000
	e := NewEnv()
	arrivals := NewSignal(e)
	queued, got := 0, 0
	for i := 0; i < n; i++ {
		d := 1 + float64(i)/n
		spawn(e, "unit", func(p *Proc, wake int) {
			if wake == 0 {
				p.WakeIn(d)
				return
			}
			queued++
			arrivals.Broadcast()
			p.Exit()
		})
	}
	w := e.Go("awaiter", func(p *Proc) {
		for got < n {
			for queued == 0 {
				arrivals.Wait(p)
			}
			got += queued
			queued = 0
		}
	})
	resumes := 0
	w.CountResumes(&resumes)
	e.Run()
	if got != n {
		t.Fatalf("awaiter saw %d completions, want %d", got, n)
	}
	if resumes > 4 {
		t.Fatalf("%d coroutine resumes to await %d completions, want at most a handful", resumes, n)
	}
}

// benchProcs is the number of concurrently sleeping processes in the
// kernel benchmarks; each sleeps b.N/benchProcs times, so ns/op is the
// cost of one wakeup.
const benchProcs = 64

// BenchmarkSimGoroutine is the per-wakeup cost of goroutine processes.
func BenchmarkSimGoroutine(b *testing.B) {
	e := NewEnv()
	for i := 0; i < benchProcs; i++ {
		d := 1 + float64(i)/benchProcs
		e.Go("p", func(p *Proc) {
			for n := b.N / benchProcs; n > 0; n-- {
				p.Sleep(d)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkSimStepped is the same workload on stepped processes.
func BenchmarkSimStepped(b *testing.B) {
	e := NewEnv()
	for i := 0; i < benchProcs; i++ {
		d := 1 + float64(i)/benchProcs
		left := b.N / benchProcs
		spawn(e, "p", func(p *Proc, _ int) {
			if left == 0 {
				p.Exit()
				return
			}
			left--
			p.WakeIn(d)
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkSimAwaiter is the orchestrator's shape: one goroutine process
// awaits the completions of benchProcs stepped processes, each queued and
// broadcast on one signal, as pilot.Runtime.AwaitNext does. ns/op is the
// cost of one completion, the stepper's wakeup and the awaiter's.
func BenchmarkSimAwaiter(b *testing.B) {
	e := NewEnv()
	arrivals := NewSignal(e)
	queued := 0
	for i := 0; i < benchProcs; i++ {
		d := 1 + float64(i)/benchProcs
		left := b.N / benchProcs
		spawn(e, "unit", func(p *Proc, wake int) {
			if wake > 0 {
				queued++
				arrivals.Broadcast()
			}
			if left == 0 {
				p.Exit()
				return
			}
			left--
			p.WakeIn(d)
		})
	}
	e.Go("awaiter", func(p *Proc) {
		for got := 0; got < b.N/benchProcs*benchProcs; {
			for queued == 0 {
				arrivals.Wait(p)
			}
			got += queued
			queued = 0
		}
	})
	b.ResetTimer()
	e.Run()
}

// benchResident is the number of sleepers parked beyond the end of
// BenchmarkSimResident's run.
const benchResident = 4096

// BenchmarkSimResident is the per-wakeup cost of short fixed sleeps under
// a heap full of far-off timers, which is where a compute unit's launcher
// and staging sleeps sit under the execution timers of every other unit:
// benchResident stepped processes park far ahead and benchProcs hot ones
// cycle three fixed delays, through WakeIn (heap) or Delay.Wake (delay).
func BenchmarkSimResident(b *testing.B) {
	ds := [3]float64{0.001, 0.04, 0.25}
	for _, leg := range []string{"heap", "delay"} {
		b.Run(leg, func(b *testing.B) {
			e := NewEnv()
			for i := 0; i < benchResident; i++ {
				spawn(e, "resident", func(p *Proc, wake int) {
					if wake == 0 {
						p.WakeIn(1e12 + float64(i))
						return
					}
					p.Exit()
				})
			}
			e.RunUntil(0) // the residents are parked
			qs := [3]*Delay{e.Delay(ds[0]), e.Delay(ds[1]), e.Delay(ds[2])}
			for i := 0; i < benchProcs; i++ {
				left := b.N / benchProcs
				spawn(e, "hot", func(p *Proc, wake int) {
					if left == 0 {
						p.Exit()
						return
					}
					left--
					if leg == "delay" {
						qs[wake%3].Wake(p)
					} else {
						p.WakeIn(ds[wake%3])
					}
				})
			}
			b.ResetTimer()
			e.RunUntil(1e11)
			if e.Live() != benchResident {
				b.Fatalf("%d processes live after the run, want the %d residents", e.Live(), benchResident)
			}
		})
	}
}
