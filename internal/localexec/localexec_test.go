package localexec

import (
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/task"
)

func TestRunRealWork(t *testing.T) {
	rt := New(2)
	var ran atomic.Bool
	h := rt.Submit(&task.Spec{Name: "job", Cores: 1, Run: func() error {
		ran.Store(true)
		return nil
	}})
	res := rt.Await(h)
	if !ran.Load() {
		t.Fatal("Run function did not execute")
	}
	if res.Err != nil {
		t.Fatalf("err = %v, want nil", res.Err)
	}
	if res.Finished < res.Submitted {
		t.Fatal("finished before submitted")
	}
}

func TestErrorPropagates(t *testing.T) {
	rt := New(1)
	boom := errors.New("boom")
	h := rt.Submit(&task.Spec{Name: "bad", Cores: 1, Run: func() error { return boom }})
	if res := rt.Await(h); !errors.Is(res.Err, boom) {
		t.Fatalf("err = %v, want boom", res.Err)
	}
}

func TestCoreLimitSerializes(t *testing.T) {
	rt := New(1)
	var concurrent, peak atomic.Int32
	work := func() error {
		c := concurrent.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		concurrent.Add(-1)
		return nil
	}
	var hs []task.Handle
	for i := 0; i < 4; i++ {
		hs = append(hs, rt.Submit(&task.Spec{Name: "w", Cores: 1, Run: work}))
	}
	rt.AwaitAll(hs)
	if peak.Load() != 1 {
		t.Fatalf("peak concurrency %d, want 1 on a 1-core runtime", peak.Load())
	}
}

func TestWideTaskClampedNotDeadlocked(t *testing.T) {
	rt := New(2)
	h := rt.Submit(&task.Spec{Name: "wide", Cores: 64, Run: func() error { return nil }})
	done := make(chan struct{})
	go func() {
		rt.Await(h)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wide task deadlocked instead of being clamped")
	}
}

func TestAwaitAllOrder(t *testing.T) {
	rt := New(4)
	specs := []*task.Spec{
		{Name: "a", Cores: 1, Run: func() error { time.Sleep(30 * time.Millisecond); return nil }},
		{Name: "b", Cores: 1, Run: func() error { return nil }},
	}
	results := task.RunAll(rt, specs)
	if results[0].Spec.Name != "a" || results[1].Spec.Name != "b" {
		t.Fatal("results not in submission order")
	}
}

func TestAwaitNextDeliversInCompletionOrder(t *testing.T) {
	rt := New(4)
	slow := rt.SubmitWatched(&task.Spec{Name: "slow", Cores: 1, Run: func() error {
		time.Sleep(300 * time.Millisecond)
		return nil
	}})
	fast := rt.SubmitWatched(&task.Spec{Name: "fast", Cores: 1, Run: func() error {
		time.Sleep(10 * time.Millisecond)
		return nil
	}})
	// A delivered handle is read before the next AwaitNext, its reuse
	// point.
	var got, names []string
	for len(got) < 2 {
		hs := rt.AwaitNext(rt.Now() + 5.0)
		if len(hs) == 0 {
			t.Fatal("AwaitNext timed out with completions outstanding")
		}
		for _, h := range hs {
			switch h {
			case fast:
				got = append(got, "fast")
			case slow:
				got = append(got, "slow")
			}
			names = append(names, h.Result().Spec.Name)
		}
	}
	if got[0] != "fast" || got[1] != "slow" {
		t.Fatal("completions not delivered fast-first")
	}
	if names[0] != "fast" {
		t.Fatal("wrong result on delivered handle")
	}
}

func TestAwaitNextDeliversExactlyOnce(t *testing.T) {
	rt := New(4)
	for i := 0; i < 5; i++ {
		rt.SubmitWatched(&task.Spec{Name: "w", Cores: 1, Run: func() error { return nil }})
	}
	seen := map[task.Handle]bool{}
	total := 0
	for total < 5 {
		for _, h := range rt.AwaitNext(rt.Now() + 5.0) {
			if seen[h] {
				t.Fatal("completion delivered twice")
			}
			seen[h] = true
			total++
		}
	}
	if extra := rt.AwaitNext(rt.Now() + 0.02); len(extra) != 0 {
		t.Fatalf("drained stream delivered %d more handles", len(extra))
	}
}

func TestUnwatchedTasksStayOffStream(t *testing.T) {
	rt := New(4)
	h := rt.Submit(&task.Spec{Name: "plain", Cores: 1, Run: func() error { return nil }})
	rt.Await(h)
	if got := rt.AwaitNext(rt.Now() + 0.02); len(got) != 0 {
		t.Fatal("plain Submit leaked onto the completion stream")
	}
}

func TestDurationEmulationWithoutRun(t *testing.T) {
	rt := New(1)
	h := rt.Submit(&task.Spec{Name: "sleepy", Cores: 1, Duration: 0.05})
	res := rt.Await(h)
	if res.Exec < 0.04 {
		t.Fatalf("emulated duration %v, want >= ~0.05", res.Exec)
	}
}

func TestOverheadDoesNotSleep(t *testing.T) {
	rt := New(1)
	start := time.Now()
	rt.Overhead(100)
	if time.Since(start) > time.Second {
		t.Fatal("Overhead slept in wall time")
	}
}

func TestDefaultsToOneCore(t *testing.T) {
	if New(0).Cores() != 1 || New(-3).Cores() != 1 {
		t.Fatal("non-positive core count did not default to 1")
	}
}

// TestSteadyStreamAllocatesNothing: a closed loop that resubmits each
// delivered task allocates nothing: handles are reused, the stream is
// double-buffered and a goroutine started for a submission that finds
// cores free runs a func bound once. A handle or channel made per task,
// a stream slice made per delivery, or a go statement with arguments
// (go r.work(h), a closure per start) fails it.
func TestSteadyStreamAllocatesNothing(t *testing.T) {
	if poison {
		t.Skip("under simcheck no handle is reused")
	}
	rt := New(2)
	spec := &task.Spec{Name: "w", Cores: 1, Run: func() error { return nil }}
	const inFlight, warm, tasks = 4, 200, 4000
	for i := 0; i < inFlight; i++ {
		rt.SubmitWatched(spec)
	}
	n := 0
	resubmit := func(limit int) {
		for n < limit {
			for _, h := range rt.AwaitNext(math.Inf(1)) {
				if err := h.Result().Err; err != nil {
					t.Fatal(err)
				}
				rt.SubmitWatched(spec)
				n++
			}
		}
	}
	resubmit(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resubmit(warm + tasks)
	runtime.ReadMemStats(&after)
	for left := inFlight; left > 0; {
		left -= len(rt.AwaitNext(math.Inf(1)))
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(n-warm)
	t.Logf("%.3f allocations a task", per)
	if per > 0.1 {
		t.Errorf("%.2f allocations a task, want none", per)
	}
}

// TestSteadyQueueKeepsOrderAndItsArray: on one core, a queue that never
// drains (each delivery resubmits one task behind seven waiting ones)
// runs its tasks in submission order and, once warm, allocates nothing
// a task: its tasks are linked through their reused handles, not held
// in an array. The bound, a tenth of an object a task, leaves room for
// the runtime's own rare objects (a parked goroutine's wait record
// taken on one processor and returned on another) under a loaded host.
func TestSteadyQueueKeepsOrderAndItsArray(t *testing.T) {
	rt := New(1)
	gate := make(chan struct{})
	const waiting, warm, tasks = 8, 100, 400
	ran := make([]int, 0, tasks) // appended by one task at a time: the runtime has one core
	specs := make([]*task.Spec, tasks)
	for i := range specs {
		specs[i] = &task.Spec{Name: "q", Cores: 1, Run: func() error {
			<-gate
			ran = append(ran, i)
			return nil
		}}
	}
	next, done := 0, 0
	for ; next < waiting; next++ {
		rt.SubmitWatched(specs[next])
	}
	// step lets the running task end and resubmits one task a delivery.
	step := func() {
		gate <- struct{}{}
		hs := rt.AwaitNext(math.Inf(1))
		done += len(hs)
		for range hs {
			if next < tasks {
				rt.SubmitWatched(specs[next])
				next++
			}
		}
	}
	for done < warm {
		step()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for next < tasks {
		step()
	}
	runtime.ReadMemStats(&after)
	for done < tasks {
		step()
	}
	for i, id := range ran {
		if id != i {
			t.Fatalf("task %d ran %dth, want submission order", id, i)
		}
	}
	if poison || raceDetector {
		return // a fresh handle a task under simcheck; the detector allocates
	}
	got, n := after.Mallocs-before.Mallocs, tasks-waiting-warm
	t.Logf("%d objects over %d tasks", got, n)
	if float64(got) > 0.1*float64(n) {
		t.Errorf("a steady queue allocated %d objects over %d tasks, want at most a tenth of one a task", got, n)
	}
}

// TestIdleRuntimeHoldsNoGoroutine: once a Mode II round is delivered,
// the runtime's goroutines have exited. The last one exits just after it
// unlocks, so the count is polled for a bounded time. A worker that
// parks for the next task instead of exiting fails it; a runtime has no
// Close, so such a worker would outlive it.
func TestIdleRuntimeHoldsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	rt := New(2)
	round(rt, &task.Spec{Name: "w", Cores: 1, Run: spin}, 16, nil)
	alive := 0
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if alive = runtime.NumGoroutine() - base; alive <= 0 {
			return
		}
	}
	t.Errorf("%d goroutines alive after the round was delivered, want none", alive)
}
