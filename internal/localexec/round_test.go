package localexec

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/task"
)

// round submits n watched copies of spec and collects them, in one
// AwaitBatch when the runtime batches and one AwaitNext at a time
// otherwise. It returns the number of deliveries it took.
func round(rt *Runtime, spec *task.Spec, n int, queued func()) (deliveries int) {
	for i := 0; i < n; i++ {
		rt.SubmitWatched(spec)
	}
	if queued != nil {
		queued()
	}
	batch, _ := task.Runtime(rt).(task.BatchAwaiter)
	for got := 0; got < n; deliveries++ {
		var hs []task.Handle
		if batch != nil {
			hs = batch.AwaitBatch(n-got, math.Inf(1))
		} else {
			hs = rt.AwaitNext(math.Inf(1))
		}
		for _, h := range hs {
			if err := h.Result().Err; err != nil {
				panic(err)
			}
		}
		got += len(hs)
	}
	return deliveries
}

// TestLocalRoundCosts bounds one Mode II round, 64 watched tasks on 2
// cores, by three exact counts. The tasks block on a gate until all 64
// are submitted, so the queue is full when it is read:
//   - goroutines: at most cores + 1 beside the test's own while the
//     queue is full. A queued task holds no goroutine; a runtime that
//     parks a goroutine per queued task holds 64.
//   - deliveries: one AwaitBatch(64) returns the whole round.
//   - objects a task: a warm round allocates nothing; a goroutine start
//     that allocates its closure, or a handle a task, is one each.
func TestLocalRoundCosts(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates beside the program")
	}
	const cores, tasks, rounds = 2, 64, 8
	rt := New(cores)
	var gate sync.RWMutex
	spec := &task.Spec{Name: "gated", Cores: 1, Run: func() error {
		gate.RLock()
		gate.RUnlock()
		return nil
	}}
	run := func(queued func()) int {
		gate.Lock()
		return round(rt, spec, tasks, func() {
			if queued != nil {
				queued()
			}
			gate.Unlock()
		})
	}
	run(nil) // sizes the queue and the stream

	base := runtime.NumGoroutine()
	alive := 0
	if got := run(func() { alive = runtime.NumGoroutine() - base }); got != 1 {
		t.Errorf("a round of %d took %d deliveries, want one AwaitBatch", tasks, got)
	}
	t.Logf("%d goroutines alive while queued", alive)
	if alive > cores+1 {
		t.Errorf("%d goroutines alive with %d tasks queued on %d cores, want at most %d", alive, tasks-cores, cores, cores+1)
	}

	if poison {
		return // under simcheck every task takes a fresh handle
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		run(nil)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / (rounds * tasks)
	t.Logf("%.4f objects a task", per)
	if per > 1.0/tasks {
		t.Errorf("%.4f objects allocated a task, want at most 1 a round of %d", per, tasks)
	}
}

// spin is a task body that keeps its core busy for taskSpin.
func spin() error {
	for t0 := time.Now(); time.Since(t0) < taskSpin; {
	}
	return nil
}

const taskSpin = 10 * time.Microsecond

// BenchmarkLocalexecRound times Mode II rounds of 10 µs tasks on 2
// cores, 1 024 and 16 384 tasks a round, submitted at once and
// collected as one round. ns/task is the stream's metric; x-ideal is a
// round's wall over its tasks' work spread over the cores, and
// goroutines the count beside the benchmark's own while a round is
// queued. A queue whose cost grows with its length (a wakeup of every
// queued task at each completion) makes the large leg dearer per task.
func BenchmarkLocalexecRound(b *testing.B) {
	const cores = 2
	spec := &task.Spec{Name: "spin", Cores: 1, Run: spin}
	for _, n := range []int{1024, 16384} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rt := New(cores)
			round(rt, spec, n, nil)
			base, alive := runtime.NumGoroutine(), 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round(rt, spec, n, func() {
					if i == 0 {
						alive = runtime.NumGoroutine() - base
					}
				})
			}
			b.StopTimer()
			per := float64(b.Elapsed().Nanoseconds()) / float64(b.N*n)
			b.ReportMetric(per, "ns/task")
			b.ReportMetric(per*cores/float64(taskSpin.Nanoseconds()), "x-ideal")
			b.ReportMetric(float64(alive), "goroutines")
		})
	}
}
