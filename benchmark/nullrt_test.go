package main

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/task"
)

// Every trigger family runs to completion on the null runtime: each
// replica finishes its full segment budget and none is dropped.
func TestNullRuntimeCompletesEveryTrigger(t *testing.T) {
	const replicas, cycles = 24, 3
	cases := []struct {
		name    string
		trigger core.Trigger
	}{
		{"barrier", core.NewBarrierTrigger()},
		{"window", core.NewWindowTrigger(100, 0)},
		{"count", core.NewCountTrigger(8)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := &core.Spec{
				Name:            "null-" + c.name,
				Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, replicas)}},
				Trigger:         c.trigger,
				CoresPerReplica: 1,
				StepsPerCycle:   virtSteps,
				Cycles:          cycles,
				Seed:            3,
			}
			rt := newNullRuntime(replicas)
			simu, err := core.New(spec, engines.NewAmberVirtual(virtAtoms, 4), rt)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := simu.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := completions(rep); got != replicas*cycles {
				t.Errorf("%d completions, want %d", got, replicas*cycles)
			}
			if rep.Dropped != 0 {
				t.Errorf("%d replicas dropped, want 0", rep.Dropped)
			}
			if rep.ExchangeEvents == 0 {
				t.Error("no exchange event fired")
			}
			for _, r := range simu.Replicas() {
				if r.Cycle != cycles {
					t.Errorf("replica %d finished %d segments, want %d", r.ID, r.Cycle, cycles)
				}
			}
			if len(rt.watched) != 0 {
				t.Errorf("%d watched tasks left undelivered", len(rt.watched))
			}
		})
	}
}

// The completion stream is ordered by finish time, then by submission,
// one completion per call, and the clock honours deadlines and sleeps.
func TestNullRuntimeOrderAndClock(t *testing.T) {
	rt := newNullRuntime(4)
	spec := func(name string, d float64) *task.Spec { return &task.Spec{Name: name, Cores: 1, Duration: d} }
	rt.SubmitWatched(spec("slow", 30))
	rt.SubmitWatched(spec("fast", 10))
	rt.SubmitWatched(spec("tie-a", 20))
	rt.SubmitWatched(spec("tie-b", 20))

	if hs := rt.AwaitNext(5); hs != nil || rt.Now() != 5 {
		t.Fatalf("AwaitNext(5) = %v at t=%v, want timeout at t=5", hs, rt.Now())
	}
	var order []string
	for len(rt.watched) > 0 {
		hs := rt.AwaitNext(math.Inf(1))
		if len(hs) != 1 {
			t.Fatalf("AwaitNext delivered %d handles, want 1", len(hs))
		}
		res := hs[0].Result()
		if !hs[0].Done() || res.Finished != rt.Now() {
			t.Errorf("%s delivered at t=%v but finished at %v", res.Spec.Name, rt.Now(), res.Finished)
		}
		order = append(order, res.Spec.Name)
	}
	want := []string{"fast", "tie-a", "tie-b", "slow"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order %v, want %v", order, want)
		}
	}

	rt.SleepUntil(100)
	rt.SleepUntil(50) // never backwards
	rt.Overhead(2.5)
	if rt.Now() != 102.5 {
		t.Errorf("clock at %v after SleepUntil(100)+Overhead(2.5), want 102.5", rt.Now())
	}
	results := rt.AwaitAll([]task.Handle{rt.Submit(spec("a", 1)), rt.Submit(spec("b", 4))})
	if rt.Now() != 106.5 || results[1].Exec != 4 || results[0].Submitted != 102.5 {
		t.Errorf("AwaitAll: clock %v, results %+v", rt.Now(), results)
	}
	defer func() {
		if recover() == nil {
			t.Error("AwaitNext(+Inf) with nothing outstanding must panic, not hang")
		}
	}()
	rt.AwaitNext(math.Inf(1))
}
