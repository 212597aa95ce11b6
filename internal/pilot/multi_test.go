package pilot

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/task"
)

// twoClusterSetup builds two machines in one environment with pilots of
// the given sizes and runs fn on an orchestrator process.
func twoClusterSetup(t *testing.T, coresA, coresB int, fn func(m *Runtime)) {
	t.Helper()
	e := sim.NewEnv()
	cfgA := quietConfig()
	cfgA.QueueWait = 0
	cfgB := quietConfig()
	cfgB.QueueWait = 0
	cfgB.Name = "second"
	clA := cluster.MustNew(e, cfgA, 1)
	clB := cluster.MustNew(e, cfgB, 2)
	plA, err := Launch(clA, Description{Cores: coresA})
	if err != nil {
		t.Fatal(err)
	}
	plB, err := Launch(clB, Description{Cores: coresB})
	if err != nil {
		t.Fatal(err)
	}
	e.Go("orchestrator", func(p *sim.Proc) {
		m, err := NewMultiRuntime(p, plA, plB)
		if err != nil {
			t.Error(err)
			return
		}
		fn(m)
	})
	e.Run()
}

func TestMultiRuntimeAggregateCores(t *testing.T) {
	twoClusterSetup(t, 32, 16, func(m *Runtime) {
		if m.Cores() != 48 {
			t.Errorf("aggregate cores %d, want 48", m.Cores())
		}
	})
}

func TestMultiRuntimeBalancesLoad(t *testing.T) {
	twoClusterSetup(t, 32, 32, func(m *Runtime) {
		var hs []task.Handle
		for i := 0; i < 64; i++ {
			hs = append(hs, m.Submit(&task.Spec{Name: "u", Cores: 1, Duration: 10}))
		}
		m.AwaitAll(hs)
		routed := m.Routed()
		if routed[0]+routed[1] != 64 {
			t.Errorf("routed %v, want 64 total", routed)
		}
		// Capacity-proportional routing over equal pilots splits evenly.
		if routed[0] != 32 || routed[1] != 32 {
			t.Errorf("routing imbalanced: %v", routed)
		}
	})
}

func TestMultiRuntimeFasterThanSinglePilot(t *testing.T) {
	// 64 single-core tasks of 10 s: 32 cores alone need >= 20 s; adding
	// a second 32-core machine halves the makespan.
	var multiSpan float64
	twoClusterSetup(t, 32, 32, func(m *Runtime) {
		start := m.Now()
		var hs []task.Handle
		for i := 0; i < 64; i++ {
			hs = append(hs, m.Submit(&task.Spec{Name: "u", Cores: 1, Duration: 10}))
		}
		m.AwaitAll(hs)
		multiSpan = m.Now() - start
	})
	if multiSpan >= 15 {
		t.Fatalf("multi-resource makespan %v, want ~one wave (<15 s)", multiSpan)
	}
}

func TestMultiRuntimeWideTaskRouting(t *testing.T) {
	// A task wider than the small pilot must go to the big one.
	twoClusterSetup(t, 64, 8, func(m *Runtime) {
		h := m.Submit(&task.Spec{Name: "wide", Cores: 32, Duration: 5})
		m.Await(h)
		routed := m.Routed()
		if routed[0] != 1 || routed[1] != 0 {
			t.Errorf("wide task routed %v, want pilot 0 only", routed)
		}
	})
}

func TestMultiRuntimeTooWideEverywherePanics(t *testing.T) {
	twoClusterSetup(t, 8, 8, func(m *Runtime) {
		defer func() {
			if recover() == nil {
				t.Error("task fitting no pilot did not panic")
			}
		}()
		m.Submit(&task.Spec{Name: "huge", Cores: 64, Duration: 1})
	})
}

func TestMultiRuntimeOverheadAndSleep(t *testing.T) {
	twoClusterSetup(t, 8, 8, func(m *Runtime) {
		m.Overhead(2.5)
		if m.OverheadTotal != 2.5 {
			t.Errorf("overhead total %v", m.OverheadTotal)
		}
		m.SleepUntil(m.Now() + 5)
		if m.Now() < 7.4 {
			t.Errorf("clock %v after overhead+sleep, want >= 7.5", m.Now())
		}
	})
}

func TestMultiRuntimeRequiresPilots(t *testing.T) {
	e := sim.NewEnv()
	e.Go("p", func(p *sim.Proc) {
		if _, err := NewMultiRuntime(p); err == nil {
			t.Error("empty pilot list accepted")
		}
	})
	e.Run()
}

func TestMultiRuntimeRejectsForeignEnv(t *testing.T) {
	e1 := sim.NewEnv()
	e2 := sim.NewEnv()
	cl := cluster.MustNew(e2, quietConfig(), 1)
	pl, _ := Launch(cl, Description{Cores: 8})
	e1.Go("p", func(p *sim.Proc) {
		if _, err := NewMultiRuntime(p, pl); err == nil {
			t.Error("pilot from a foreign environment accepted")
		}
	})
	e1.Run()
	e2.Run()
}

// A unit routed to a pilot that is gone fails at its first step, queued
// behind the submissions of the same instant: every one of them is
// routed by the in-flight width of those before it, as if none had
// failed yet, so four units over two dead slots split two and two.
func TestDeadSlotsRouteBeforeUnitsFail(t *testing.T) {
	twoClusterSetup(t, 8, 8, func(m *Runtime) {
		m.SleepUntil(1) // both pilots are active
		m.PilotAt(0).Preempt(0)
		m.PilotAt(1).Preempt(0)
		var hs []task.Handle
		for i := 0; i < 4; i++ {
			hs = append(hs, m.Submit(&task.Spec{Name: "u", Cores: 1, Duration: 10}))
		}
		for i, res := range m.AwaitAll(hs) {
			if !errors.Is(res.Err, ErrPilotPreempted) || res.Finished != 1 {
				t.Errorf("unit %d: %v at %g, want %v at 1", i, res.Err, res.Finished, ErrPilotPreempted)
			}
		}
		if got := m.Routed(); got[0] != 2 || got[1] != 2 {
			t.Errorf("routed %v, want [2 2]", got)
		}
	})
}

// AwaitBatch returns once n watched completions are pending, at its
// deadline, or at once for a failed one, and lends its handles only until the orchestrator next
// blocks: a submission before that carves a fresh unit, one after it
// reuses a delivered unit.
func TestAwaitBatchDeliversAtTheNth(t *testing.T) {
	twoClusterSetup(t, 8, 8, func(m *Runtime) {
		submit := func(d float64) task.Handle {
			return m.SubmitWatched(&task.Spec{Name: "u", Cores: 1, Duration: d})
		}
		for _, d := range []float64{30, 10, 20} {
			submit(d)
		}
		m.SleepUntil(1)
		m.DrainResourceEvents() // buffered events would deliver the first completion early
		hs := m.AwaitBatch(3, math.Inf(1))
		if len(hs) != 3 || m.Now() < 30 {
			t.Fatalf("AwaitBatch(3) delivered %d at %g, want 3 at the last finish (> 30)", len(hs), m.Now())
		}
		delivered := map[task.Handle]bool{}
		for _, h := range hs {
			delivered[h] = true
		}
		if h := submit(10); delivered[h] {
			t.Fatal("a submission before the next blocking call reused a delivered handle")
		}
		m.Overhead(1)
		if h := submit(100); !poison && !delivered[h] {
			t.Fatal("a submission after the next blocking call carved a fresh unit with spares at hand")
		}
		deadline := m.Now() + 50
		hs = m.AwaitBatch(2, deadline)
		if len(hs) != 1 || hs[0].Result().Spec.Duration != 10 || m.Now() != deadline {
			t.Fatalf("AwaitBatch(2) by %g delivered %d at %g, want the 10 s unit at the deadline", deadline, len(hs), m.Now())
		}
		killed := m.Now()
		m.PilotAt(0).Preempt(0)
		m.PilotAt(1).Preempt(0)
		hs = m.AwaitBatch(5, math.Inf(1))
		if len(hs) != 1 || !hs[0].Result().Failed() || m.Now() != killed {
			t.Fatalf("AwaitBatch(5) delivered %d at %g, want the killed unit at %g", len(hs), m.Now(), killed)
		}
	})
}
