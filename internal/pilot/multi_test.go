package pilot

import (
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
