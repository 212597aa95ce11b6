package pilot

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/task"
)

// twoPilots launches two identical pilots on a quiet machine with zero
// queue wait and zero launch overhead, for exact routing assertions.
func twoPilots(e *sim.Env, cores int) (*cluster.Cluster, *Pilot, *Pilot) {
	cl := cluster.MustNew(e, elasticConfig(), 1)
	a, _ := Launch(cl, Description{Cores: cores})
	b, _ := Launch(cl, Description{Cores: cores})
	return cl, a, b
}

func TestMultiRuntimeLoadEstimateDecays(t *testing.T) {
	e := sim.NewEnv()
	_, a, b := twoPilots(e, 4)
	e.Go("orchestrator", func(p *sim.Proc) {
		m, err := NewMultiRuntime(p, a, b)
		if err != nil {
			t.Error(err)
			return
		}
		m.loadDecayTau = 100
		res := m.Await(m.Submit(&task.Spec{Name: "u", Kind: task.MD, ReplicaID: 1, Cores: 2, Duration: 10}))
		if res.Err != nil {
			t.Errorf("unit failed: %v", res.Err)
			return
		}
		// Completion fed the slot's estimate with the unit's core-width.
		if got := m.RecentLoad(0); math.Abs(got-2) > 1e-9 {
			t.Errorf("recent load %v right after completion, want 2", got)
		}
		if got := m.RecentLoad(1); got != 0 {
			t.Errorf("idle slot recent load %v, want 0", got)
		}
		// One e-folding time later the estimate has decayed to 2/e.
		p.Sleep(100)
		if got, want := m.RecentLoad(0), 2/math.E; math.Abs(got-want) > 1e-9 {
			t.Errorf("recent load %v one tau later, want %v", got, want)
		}
		// In-flight width drained with the completion.
		if got := m.InFlightCores(); got[0] != 0 || got[1] != 0 {
			t.Errorf("in-flight cores %v after completion, want [0 0]", got)
		}
	})
	e.Run()
}

func TestMultiRuntimeStagingAffinity(t *testing.T) {
	// The affinity bonus must steer a replica back to the pilot that
	// last ran it even when that pilot carries more load — and must not
	// apply to replicas the pilot never ran.
	e := sim.NewEnv()
	_, a, b := twoPilots(e, 4)
	e.Go("orchestrator", func(p *sim.Proc) {
		m, err := NewMultiRuntime(p, a, b)
		if err != nil {
			t.Error(err)
			return
		}
		m.affinityBonus = 0.5
		// Replica 7's first unit ties to slot 0 and completes there.
		if res := m.Await(m.Submit(&task.Spec{Name: "r7a", Kind: task.MD, ReplicaID: 7, Cores: 1, Duration: 10})); res.Err != nil {
			t.Errorf("unit failed: %v", res.Err)
			return
		}
		// A stranger replica sees slot 0's completed-work estimate and
		// routes to the idle slot 1.
		h8 := m.Submit(&task.Spec{Name: "r8", Kind: task.MD, ReplicaID: 8, Cores: 1, Duration: 10})
		// Replica 7 routes back to slot 0 despite that same estimate:
		// its staged inputs are already there.
		h7 := m.Submit(&task.Spec{Name: "r7b", Kind: task.MD, ReplicaID: 7, Cores: 1, Duration: 10})
		m.Await(h8)
		m.Await(h7)
		if got := m.Routed(); got[0] != 2 || got[1] != 1 {
			t.Errorf("routed %v, want [2 1] (affinity holds replica 7 on slot 0)", got)
		}
	})
	e.Run()
}

func TestMultiRuntimeAffinityForgottenOnRelaunch(t *testing.T) {
	// Affinity tracks pilot instances, not slots: a failover replacement
	// lost the staged data, so the returning replica gets no bonus.
	e := sim.NewEnv()
	cl := cluster.MustNew(e, elasticConfig(), 1)
	a, _ := Launch(cl, Description{Cores: 4, Walltime: 50})
	b, _ := Launch(cl, Description{Cores: 4})
	e.Go("orchestrator", func(p *sim.Proc) {
		m, err := NewMultiRuntime(p, a, b)
		if err != nil {
			t.Error(err)
			return
		}
		m.Failover = true
		m.affinityBonus = 0.5
		if res := m.Await(m.Submit(&task.Spec{Name: "r7a", Kind: task.MD, ReplicaID: 7, Cores: 1, Duration: 10})); res.Err != nil {
			t.Errorf("unit failed: %v", res.Err)
			return
		}
		m.SleepUntil(60) // pilot A expires idle at t=50
		// Replica 7 returns; slot 0 relaunches, but the replacement never
		// ran it. With no bonus anywhere the decayed completed-work
		// estimate on slot 0 routes the unit to slot 1.
		if res := m.Await(m.Submit(&task.Spec{Name: "r7b", Kind: task.MD, ReplicaID: 7, Cores: 1, Duration: 10})); res.Err != nil {
			t.Errorf("unit failed: %v", res.Err)
			return
		}
		if m.Relaunched() != 1 {
			t.Errorf("relaunched %d pilots, want 1", m.Relaunched())
		}
		if got := m.Routed(); got[0] != 1 || got[1] != 1 {
			t.Errorf("routed %v, want [1 1] (no affinity to a replacement pilot)", got)
		}
	})
	e.Run()
}

func TestMultiRuntimeRoutingStableAcrossRelaunch(t *testing.T) {
	// A failover relaunch must inherit its slot's routing history: if
	// the counters reset, the fresh pilot looks idle and attracts a
	// thundering herd of the next burst.
	e := sim.NewEnv()
	cl := cluster.MustNew(e, elasticConfig(), 1)
	a, _ := Launch(cl, Description{Cores: 4, Walltime: 50})
	b, _ := Launch(cl, Description{Cores: 4})
	e.Go("orchestrator", func(p *sim.Proc) {
		m, err := NewMultiRuntime(p, a, b)
		if err != nil {
			t.Error(err)
			return
		}
		m.Failover = true
		// Round one: four units spread two-and-two, completing at t=40.
		var hs []task.Handle
		for i := 0; i < 4; i++ {
			hs = append(hs, m.Submit(&task.Spec{Name: "warm", Kind: task.MD, ReplicaID: i, Cores: 1, Duration: 40}))
		}
		for _, r := range m.AwaitAll(hs) {
			if r.Err != nil {
				t.Errorf("warm-up unit failed: %v", r.Err)
				return
			}
		}
		if got := m.Routed(); got[0] != 2 || got[1] != 2 {
			t.Errorf("warm-up routed %v, want [2 2]", got)
			return
		}
		m.SleepUntil(60) // pilot A expires idle at t=50

		// Round two, fresh replicas: the first submission replaces the
		// expired pilot A in place.
		hs = hs[:0]
		for i := 0; i < 4; i++ {
			hs = append(hs, m.Submit(&task.Spec{Name: "burst", Kind: task.MD, ReplicaID: 10 + i, Cores: 1, Duration: 10}))
		}
		if m.Relaunched() != 1 {
			t.Errorf("relaunched %d pilots, want 1", m.Relaunched())
		}
		if m.PilotAt(0) == a {
			t.Error("slot 0 still holds the expired pilot")
		}
		// The replacement inherited the slot's decayed completed-work
		// estimate instead of starting from zero.
		if got := m.RecentLoad(0); got < 1.5 {
			t.Errorf("slot 0 recent load %v after relaunch, want the inherited (decayed) estimate > 1.5", got)
		}
		for _, r := range m.AwaitAll(hs) {
			if r.Err != nil {
				t.Errorf("burst unit failed: %v", r.Err)
				return
			}
		}
		// With inherited history both slots look equally loaded and the
		// burst splits evenly; a reset would have dumped it on slot 0.
		if got := m.Routed(); got[0] != 4 || got[1] != 4 {
			t.Errorf("routed %v after the burst, want [4 4] (no thundering herd)", got)
		}
	})
	e.Run()
}
