package pilot

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/task"
)

func TestWalltimeExpiryFailsUnitsAndReleasesAllocation(t *testing.T) {
	e := sim.NewEnv()
	cl := cluster.MustNew(e, quietConfig(), 1) // QueueWait 10
	pl, err := Launch(cl, Description{Cores: 8, Walltime: 50})
	if err != nil {
		t.Fatal(err)
	}
	long := pl.SubmitUnit(&task.Spec{Name: "long", Kind: task.MD, Cores: 4, Duration: 1000})
	short := pl.SubmitUnit(&task.Spec{Name: "short", Cores: 1, Duration: 5})
	e.Run()

	if err := short.Result().Err; err != nil {
		t.Fatalf("unit finishing inside the walltime failed: %v", err)
	}
	res := long.Result()
	if !errors.Is(res.Err, ErrPilotExpired) {
		t.Fatalf("long unit error %v, want ErrPilotExpired", res.Err)
	}
	if !errors.Is(res.Err, task.ErrResourceLost) {
		t.Fatal("ErrPilotExpired must wrap task.ErrResourceLost")
	}
	if long.State() != StateFailed {
		t.Fatalf("long unit state %v, want FAILED", long.State())
	}
	// The batch system reclaims the job at activation (queue wait 10)
	// plus walltime 50.
	if math.Abs(res.Finished-60) > 1e-6 {
		t.Fatalf("long unit killed at %v, want 60", res.Finished)
	}
	if !pl.Expired() {
		t.Fatal("pilot not marked expired")
	}
	if pl.UnitsExpired() != 1 {
		t.Fatalf("units expired %d, want 1", pl.UnitsExpired())
	}
	// An expiring pilot must not hold machine cores hostage.
	if cl.CoresInUse() != 0 {
		t.Fatalf("machine cores in use %d after expiry, want 0", cl.CoresInUse())
	}
}

func TestWalltimeExpiryKillsQueuedUnits(t *testing.T) {
	// A unit still waiting for cores when the walltime runs out dies
	// with the pilot instead of waiting forever.
	e := sim.NewEnv()
	cfg := quietConfig()
	cfg.QueueWait = 0
	cfg.LaunchGap = 0
	cfg.LaunchLatency = 0
	cl := cluster.MustNew(e, cfg, 1)
	pl, _ := Launch(cl, Description{Cores: 1, Walltime: 30})
	running := pl.SubmitUnit(&task.Spec{Name: "running", Cores: 1, Duration: 100})
	queued := pl.SubmitUnit(&task.Spec{Name: "queued", Cores: 1, Duration: 100})
	e.Run()
	for _, u := range []*Unit{running, queued} {
		if !errors.Is(u.Result().Err, ErrPilotExpired) {
			t.Fatalf("unit %s error %v, want ErrPilotExpired", u.Result().Spec.Name, u.Result().Err)
		}
	}
	if pl.UnitsExpired() != 2 {
		t.Fatalf("units expired %d, want 2", pl.UnitsExpired())
	}
}

func TestSubmitAfterExpiryFailsFast(t *testing.T) {
	e := sim.NewEnv()
	cfg := quietConfig()
	cfg.QueueWait = 0
	cl := cluster.MustNew(e, cfg, 1)
	pl, _ := Launch(cl, Description{Cores: 4, Walltime: 20})
	e.Run() // run to expiry with no units
	if !pl.Expired() {
		t.Fatal("idle pilot did not expire")
	}
	u := pl.SubmitUnit(&task.Spec{Name: "late", Cores: 1, Duration: 5})
	e.Run()
	if !errors.Is(u.Result().Err, ErrPilotExpired) {
		t.Fatalf("late unit error %v, want ErrPilotExpired", u.Result().Err)
	}
}

func TestFailoverRuntimeRelaunchesPilot(t *testing.T) {
	e := sim.NewEnv()
	cl := cluster.MustNew(e, quietConfig(), 1) // QueueWait 10
	var rt *Runtime
	var interrupted, redone task.Result
	e.Go("orchestrator", func(p *sim.Proc) {
		var err error
		rt, err = NewFailoverRuntime(cl, Description{Cores: 4, Walltime: 50}, p)
		if err != nil {
			t.Error(err)
			return
		}
		// Outlives the walltime: killed by the first pilot's expiry.
		interrupted = rt.Await(rt.Submit(&task.Spec{Name: "long", Kind: task.MD, Cores: 1, Duration: 1000}))
		// Resubmission lands on a transparently relaunched pilot.
		redone = rt.Await(rt.Submit(&task.Spec{Name: "redo", Kind: task.MD, Cores: 1, Duration: 20}))
	})
	e.Run()
	if !errors.Is(interrupted.Err, task.ErrResourceLost) {
		t.Fatalf("interrupted unit error %v, want resource loss", interrupted.Err)
	}
	if redone.Err != nil {
		t.Fatalf("resubmitted unit failed: %v", redone.Err)
	}
	if rt.Relaunched() != 1 {
		t.Fatalf("relaunched %d pilots, want 1", rt.Relaunched())
	}
	// The replacement pays the batch queue again: the redo unit cannot
	// have finished before expiry (60) + queue wait (10) + exec (20).
	if redone.Finished < 90 {
		t.Fatalf("redo finished at %v, want >= 90 (fresh queue wait)", redone.Finished)
	}
	// The Pilot label is the routing slot, not the incarnation: the
	// replacement took over slot 0 and everything it does is labelled 0.
	if redone.Pilot != 0 || rt.PilotAt(0) != rt.Pilot() || rt.PilotAt(1) != nil {
		t.Fatalf("redo ran on slot %d; PilotAt(0) is Pilot(): %v; PilotAt(1) = %v", redone.Pilot, rt.PilotAt(0) == rt.Pilot(), rt.PilotAt(1))
	}
	events := rt.DrainResourceEvents()
	if len(events) != 4 { // launch, expire, launch, expire
		t.Fatalf("%d resource events, want 4: %+v", len(events), events)
	}
	for _, ev := range events {
		if ev.Pilot != 0 {
			t.Fatalf("event %+v labelled with a failover generation, want slot 0", ev)
		}
	}
	if got := rt.Routed(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("routed %v, want [2]", got)
	}
}

func TestMultiRuntimeRoutesAroundExpiredPilots(t *testing.T) {
	e := sim.NewEnv()
	cfg := quietConfig()
	cfg.QueueWait = 0
	cl := cluster.MustNew(e, cfg, 1)
	plA, _ := Launch(cl, Description{Cores: 4, Walltime: 50})
	plB, _ := Launch(cl, Description{Cores: 4}) // unbounded
	var m *Runtime
	var killed, rerouted, failedOver task.Result
	e.Go("orchestrator", func(p *sim.Proc) {
		var err error
		m, err = NewMultiRuntime(p, plA, plB)
		if err != nil {
			t.Error(err)
			return
		}
		// Ties route to the first pilot: lands on plA and is killed.
		killed = m.Await(m.Submit(&task.Spec{Name: "long", Kind: task.MD, Cores: 1, Duration: 1000}))
		// plA is now expired and skipped: plB absorbs the work.
		rerouted = m.Await(m.Submit(&task.Spec{Name: "reroute", Cores: 1, Duration: 5}))
		// With failover enabled, plA is replaced in place instead.
		m.Failover = true
		failedOver = m.Await(m.Submit(&task.Spec{Name: "failover", Cores: 1, Duration: 5}))
	})
	e.Run()
	if !errors.Is(killed.Err, task.ErrResourceLost) {
		t.Fatalf("killed unit error %v, want resource loss", killed.Err)
	}
	if rerouted.Err != nil {
		t.Fatalf("rerouted unit failed: %v", rerouted.Err)
	}
	if routed := m.Routed(); routed[1] == 0 {
		t.Fatalf("healthy pilot received no work: routed %v", routed)
	}
	if failedOver.Err != nil {
		t.Fatalf("failover unit failed: %v", failedOver.Err)
	}
	if m.Relaunched() != 1 {
		t.Fatalf("relaunched %d pilots, want 1", m.Relaunched())
	}
}

// TestRunHoldsOneCoroutine: a pilot run with its walltime watchdog
// armed, a preemption notice pending and a chaos plan waiting for its
// next fault has four live processes and one coroutine, the
// orchestrator's: the pilot's bootstrap and notice and the chaos driver
// are stepped processes. With each of them a goroutine process it read
// four coroutines.
func TestRunHoldsOneCoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	e := sim.NewEnv()
	cl := cluster.MustNew(e, quietConfig(), 1) // QueueWait 10
	pl, err := Launch(cl, Description{Cores: 8, Walltime: 1000})
	if err != nil {
		t.Fatal(err)
	}
	plan := &ChaosPlan{Events: []ChaosEvent{{At: 500, Kind: ChaosResize, Cores: -1}}}
	plan.Drive(e, func(int) *Pilot { return pl })
	procs, coroutines := 0, 0
	e.Go("emm", func(p *sim.Proc) {
		p.Sleep(20) // past activation
		pl.Preempt(100)
		p.Sleep(1) // the notice has armed its timer
		procs, coroutines = e.Live(), runtime.NumGoroutine()-before
	})
	e.Run()
	if procs != 4 || coroutines != 1 {
		t.Fatalf("%d live processes and %d coroutines, want 4 and 1", procs, coroutines)
	}
	if !errors.Is(pl.expireErr, ErrPilotPreempted) || e.Now() != 500 || e.Live() != 0 {
		t.Fatalf("the run ended at %v with %d live processes, expired by %v; want 500, 0 and the notice",
			e.Now(), e.Live(), pl.expireErr)
	}
}
