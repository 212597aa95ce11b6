package pilot

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/task"
)

// quietConfig returns a deterministic cluster config with no jitter, no
// failures and negligible staging, so timing assertions are exact.
func quietConfig() cluster.Config {
	cfg := cluster.Small(8, 16) // 128 cores
	cfg.QueueWait = 10
	cfg.LaunchGap = 0.1
	cfg.LaunchLatency = 0.5
	cfg.WavePenalty = 0
	cfg.ExecJitter = 0
	cfg.FailureProb = 0
	cfg.SpeedFactor = 1
	cfg.FS.MetaLatency = 0
	cfg.FS.Bandwidth = 1e15
	return cfg
}

func TestLaunchValidation(t *testing.T) {
	e := sim.NewEnv()
	cl := cluster.MustNew(e, quietConfig(), 1)
	if _, err := Launch(cl, Description{Cores: 0}); err == nil {
		t.Error("Launch with 0 cores succeeded, want error")
	}
	if _, err := Launch(cl, Description{Cores: 1 << 20}); err == nil {
		t.Error("Launch larger than machine succeeded, want error")
	}
}

func TestPilotBecomesActiveAfterQueueWait(t *testing.T) {
	e := sim.NewEnv()
	cl := cluster.MustNew(e, quietConfig(), 1)
	pl, err := Launch(cl, Description{Cores: 32, Walltime: 3600})
	if err != nil {
		t.Fatal(err)
	}
	var at float64
	var expired bool
	e.Go("watch", func(p *sim.Proc) {
		pl.active.Await(p)
		at, expired = p.Now(), pl.expired
	})
	e.Run()
	// The watcher wakes at the activation, before any expiry.
	if !pl.active.Done() || expired {
		t.Fatalf("pilot active %v, expired at activation %v: did not become active", pl.active.Done(), expired)
	}
	if at != 10 {
		t.Fatalf("active at %v, want 10 (queue wait)", at)
	}
}

func TestUnitLifecycleTimes(t *testing.T) {
	e := sim.NewEnv()
	cl := cluster.MustNew(e, quietConfig(), 1)
	pl, _ := Launch(cl, Description{Cores: 32})
	u := pl.SubmitUnit(&task.Spec{Name: "md0", Kind: task.MD, Cores: 1, Duration: 100})
	e.Run()
	if !u.Done() {
		t.Fatal("unit not done")
	}
	r := u.Result()
	if r.Err != nil {
		t.Fatalf("unit failed: %v", r.Err)
	}
	if r.Submitted != 0 {
		t.Errorf("submitted at %v, want 0", r.Submitted)
	}
	if r.CoreWait != 0 {
		t.Errorf("core wait %v, want 0 (idle pilot)", r.CoreWait)
	}
	if math.Abs(r.Launch-0.6) > 1e-9 {
		t.Errorf("launch %v, want 0.6 (gap+latency)", r.Launch)
	}
	if math.Abs(r.Exec-100) > 1e-9 {
		t.Errorf("exec %v, want 100", r.Exec)
	}
	// 10 queue wait + 0.6 launch + 100 exec
	if math.Abs(r.Finished-110.6) > 1e-9 {
		t.Errorf("finished at %v, want 110.6", r.Finished)
	}
	if u.State() != StateDone {
		t.Errorf("state %v, want DONE", u.State())
	}
}

func TestLauncherSerialization(t *testing.T) {
	// N concurrent units pay N*gap serialized launcher time: the last
	// unit's launch component ~= N*gap + latency.
	e := sim.NewEnv()
	cfg := quietConfig()
	cfg.QueueWait = 0
	cl := cluster.MustNew(e, cfg, 1)
	pl, _ := Launch(cl, Description{Cores: 128})
	const n = 64
	units := make([]*Unit, n)
	for i := 0; i < n; i++ {
		units[i] = pl.SubmitUnit(&task.Spec{Name: "u", Cores: 1, Duration: 5})
	}
	e.Run()
	maxLaunch := 0.0
	for _, u := range units {
		if l := u.Result().Launch; l > maxLaunch {
			maxLaunch = l
		}
	}
	want := float64(n)*0.1 + 0.5
	if math.Abs(maxLaunch-want) > 1e-6 {
		t.Fatalf("max launch %v, want %v (serialized launcher)", maxLaunch, want)
	}
}

func TestExecutionModeIIWaves(t *testing.T) {
	// 4 single-core units on a 2-core pilot run in two waves.
	e := sim.NewEnv()
	cfg := quietConfig()
	cfg.QueueWait = 0
	cfg.LaunchGap = 0
	cfg.LaunchLatency = 0
	cl := cluster.MustNew(e, cfg, 1)
	pl, _ := Launch(cl, Description{Cores: 2})
	var units []*Unit
	for i := 0; i < 4; i++ {
		units = append(units, pl.SubmitUnit(&task.Spec{Name: "u", Cores: 1, Duration: 10}))
	}
	e.Run()
	var waits []float64
	for _, u := range units {
		waits = append(waits, u.Result().CoreWait)
	}
	nWaited := 0
	for _, w := range waits {
		if w > 0 {
			nWaited++
		}
	}
	if nWaited != 2 {
		t.Fatalf("units that waited = %d (%v), want 2", nWaited, waits)
	}
	if e.Now() != 20 {
		t.Fatalf("makespan %v, want 20 (two waves of 10)", e.Now())
	}
}

func TestWavePenaltyAppliesOnlyToWaitingUnits(t *testing.T) {
	e := sim.NewEnv()
	cfg := quietConfig()
	cfg.QueueWait = 0
	cfg.LaunchGap = 0
	cfg.LaunchLatency = 0
	cfg.WavePenalty = 3
	cl := cluster.MustNew(e, cfg, 1)
	pl, _ := Launch(cl, Description{Cores: 1})
	u1 := pl.SubmitUnit(&task.Spec{Name: "a", Cores: 1, Duration: 10})
	u2 := pl.SubmitUnit(&task.Spec{Name: "b", Cores: 1, Duration: 10})
	e.Run()
	if got := u1.Result().Launch; got != 0 {
		t.Errorf("first-wave launch %v, want 0 (no penalty)", got)
	}
	if got := u2.Result().Launch; got != 3 {
		t.Errorf("second-wave launch %v, want 3 (wave penalty)", got)
	}
}

func TestMultiCoreUnitOccupancy(t *testing.T) {
	// A 64-core unit plus a 96-core unit cannot overlap on a 128-core
	// pilot; makespan is sequential.
	e := sim.NewEnv()
	cfg := quietConfig()
	cfg.QueueWait = 0
	cfg.LaunchGap = 0
	cfg.LaunchLatency = 0
	cl := cluster.MustNew(e, cfg, 1)
	pl, _ := Launch(cl, Description{Cores: 128})
	pl.SubmitUnit(&task.Spec{Name: "big1", Cores: 64, Duration: 10})
	pl.SubmitUnit(&task.Spec{Name: "big2", Cores: 96, Duration: 10})
	e.Run()
	if e.Now() != 20 {
		t.Fatalf("makespan %v, want 20 (no overlap possible)", e.Now())
	}
}

func TestUnitTooWideForPilotPanics(t *testing.T) {
	e := sim.NewEnv()
	cl := cluster.MustNew(e, quietConfig(), 1)
	pl, _ := Launch(cl, Description{Cores: 4})
	defer func() {
		if recover() == nil {
			t.Error("submitting unit wider than pilot did not panic")
		}
	}()
	pl.SubmitUnit(&task.Spec{Name: "wide", Cores: 8, Duration: 1})
}

func TestFaultInjection(t *testing.T) {
	e := sim.NewEnv()
	cfg := quietConfig()
	cfg.FailureProb = 1.0 // every CanFail task fails
	cl := cluster.MustNew(e, cfg, 1)
	pl, _ := Launch(cl, Description{Cores: 8})
	bad := pl.SubmitUnit(&task.Spec{Name: "dies", Cores: 1, Duration: 10, CanFail: true})
	good := pl.SubmitUnit(&task.Spec{Name: "survives", Cores: 1, Duration: 10}) // CanFail=false
	e.Run()
	if !bad.Done() || bad.Result().Err == nil {
		t.Fatal("CanFail unit did not fail under FailureProb=1")
	}
	if bad.State() != StateFailed {
		t.Fatalf("state %v, want FAILED", bad.State())
	}
	if good.Result().Err != nil {
		t.Fatal("non-CanFail unit failed")
	}
	_, done, failed := pl.Counters()
	if done != 1 || failed != 1 {
		t.Fatalf("counters done=%d failed=%d, want 1/1", done, failed)
	}
	// Failed unit must release its cores.
	if pl.CoresInUse() != 0 {
		t.Fatalf("cores in use %d after failure, want 0", pl.CoresInUse())
	}
}

func TestRuntimeAwaitAll(t *testing.T) {
	e := sim.NewEnv()
	cfg := quietConfig()
	cfg.QueueWait = 0
	cfg.LaunchGap = 0
	cfg.LaunchLatency = 0
	cl := cluster.MustNew(e, cfg, 1)
	pl, _ := Launch(cl, Description{Cores: 16})
	var results []task.Result
	e.Go("orchestrator", func(p *sim.Proc) {
		rt := NewRuntime(pl, p)
		specs := []*task.Spec{
			{Name: "a", Cores: 1, Duration: 5},
			{Name: "b", Cores: 1, Duration: 7},
			{Name: "c", Cores: 1, Duration: 3},
		}
		results = task.RunAll(rt, specs)
	})
	e.Run()
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("task %s failed: %v", r.Spec.Name, r.Err)
		}
	}
	if e.Now() != 7 {
		t.Fatalf("barrier completed at %v, want 7 (slowest task)", e.Now())
	}
}

func TestRuntimeOverheadAdvancesClock(t *testing.T) {
	e := sim.NewEnv()
	cl := cluster.MustNew(e, quietConfig(), 1)
	pl, _ := Launch(cl, Description{Cores: 4})
	var after float64
	e.Go("orchestrator", func(p *sim.Proc) {
		rt := NewRuntime(pl, p)
		rt.Overhead(4.5)
		after = rt.Now()
		if rt.OverheadTotal != 4.5 {
			t.Errorf("overhead total %v, want 4.5", rt.OverheadTotal)
		}
	})
	e.Run()
	if after != 4.5 {
		t.Fatalf("clock %v after overhead, want 4.5", after)
	}
}

func TestBusyCoreSecondsAccounting(t *testing.T) {
	e := sim.NewEnv()
	cfg := quietConfig()
	cfg.QueueWait = 0
	cfg.LaunchGap = 0
	cfg.LaunchLatency = 0
	cl := cluster.MustNew(e, cfg, 1)
	pl, _ := Launch(cl, Description{Cores: 8})
	pl.SubmitUnit(&task.Spec{Name: "a", Cores: 2, Duration: 10})
	pl.SubmitUnit(&task.Spec{Name: "b", Cores: 1, Duration: 4})
	e.Run()
	want := 2.0*10 + 1*4
	if got := pl.BusyCoreSeconds(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("busy core-seconds %v, want %v", got, want)
	}
}
