package pilot

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/task"
)

// elasticConfig is quietConfig with zero queue wait and zero launch
// overhead, so fault-timing assertions are exact.
func elasticConfig() cluster.Config {
	cfg := quietConfig()
	cfg.QueueWait = 0
	cfg.LaunchGap = 0
	cfg.LaunchLatency = 0
	return cfg
}

func TestLoseCoresKillsNewestUnits(t *testing.T) {
	e := sim.NewEnv()
	cl := cluster.MustNew(e, elasticConfig(), 1)
	pl, _ := Launch(cl, Description{Cores: 4})
	units := make([]*Unit, 4)
	for i := range units {
		units[i] = pl.SubmitUnit(&task.Spec{Name: "u", Kind: task.MD, Cores: 1, Duration: 100})
	}
	e.Go("fault", func(p *sim.Proc) {
		p.Sleep(50)
		if got := pl.LoseCores(2); got != 2 {
			t.Errorf("LoseCores removed %d cores, want 2", got)
		}
	})
	e.Run()

	// The two oldest units keep their cores; the two newest die at the
	// moment of the node loss.
	for _, u := range units[:2] {
		if err := u.Result().Err; err != nil {
			t.Fatalf("surviving unit failed: %v", err)
		}
		if math.Abs(u.Result().Finished-100) > 1e-9 {
			t.Fatalf("surviving unit finished at %v, want 100", u.Result().Finished)
		}
	}
	for _, u := range units[2:] {
		res := u.Result()
		if !errors.Is(res.Err, ErrNodeLost) {
			t.Fatalf("lost unit error %v, want ErrNodeLost", res.Err)
		}
		if !errors.Is(res.Err, task.ErrResourceLost) {
			t.Fatal("ErrNodeLost must wrap task.ErrResourceLost")
		}
		if math.Abs(res.Finished-50) > 1e-9 {
			t.Fatalf("lost unit killed at %v, want 50", res.Finished)
		}
	}
	if pl.Expired() {
		t.Fatal("partial node loss must not expire the pilot")
	}
	if pl.Cores() != 2 {
		t.Fatalf("pilot has %d cores after the loss, want 2", pl.Cores())
	}
	// The lost cores went back to the machine, the held ones did not.
	if cl.CoresInUse() != 2 {
		t.Fatalf("machine cores in use %d mid-run, want 2", cl.CoresInUse())
	}
}

func TestLoseAllCoresExpiresPilot(t *testing.T) {
	e := sim.NewEnv()
	cl := cluster.MustNew(e, elasticConfig(), 1)
	pl, _ := Launch(cl, Description{Cores: 2})
	u := pl.SubmitUnit(&task.Spec{Name: "u", Kind: task.MD, Cores: 1, Duration: 100})
	e.Go("fault", func(p *sim.Proc) {
		p.Sleep(30)
		// Asking for more than remains still only removes what is there.
		if got := pl.LoseCores(99); got != 2 {
			t.Errorf("LoseCores removed %d cores, want 2", got)
		}
	})
	e.Run()
	if !errors.Is(u.Result().Err, ErrNodeLost) {
		t.Fatalf("unit error %v, want ErrNodeLost", u.Result().Err)
	}
	if !pl.Expired() {
		t.Fatal("losing every core must expire the pilot")
	}
	if pl.Cores() != 0 {
		t.Fatalf("expired pilot reports %d cores, want 0", pl.Cores())
	}
	if cl.CoresInUse() != 0 {
		t.Fatalf("machine cores in use %d after full loss, want 0", cl.CoresInUse())
	}
}

func TestLoseCoresAbortsTooWideQueuedUnit(t *testing.T) {
	// A queued unit wider than the post-shrink capacity can never run;
	// it must fail fast instead of waiting forever.
	e := sim.NewEnv()
	cl := cluster.MustNew(e, elasticConfig(), 1)
	pl, _ := Launch(cl, Description{Cores: 4})
	running := pl.SubmitUnit(&task.Spec{Name: "run", Kind: task.MD, Cores: 2, Duration: 100})
	wide := pl.SubmitUnit(&task.Spec{Name: "wide", Kind: task.MD, Cores: 4, Duration: 10})
	e.Go("fault", func(p *sim.Proc) {
		p.Sleep(50)
		pl.LoseCores(1) // 4 -> 3: "wide" (4 cores) no longer fits
	})
	e.Run()
	if err := running.Result().Err; err != nil {
		t.Fatalf("narrow unit failed: %v", err)
	}
	res := wide.Result()
	if !errors.Is(res.Err, ErrNoCapacity) {
		t.Fatalf("wide unit error %v, want ErrNoCapacity", res.Err)
	}
	if !errors.Is(res.Err, task.ErrResourceLost) {
		t.Fatal("ErrNoCapacity must wrap task.ErrResourceLost")
	}
	if math.Abs(res.Finished-50) > 1e-9 {
		t.Fatalf("wide unit aborted at %v, want 50 (the shrink)", res.Finished)
	}
}

func TestPreemptNoticeDrainsThenKills(t *testing.T) {
	e := sim.NewEnv()
	cl := cluster.MustNew(e, elasticConfig(), 1)
	pl, _ := Launch(cl, Description{Cores: 4})
	short := pl.SubmitUnit(&task.Spec{Name: "short", Kind: task.MD, Cores: 1, Duration: 50})
	long := pl.SubmitUnit(&task.Spec{Name: "long", Kind: task.MD, Cores: 1, Duration: 500})
	var refused *Unit
	e.Go("fault", func(p *sim.Proc) {
		p.Sleep(30)
		pl.Preempt(40) // deadline t=70
		if !pl.Draining() {
			t.Error("pilot not draining after the notice")
		}
		// A draining pilot refuses new work immediately.
		refused = pl.SubmitUnit(&task.Spec{Name: "late", Kind: task.MD, Cores: 1, Duration: 5})
		// A second notice while one is pending is a no-op.
		pl.Preempt(1)
	})
	e.Run()
	if err := short.Result().Err; err != nil {
		t.Fatalf("unit finishing inside the notice window failed: %v", err)
	}
	res := long.Result()
	if !errors.Is(res.Err, ErrPilotPreempted) {
		t.Fatalf("long unit error %v, want ErrPilotPreempted", res.Err)
	}
	if math.Abs(res.Finished-70) > 1e-9 {
		t.Fatalf("long unit killed at %v, want 70 (notice deadline, not the second notice)", res.Finished)
	}
	if !errors.Is(refused.Result().Err, ErrPilotPreempted) {
		t.Fatalf("refused unit error %v, want ErrPilotPreempted", refused.Result().Err)
	}
	if !pl.Expired() {
		t.Fatal("pilot not expired after the notice window")
	}
	if pl.Draining() {
		t.Fatal("an expired pilot must not report Draining")
	}
}

func TestPreemptWithoutNoticeExpiresImmediately(t *testing.T) {
	e := sim.NewEnv()
	cl := cluster.MustNew(e, elasticConfig(), 1)
	pl, _ := Launch(cl, Description{Cores: 2})
	u := pl.SubmitUnit(&task.Spec{Name: "u", Kind: task.MD, Cores: 1, Duration: 100})
	e.Go("fault", func(p *sim.Proc) {
		p.Sleep(25)
		pl.Preempt(0)
	})
	e.Run()
	res := u.Result()
	if !errors.Is(res.Err, ErrPilotPreempted) {
		t.Fatalf("unit error %v, want ErrPilotPreempted", res.Err)
	}
	if math.Abs(res.Finished-25) > 1e-9 {
		t.Fatalf("unit killed at %v, want 25 (no notice)", res.Finished)
	}
	if !pl.Expired() {
		t.Fatal("pilot not expired")
	}
}

func TestResizeGrowAndGracefulShrink(t *testing.T) {
	e := sim.NewEnv()
	cl := cluster.MustNew(e, elasticConfig(), 1)
	pl, _ := Launch(cl, Description{Cores: 4})
	u := pl.SubmitUnit(&task.Spec{Name: "u", Kind: task.MD, Cores: 2, Duration: 100})
	e.Go("elastic", func(p *sim.Proc) {
		p.Sleep(10)
		if got := pl.Resize(4); got != 4 {
			t.Errorf("grow applied %d, want 4", got)
		}
		if pl.Cores() != 8 {
			t.Errorf("pilot has %d cores after grow, want 8", pl.Cores())
		}
		p.Sleep(10)
		// Shrink far below the running unit: graceful, clamps to one
		// core, kills nothing.
		if got := pl.Resize(-99); got != -7 {
			t.Errorf("shrink applied %d, want -7 (clamped to keep one core)", got)
		}
		if pl.Cores() != 1 {
			t.Errorf("pilot has %d cores after shrink, want 1", pl.Cores())
		}
	})
	e.Run()
	if err := u.Result().Err; err != nil {
		t.Fatalf("unit killed by a graceful shrink: %v", err)
	}
	if math.Abs(u.Result().Finished-100) > 1e-9 {
		t.Fatalf("unit finished at %v, want 100", u.Result().Finished)
	}
	if pl.Expired() {
		t.Fatal("resize must never expire a pilot")
	}
}

func TestChaosPlanDriveAppliesFaultsInOrder(t *testing.T) {
	e := sim.NewEnv()
	cl := cluster.MustNew(e, elasticConfig(), 1)
	pl, _ := Launch(cl, Description{Cores: 8})
	u := pl.SubmitUnit(&task.Spec{Name: "u", Kind: task.MD, Cores: 1, Duration: 1000})
	// Deliberately unsorted; Drive stable-sorts by time. The event
	// against slot 1 has no pilot and must be skipped.
	plan := &ChaosPlan{Events: []ChaosEvent{
		{At: 200, Pilot: 0, Kind: ChaosPreempt, Notice: 50},
		{At: 100, Pilot: 0, Kind: ChaosNodeLoss, Cores: 3},
		{At: 150, Pilot: 1, Kind: ChaosNodeLoss, Cores: 8},
		{At: 120, Pilot: 0, Kind: ChaosResize, Cores: -1},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	plan.Drive(e, func(slot int) *Pilot {
		if slot != 0 {
			return nil
		}
		return pl
	})
	e.Run()

	if !errors.Is(u.Result().Err, ErrPilotPreempted) {
		t.Fatalf("unit error %v, want ErrPilotPreempted", u.Result().Err)
	}
	if math.Abs(u.Result().Finished-250) > 1e-9 {
		t.Fatalf("unit killed at %v, want 250 (preempt deadline)", u.Result().Finished)
	}
	ev := pl.TakeEvents()
	var kinds []string
	for _, re := range ev {
		kinds = append(kinds, re.Kind)
	}
	want := []string{
		task.ResourceLaunch,  // t=0, 8 cores
		task.ResourceShrink,  // t=100, 8 -> 5
		task.ResourceResize,  // t=120, 5 -> 4
		task.ResourcePreempt, // t=200
		task.ResourceExpire,  // t=250
	}
	if len(kinds) != len(want) {
		t.Fatalf("resource events %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("resource events %v, want %v", kinds, want)
		}
	}
	if ev[1].Cores != 5 || ev[1].Delta != -3 {
		t.Fatalf("shrink event %+v, want cores 5 delta -3", ev[1])
	}
	if ev[3].Notice != 50 {
		t.Fatalf("preempt event notice %v, want 50", ev[3].Notice)
	}
	// Events drain exactly once.
	if again := pl.TakeEvents(); len(again) != 0 {
		t.Fatalf("second drain returned %d events, want 0", len(again))
	}
}

func TestChaosEventValidation(t *testing.T) {
	bad := []ChaosEvent{
		{At: -1, Kind: ChaosPreempt},
		{At: 1, Pilot: -1, Kind: ChaosPreempt},
		{At: 1, Kind: ChaosNodeLoss, Cores: 0},
		{At: 1, Kind: ChaosPreempt, Notice: -1},
		{At: 1, Kind: ChaosResize, Cores: 0},
		{At: 1, Kind: "meteor"},
	}
	for _, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("event %+v validated, want error", e)
		}
	}
	ok := ChaosEvent{At: 0, Kind: ChaosResize, Cores: -2}
	if err := ok.Validate(); err != nil {
		t.Errorf("event %+v rejected: %v", ok, err)
	}
	var nilPlan *ChaosPlan
	if !nilPlan.Empty() {
		t.Error("nil plan not Empty")
	}
	if err := (&ChaosPlan{Events: bad[:1]}).Validate(); err == nil {
		t.Error("plan with a bad event validated")
	}
}

func TestGrownPilotRunsUnitWiderThanNominal(t *testing.T) {
	// The runtime routes by the pilot's current size, so a pilot grown
	// past its launch size must accept what routing sends it: a task
	// wider than Description.Cores but within Cores(). SubmitUnit used to
	// panic on the nominal size, taking the whole process down.
	e := sim.NewEnv()
	cl := cluster.MustNew(e, elasticConfig(), 1)
	pl, _ := Launch(cl, Description{Cores: 8})
	var res task.Result
	e.Go("orchestrator", func(p *sim.Proc) {
		m, err := NewMultiRuntime(p, pl)
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(1)
		if got := pl.Resize(+8); got != 8 {
			t.Errorf("Resize(+8) applied %d", got)
			return
		}
		res = m.Await(m.Submit(&task.Spec{Name: "wide", Kind: task.MD, Cores: 12, Duration: 10}))
	})
	e.Run()
	if res.Err != nil {
		t.Fatalf("12-core task on a pilot grown to 16 failed: %v", res.Err)
	}
	if math.Abs(res.Finished-11) > 1e-9 {
		t.Fatalf("wide task finished at %v, want 11", res.Finished)
	}
}
