package pilot

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/task"
)

// A unit is a stepped process on the simulation kernel, not a goroutine:
// thousands in flight at once leave the goroutine count where it was.
func TestUnitsDoNotSpawnGoroutines(t *testing.T) {
	const units = 4096
	e := sim.NewEnv()
	cl := cluster.MustNew(e, cluster.Stampede(), 1)
	pl, err := Launch(cl, Description{Cores: units})
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(cl.Config().QueueWait + 1) // the pilot is active and idle
	before := runtime.NumGoroutine()
	spec := &task.Spec{Name: "md", Kind: task.MD, Cores: 1, Duration: 100, InFiles: 3, InBytes: 4096, OutFiles: 2, OutBytes: 4096}
	for i := 0; i < units; i++ {
		pl.SubmitUnit(spec)
	}
	peak := runtime.NumGoroutine()
	e.RunUntil(e.Now() + 60) // every unit is executing (Mode I)
	if inUse := pl.CoresInUse(); inUse != units {
		t.Fatalf("%d cores in use mid-run, want %d", inUse, units)
	}
	if g := runtime.NumGoroutine(); g > peak {
		peak = g
	}
	e.Run()
	if _, done, failed := pl.Counters(); done != units || failed != 0 {
		t.Fatalf("done %d failed %d, want %d 0", done, failed, units)
	}
	if peak > before+2 {
		t.Fatalf("goroutines went from %d to %d with %d units in flight", before, peak, units)
	}
}

// One unit's whole lifecycle, submission to DONE with staging both ways,
// costs one allocation, the unit itself: its latches keep their one waiter
// inline and its fixed sleeps wait in queues that are already grown.
func TestUnitLifecycleAllocations(t *testing.T) {
	e := sim.NewEnv()
	cl := cluster.MustNew(e, cluster.SuperMIC(), 1)
	pl, err := Launch(cl, Description{Cores: 16})
	if err != nil {
		t.Fatal(err)
	}
	e.Run() // activate
	spec := &task.Spec{Name: "md", Kind: task.MD, Cores: 1, Duration: 10, InFiles: 3, InBytes: 4096, OutFiles: 2, OutBytes: 4096}
	var last *Unit
	allocs := testing.AllocsPerRun(200, func() {
		last = pl.SubmitUnit(spec)
		e.Run()
	})
	if last.State() != StateDone {
		t.Fatalf("unit ended %v, want DONE", last.State())
	}
	if allocs > 1 {
		t.Fatalf("%.1f allocations per unit lifecycle, want <= 1", allocs)
	}
	t.Logf("%.1f allocations per unit lifecycle", allocs)
}

// The "unit:<name>" process name is built on demand, for the kernel's
// trace hook and Name, never per submission.
func TestUnitProcessNameReachesTraceHook(t *testing.T) {
	e := sim.NewEnv()
	cl := cluster.MustNew(e, quietConfig(), 1)
	pl, _ := Launch(cl, Description{Cores: 1})
	seen := false
	e.SetTrace(func(_ float64, name string) { seen = seen || name == "unit:md-7" })
	u := pl.SubmitUnit(&task.Spec{Name: "md-7", Cores: 1, Duration: 1})
	e.Run()
	if !seen || u.Name() != "unit:md-7" {
		t.Fatalf("trace hook saw unit:md-7 = %v, Name() = %q", seen, u.Name())
	}
}

// A SubmitWatched → AwaitNext round trip through the runtime allocates
// nothing once it is warm: the unit is one delivered two calls back, the
// routing and per-slot accounting are fields, on one slot or on two, and
// the delivery reuses the runtime's buffer.
func TestRuntimeRoundTripAllocations(t *testing.T) {
	for _, pilots := range []int{1, 2} {
		e := sim.NewEnv()
		cl := cluster.MustNew(e, cluster.SuperMIC(), 1)
		pls := make([]*Pilot, pilots)
		for i := range pls {
			var err error
			if pls[i], err = Launch(cl, Description{Cores: 16}); err != nil {
				t.Fatal(err)
			}
		}
		spec := &task.Spec{Name: "md", Kind: task.MD, ReplicaID: 3, Cores: 1, Duration: 10, InFiles: 3, InBytes: 4096, OutFiles: 2, OutBytes: 4096}
		var allocs float64
		e.Go("orchestrator", func(p *sim.Proc) {
			rt, err := NewMultiRuntime(p, pls...)
			if err != nil {
				t.Error(err)
				return
			}
			rt.Await(rt.Submit(spec)) // pilots active, buffers warm
			allocs = testing.AllocsPerRun(200, func() {
				rt.SubmitWatched(spec)
				if hs := rt.AwaitNext(math.Inf(1)); len(hs) != 1 || hs[0].Result().Err != nil {
					t.Errorf("round trip delivered %v", hs)
				}
			})
		})
		e.Run()
		if allocs > 0 {
			t.Errorf("%d pilot(s): %.1f allocations per round trip, want 0", pilots, allocs)
		}
	}
}

// The exchange phase's waiting style allocates nothing once warm either:
// single-point tasks submitted unwatched and awaited together, then one
// exchange task awaited alone. Awaited units come back as spares, and
// AwaitAll refills one buffer.
func TestRuntimeSubmitAwaitAllAllocations(t *testing.T) {
	for _, pilots := range []int{1, 2} {
		e := sim.NewEnv()
		cl := cluster.MustNew(e, cluster.SuperMIC(), 1)
		pls := make([]*Pilot, pilots)
		for i := range pls {
			var err error
			if pls[i], err = Launch(cl, Description{Cores: 16}); err != nil {
				t.Fatal(err)
			}
		}
		spe := make([]task.Spec, 6)
		for i := range spe {
			spe[i] = task.Spec{Kind: task.SinglePoint, ReplicaID: i, Cores: 2, Duration: 3, InFiles: 2, InBytes: 4096, OutFiles: 1, OutBytes: 4096}
		}
		ex := &task.Spec{Name: "ex", Kind: task.Exchange, Cores: 1, Duration: 1}
		hs := make([]task.Handle, 0, len(spe))
		var allocs float64
		e.Go("orchestrator", func(p *sim.Proc) {
			rt, err := NewMultiRuntime(p, pls...)
			if err != nil {
				t.Error(err)
				return
			}
			phase := func() {
				hs = hs[:0]
				for i := range spe {
					hs = append(hs, rt.Submit(&spe[i]))
				}
				for _, res := range rt.AwaitAll(hs) {
					if res.Err != nil {
						t.Errorf("single-point task failed: %v", res.Err)
					}
				}
				if res := rt.Await(rt.Submit(ex)); res.Err != nil {
					t.Errorf("exchange task failed: %v", res.Err)
				}
			}
			phase() // pilots active, spares and buffers warm
			allocs = testing.AllocsPerRun(200, phase)
		})
		e.Run()
		if allocs > 0 {
			t.Errorf("%d pilot(s): %.1f allocations per exchange phase, want 0", pilots, allocs)
		}
	}
}

// Every submission after a delivery runs in the delivered unit: a
// watched unit is spare from the next AwaitNext on, an unwatched one from
// its Await on, and the reused unit names its new task. Awaiting a handle
// twice lists its unit once.
func TestRuntimeReusesDeliveredUnit(t *testing.T) {
	if poison {
		t.Skip("under simcheck no unit is reused")
	}
	e := sim.NewEnv()
	cl := cluster.MustNew(e, quietConfig(), 1)
	pl, _ := Launch(cl, Description{Cores: 4})
	e.Go("orchestrator", func(p *sim.Proc) {
		rt := NewRuntime(pl, p)
		first := rt.SubmitWatched(&task.Spec{Kind: task.MD, ReplicaID: 3, Cycle: 1, Cores: 1, Duration: 5})
		if hs := rt.AwaitNext(math.Inf(1)); len(hs) != 1 || hs[0] != first {
			t.Errorf("first delivery %v", hs)
			return
		}
		next := rt.SubmitWatched(&task.Spec{Kind: task.SinglePoint, ReplicaID: 12, Cores: 1, Duration: 5})
		if next == first {
			t.Error("a submission before the next AwaitNext took the delivered unit")
		}
		rt.AwaitNext(math.Inf(1))
		own := rt.Submit(&task.Spec{Name: "ex", Kind: task.Exchange, Cores: 1, Duration: 1})
		if own != first {
			t.Error("an unwatched submission after the next AwaitNext did not reuse the delivered unit")
		}
		if res := rt.Await(own); res.Spec.Label() != "ex" || res.Err != nil {
			t.Errorf("reused unwatched unit returned %+v", res)
		}
		rt.Await(own) // a second Await of a dead handle lists nothing
		reused := rt.SubmitWatched(&task.Spec{Kind: task.MD, ReplicaID: 4, Cycle: 2, Cores: 1, Duration: 5})
		if reused != first {
			t.Error("the watched submission after Await did not reuse the awaited unit")
		}
		if other := rt.Submit(&task.Spec{Name: "ex", Kind: task.Exchange, Cores: 1, Duration: 1}); other == reused {
			t.Error("a unit awaited twice was handed out twice")
		}
		if got := reused.(*Unit).Name(); got != "unit:md-r004-c02" {
			t.Errorf("reused unit named %q, want unit:md-r004-c02", got)
		}
		if hs := rt.AwaitNext(math.Inf(1)); len(hs) != 1 || hs[0].Result().Spec.Label() != "md-r004-c02" || hs[0].Result().Err != nil {
			t.Errorf("reused unit delivered %v", hs)
		}
	})
	e.Run()
}
