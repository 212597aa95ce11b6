package pilot

import (
	"fmt"
	"maps"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/sim"
	"repro/internal/task"
)

// roundWakeups submits units md-0 … md-(units-1) at once to a pilot of
// cores cores that is already active, runs them to DONE and returns how
// many units took each number of kernel wakeups.
func roundWakeups(t *testing.T, cores, units int) map[int]int {
	t.Helper()
	e := sim.NewEnv()
	cl := cluster.MustNew(e, cluster.SuperMIC(), 1)
	pl, err := Launch(cl, Description{Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	e.Run() // the pilot is active and idle
	perUnit := map[string]int{}
	e.SetTrace(func(_ float64, name string) {
		if strings.HasPrefix(name, "unit:") {
			perUnit[name]++
		}
	})
	for i := 0; i < units; i++ {
		pl.SubmitUnit(&task.Spec{Name: fmt.Sprintf("md-%d", i), Kind: task.MD, Cores: 1, Duration: 100,
			InFiles: 3, InBytes: 4096, OutFiles: 2, OutBytes: 4096})
	}
	e.Run()
	if _, done, failed := pl.Counters(); done != units || failed != 0 {
		t.Fatalf("done %d failed %d, want %d 0", done, failed, units)
	}
	hist := map[int]int{}
	for _, n := range perUnit {
		hist[n]++
	}
	return hist
}

// A unit takes its first step at submission, inline (sim.Env.Start), so
// it wakes once per metadata operation in (the last one's wakeup is the
// end of the transfer), once at the end of its launch latency, once when
// its execution ends and once per metadata operation out: 3 + 1 + 1 + 2
// = 7 with three files in and two out, however many units contend for
// the metadata server and the launcher. A unit that waits for cores
// (Mode II) wakes once more, at the grant.
func TestUnitWakeupCounts(t *testing.T) {
	cases := []struct {
		name         string
		cores, units int
		want         map[int]int // wakeups -> units
	}{
		{"mode1-barrier", 64, 64, map[int]int{7: 64}},
		{"mode2", 16, 64, map[int]int{7: 16, 8: 48}},
	}
	for _, tc := range cases {
		if got := roundWakeups(t, tc.cores, tc.units); !maps.Equal(got, tc.want) {
			t.Errorf("%s: units by wakeups %v, want %v", tc.name, got, tc.want)
		}
	}
}

// orchestratorRun runs virt_t4096_barrier's shape (1-D T-REMD, Mode I,
// 5 % exec jitter on SuperMIC) at the given size under trigger (the
// barrier when nil), with the machine's failure rate scaled by failures,
// and returns the kernel events, the orchestrator's wakeups, the MD
// completions and the exchange events.
func orchestratorRun(t *testing.T, rungs, cycles int, failures float64, trigger core.Trigger) (events, wakeups, completions, exchanges int) {
	t.Helper()
	machine := cluster.SuperMIC()
	machine.ExecJitter = 0.05
	machine.FailureProb *= failures
	spec := &core.Spec{
		Name:            "t-remd",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, rungs)}},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          cycles,
		Seed:            1,
	}
	if trigger != nil {
		spec.Pattern, spec.Trigger = core.PatternAsynchronous, trigger
	}
	e := sim.NewEnv()
	cl := cluster.MustNew(e, machine, 2)
	pl, err := Launch(cl, Description{Cores: rungs})
	if err != nil {
		t.Fatal(err)
	}
	e.SetTrace(func(_ float64, name string) {
		events++
		if name == "emm" {
			wakeups++
		}
	})
	var rep *core.Report
	e.Go("emm", func(p *sim.Proc) {
		simu, err := core.New(spec, engines.NewAmberVirtual(2881, 3), NewRuntime(pl, p))
		if err != nil {
			t.Error(err)
			return
		}
		if rep, err = simu.Run(); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if rep == nil {
		t.FailNow()
	}
	for _, r := range rep.Records {
		completions += r.MD.Tasks
	}
	if completions != rungs*cycles {
		t.Fatalf("%d MD completions, want %d", completions, rungs*cycles)
	}
	return events, wakeups, completions, rep.ExchangeEvents
}

// On virt_t4096_barrier's shape, at an eighth of its rungs and at full
// size, the kernel wakes at most 6.5 times an MD completion: six for the
// unit (its first step is taken at submission), and the exchange phase
// and the orchestrator's few wakeups a round spread over the round.
func TestBarrierKernelEventsPerCompletion(t *testing.T) {
	for _, size := range []struct{ rungs, cycles int }{{512, 3}, {4096, 12}} {
		events, _, completions, _ := orchestratorRun(t, size.rungs, size.cycles, 1, nil)
		perCompletion := float64(events) / float64(completions)
		if perCompletion > 6.5 {
			t.Fatalf("%d x %d: %.2f kernel events an MD completion, want at most 6.5", size.rungs, size.cycles, perCompletion)
		}
		t.Logf("%d x %d: %.3f kernel events an MD completion (%d over %d)", size.rungs, size.cycles, perCompletion, events, completions)
	}
}

// barrierRunAllocs runs virt_t4096_barrier's shape (as orchestratorRun,
// without the trace hook) at the given size and cores a replica, on a
// pilot that runs every replica at once, and returns the heap objects
// and bytes allocated from sim.NewEnv through the end of Run.
func barrierRunAllocs(t *testing.T, rungs, coresPerReplica, cycles int) (objects, bytes uint64) {
	t.Helper()
	machine := cluster.SuperMIC()
	machine.ExecJitter = 0.05
	for machine.TotalCores() < rungs*coresPerReplica {
		machine.Nodes *= 2
	}
	spec := &core.Spec{
		Name:            "t-remd",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, rungs)}},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: coresPerReplica,
		StepsPerCycle:   6000,
		Cycles:          cycles,
		Seed:            1,
	}
	eng := engines.NewAmberVirtual(2881, 3)
	var runErr error
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e := sim.NewEnv()
	cl := cluster.MustNew(e, machine, 2)
	pl, err := Launch(cl, Description{Cores: rungs * coresPerReplica})
	if err != nil {
		t.Fatal(err)
	}
	e.Go("emm", func(p *sim.Proc) {
		simu, err := core.New(spec, eng, NewRuntime(pl, p))
		if err != nil {
			runErr = err
			return
		}
		_, runErr = simu.Run()
	})
	e.Run()
	runtime.ReadMemStats(&m1)
	if runErr != nil {
		t.Fatal(runErr)
	}
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// A 4 096-rung barrier run of 12 cycles on the pilot runtime, from
// sim.NewEnv through Run, allocates at most 96 heap objects and 4.70 MB:
// the kernel's queues, the first unit chunk and the dispatcher's
// scratch are sized once, from the replica count and the units the
// pilot runs at once, instead of doubling there, and the run's twelve
// slot-history rows are two chunks, eight rows and the four left; the
// orchestrator is the one coroutine, and the delay queues' first arrays
// are one block. It reads 86-87 objects (84 at 512 rungs). Before the
// queues were sized it read 299-305 objects and 7.67 MB, 134-136 objects
// while every row was allocated on its own, and 116-118 while the
// pilot's bootstrap was a coroutine and each delay queue's first array
// an allocation of its own (the runtime's own allocations move
// the object count by a few from run to run, so the least of three runs
// is checked). A replica's cores do not size anything: a 512-rung
// run at 64 cores a replica allocates what it does at one core, 0.65 MB;
// sized a unit a core, it read 17.3 MB.
func TestBarrierRunAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates beside the run")
	}
	if poison {
		t.Skip("under simcheck every submission takes a fresh unit")
	}
	barrierRunAllocs(t, 64, 1, 1) // what a process allocates once, outside the count
	for _, c := range []struct {
		rungs, coresPerReplica int
		maxObjects, maxBytes   uint64
	}{
		{4096, 1, 96, 4_700_000},
		{512, 64, 96, 660_000},
	} {
		objects, bytes := barrierRunAllocs(t, c.rungs, c.coresPerReplica, 12)
		for range 2 {
			o, b := barrierRunAllocs(t, c.rungs, c.coresPerReplica, 12)
			objects, bytes = min(objects, o), min(bytes, b)
		}
		if objects > c.maxObjects || bytes > c.maxBytes {
			t.Errorf("a %d x 12 barrier run at %d cores a replica allocates %d objects and %d bytes, want at most %d and %d",
				c.rungs, c.coresPerReplica, objects, bytes, c.maxObjects, c.maxBytes)
		}
		t.Logf("a %d x 12 barrier run at %d cores a replica allocates %d objects and %d bytes (%d a replica)",
			c.rungs, c.coresPerReplica, objects, bytes, bytes/uint64(c.rungs))
	}
}

// Without failures the orchestrator wakes a fixed number of times a
// barrier round, whatever the replica count: the round's last completion
// (pilot.Runtime.AwaitBatch), its preparation overheads and the exchange
// task, not once per MD completion.
func TestBarrierOrchestratorWakeupsPerRound(t *testing.T) {
	const cycles = 3
	perRound := map[int]float64{}
	for _, rungs := range []int{512, 4096} {
		_, wakeups, _, _ := orchestratorRun(t, rungs, cycles, 0, nil)
		perRound[rungs] = float64(wakeups) / cycles
	}
	if perRound[512] != perRound[4096] || perRound[512] > 6 {
		t.Fatalf("orchestrator wakeups a round: %v, want the same at both sizes, at most 6", perRound)
	}
	t.Logf("orchestrator wakeups a round: %v", perRound)
}

// TestAsyncOrchestratorWakeups bounds the orchestrator's wakeups under
// the asynchronous triggers on BenchmarkDispatcher's shape (two cycles,
// a 100 s window, no failures) at 512 and 4 096 rungs. A wait sleeps
// until as many completions are pending as could change the trigger's
// decision (core.BatchedTrigger), so a window wakes a few times an
// exchange event, not once an MD completion. The bounds are this
// dispatcher's counts; the one that woke at every completion read, as
// wakeups over events: window 1034/2 and 6105/5, window with MinReady 8
// 131/39 and 141/49, count(8) 130/39 and 140/49, adaptive 1033/2 and
// 7264/3, feedback 1033/2 and 4892/8.
func TestAsyncOrchestratorWakeups(t *testing.T) {
	cases := []struct {
		name string
		mk   func() core.Trigger
		// wakeups and events at 512 and at 4096 rungs.
		want [2][2]int
	}{
		{"window", func() core.Trigger { return core.NewWindowTrigger(100, 0) }, [2][2]int{{12, 2}, {19, 5}}},
		{"window-minready8", func() core.Trigger { return core.NewWindowTrigger(100, 8) }, [2][2]int{{101, 39}, {115, 49}}},
		{"count8", func() core.Trigger { return core.NewCountTrigger(8) }, [2][2]int{{101, 39}, {115, 49}}},
		{"adaptive", func() core.Trigger { return core.NewAdaptiveTrigger(100) }, [2][2]int{{11, 2}, {14, 3}}},
		{"feedback", func() core.Trigger { return core.NewFeedbackTrigger(100) }, [2][2]int{{11, 2}, {28, 8}}},
	}
	for _, tc := range cases {
		for i, rungs := range []int{512, 4096} {
			_, wakeups, _, exchanges := orchestratorRun(t, rungs, 2, 0, tc.mk())
			want := tc.want[i]
			if exchanges != want[1] {
				t.Fatalf("%d/%s: %d exchange events, want %d", rungs, tc.name, exchanges, want[1])
			}
			if wakeups > want[0] {
				t.Errorf("%d/%s: %d orchestrator wakeups for %d exchange events, want at most %d",
					rungs, tc.name, wakeups, exchanges, want[0])
			}
			t.Logf("%d/%s: %.2f orchestrator wakeups an exchange event (%d over %d)",
				rungs, tc.name, float64(wakeups)/float64(exchanges), wakeups, exchanges)
		}
	}
}
