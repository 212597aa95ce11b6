package pilot

import (
	"fmt"
	"maps"
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

// A unit wakes once at submission, once per metadata operation in (the
// last one's wakeup is the end of the transfer), once at the end of its
// launch latency, once when its execution ends and once per metadata
// operation out: 1 + 3 + 1 + 1 + 2 = 8 with three files in and two out,
// however many units contend for the metadata server and the launcher.
// A unit that waits for cores (Mode II) wakes once more, at the grant.
func TestUnitWakeupCounts(t *testing.T) {
	cases := []struct {
		name         string
		cores, units int
		want         map[int]int // wakeups -> units
	}{
		{"mode1-barrier", 64, 64, map[int]int{8: 64}},
		{"mode2", 16, 64, map[int]int{8: 16, 9: 48}},
	}
	for _, tc := range cases {
		if got := roundWakeups(t, tc.cores, tc.units); !maps.Equal(got, tc.want) {
			t.Errorf("%s: units by wakeups %v, want %v", tc.name, got, tc.want)
		}
	}
}

// On virt_t4096_barrier's shape (1-D T-REMD, barrier, Mode I, 5 % exec
// jitter on SuperMIC), at an eighth of its rungs, the kernel wakes at most
// 8.5 times an MD completion: seven for the unit, about one for the
// orchestrator, and the exchange phase spread over the round.
func TestBarrierKernelEventsPerCompletion(t *testing.T) {
	const rungs, cycles = 512, 3
	machine := cluster.SuperMIC()
	machine.ExecJitter = 0.05
	spec := &core.Spec{
		Name:            "t-remd",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, rungs)}},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          cycles,
		Seed:            1,
	}
	e := sim.NewEnv()
	cl := cluster.MustNew(e, machine, 2)
	pl, err := Launch(cl, Description{Cores: rungs})
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	e.SetTrace(func(float64, string) { events++ })
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
	completions := 0
	for _, r := range rep.Records {
		completions += r.MD.Tasks
	}
	if completions != rungs*cycles {
		t.Fatalf("%d MD completions, want %d", completions, rungs*cycles)
	}
	perCompletion := float64(events) / float64(completions)
	if perCompletion > 8.5 {
		t.Fatalf("%.2f kernel events an MD completion, want at most 8.5", perCompletion)
	}
	t.Logf("%.3f kernel events an MD completion (%d over %d)", perCompletion, events, completions)
}
