package pilot

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/task"
)

const recycleGolden = "testdata/recycle.golden"

// recycleScenario is one failover runtime whose watched units die in
// every way a unit can leave something behind in the kernel: killed
// mid-execution with its timer still queued (node loss, the end of a
// preemption notice, walltime expiry) or finished by that timer with its
// waiter still enrolled in its interrupt latch (every unit that ran to
// the end, fault-injected ones included). A fresh wave then goes through
// the same runtime, so its units are the dead ones' successors.
type recycleScenario struct {
	name  string
	seed  int64
	cfg   cluster.Config
	desc  Description
	fault func(fp *sim.Proc, rt *Runtime) // nil: no driver process
}

func recycleScenarios() []recycleScenario {
	faulty := noisyConfig()
	faulty.FailureProb = 0.3
	return []recycleScenario{
		{"lose_cores", 31, noisyConfig(), Description{Cores: 8}, func(fp *sim.Proc, rt *Runtime) {
			fp.Sleep(31.9)
			rt.Pilot().LoseCores(3)
			fp.Sleep(27.4)
			rt.Pilot().LoseCores(2)
		}},
		{"preempt_notice", 32, noisyConfig(), Description{Cores: 6, Walltime: 500}, func(fp *sim.Proc, rt *Runtime) {
			fp.Sleep(30.2)
			rt.Pilot().Preempt(17.5)
		}},
		{"walltime", 33, noisyConfig(), Description{Cores: 4, Walltime: 41.7}, nil},
		{"faults", 34, faulty, Description{Cores: 6}, nil},
	}
}

// recycleFingerprint runs one scenario to quiescence and hashes every
// delivered result's times, error and name in delivery order.
func recycleFingerprint(t *testing.T, sc recycleScenario) string {
	e := sim.NewEnv()
	cl := cluster.MustNew(e, sc.cfg, sc.seed)
	rec := &runtimeRecord{}
	var waves [2]int
	e.Go("orchestrator", func(p *sim.Proc) {
		rt, err := NewFailoverRuntime(cl, sc.desc, p)
		if err != nil {
			t.Error(err)
			return
		}
		if sc.fault != nil {
			p.Env().Go("fault", func(fp *sim.Proc) { sc.fault(fp, rt) })
		}
		rec.runSegments(rt, 12, 3, func(i, seg int) *task.Spec {
			return mdSpec(i, 1+i%2, 17+float64(i)*0.61+float64(seg)*1.3)
		})
		waves[0] = len(rec.results)
		rec.runSegments(rt, 10, 2, func(i, seg int) *task.Spec {
			s := mdSpec(i, 1, 5+float64(i)*0.43+float64(seg)*0.9)
			s.Name = fmt.Sprintf("fresh-%d", i)
			return s
		})
		waves[1] = len(rec.results) - waves[0]
	})
	e.Run()

	h := fnv.New64a()
	f := func(x float64) { fmt.Fprintf(h, "%016x,", math.Float64bits(x)) }
	failed := 0
	for _, r := range rec.results {
		f(r.Submitted)
		f(r.StageIn)
		f(r.CoreWait)
		f(r.Launch)
		f(r.Exec)
		f(r.StageOut)
		f(r.Finished)
		fmt.Fprintf(h, "%s;%v\n", r.Spec.Name, r.Err)
		if r.Err != nil {
			failed++
		}
	}
	f(e.Now())
	return fmt.Sprintf("%s %016x wave1=%d wave2=%d failed=%d end=%.6f",
		sc.name, h.Sum64(), waves[0], waves[1], failed, e.Now())
}

// TestRecycleGolden pins the completion stream across unit deaths and
// the wave after them. The golden was generated before the runtime
// reused delivered units, so a match means a reused unit carries
// nothing of its predecessor — no stale timer fires it, no stale waiter
// wakes it. Never regenerate it.
func TestRecycleGolden(t *testing.T) {
	var got []string
	for _, sc := range recycleScenarios() {
		got = append(got, recycleFingerprint(t, sc))
	}
	if *updateLifecycle {
		if err := os.WriteFile(recycleGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(recycleGolden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d scenarios, test has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("recycled units diverged:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
