package pilot

import (
	"flag"
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

var updateLifecycle = flag.Bool("update", false, "rewrite testdata/lifecycle.golden from the current unit lifecycle")

const lifecycleGolden = "testdata/lifecycle.golden"

// noisyConfig is a machine on which every lifecycle phase has a
// non-trivial, non-round duration, so the hashed float bits depend on the
// exact order of additions and of RNG draws.
func noisyConfig() cluster.Config {
	cfg := cluster.Small(2, 8) // 16 cores
	cfg.QueueWait = 7.3
	return cfg
}

// lifecycleScenario builds a workload on a fresh environment; it returns
// the pilot, its machine and an accessor for the units whose results are
// hashed, in submission order (driver processes submit more while the
// environment runs).
type lifecycleScenario struct {
	name string
	run  func(e *sim.Env) (*Pilot, *cluster.Cluster, func() []*Unit)
}

func mdSpec(i, cores int, dur float64) *task.Spec {
	return &task.Spec{
		Name: fmt.Sprintf("md-%d", i), Kind: task.MD, ReplicaID: i, Cores: cores,
		Duration: dur, InFiles: 3, InBytes: 40 << 10, OutFiles: 2, OutBytes: 900 << 10,
		CanFail: true,
	}
}

func lifecycleScenarios() []lifecycleScenario {
	return []lifecycleScenario{
		{"mode1", func(e *sim.Env) (*Pilot, *cluster.Cluster, func() []*Unit) {
			cl := cluster.MustNew(e, noisyConfig(), 11)
			pl, _ := Launch(cl, Description{Cores: 16})
			var us []*Unit
			for i := 0; i < 16; i++ {
				us = append(us, pl.SubmitUnit(mdSpec(i, 1, 30+float64(i)*0.37)))
			}
			return pl, cl, func() []*Unit { return us }
		}},
		{"mode2_wave", func(e *sim.Env) (*Pilot, *cluster.Cluster, func() []*Unit) {
			cl := cluster.MustNew(e, noisyConfig(), 12)
			pl, _ := Launch(cl, Description{Cores: 8})
			var us []*Unit
			for i := 0; i < 40; i++ {
				s := mdSpec(i, 1+i%3, 20+float64(i%7)*1.13)
				if i%5 == 4 {
					// Bookkeeping tasks queue for cores too but never pay
					// the wave penalty.
					s.Kind = task.Exchange
					s.CanFail = false
					s.InFiles, s.OutFiles = 1, 0
					s.OutBytes = 0
				}
				us = append(us, pl.SubmitUnit(s))
			}
			return pl, cl, func() []*Unit { return us }
		}},
		{"failures", func(e *sim.Env) (*Pilot, *cluster.Cluster, func() []*Unit) {
			cfg := noisyConfig()
			cfg.FailureProb = 0.3
			cl := cluster.MustNew(e, cfg, 13)
			pl, _ := Launch(cl, Description{Cores: 6})
			var us []*Unit
			for i := 0; i < 30; i++ {
				s := mdSpec(i, 1, 15+float64(i%4)*2.9)
				s.CanFail = i%6 != 0
				us = append(us, pl.SubmitUnit(s))
			}
			return pl, cl, func() []*Unit { return us }
		}},
		{"walltime", func(e *sim.Env) (*Pilot, *cluster.Cluster, func() []*Unit) {
			// Expiry lands while the second wave executes and the third is
			// still queued for cores.
			cl := cluster.MustNew(e, noisyConfig(), 14)
			pl, _ := Launch(cl, Description{Cores: 4, Walltime: 41.7})
			var us []*Unit
			for i := 0; i < 12; i++ {
				us = append(us, pl.SubmitUnit(mdSpec(i, 1, 22+float64(i)*0.21)))
			}
			e.Go("late", func(p *sim.Proc) {
				p.Sleep(80) // after expiry: fails fast
				us = append(us, pl.SubmitUnit(mdSpec(99, 1, 5)))
			})
			return pl, cl, func() []*Unit { return us }
		}},
		{"lose_cores", func(e *sim.Env) (*Pilot, *cluster.Cluster, func() []*Unit) {
			cl := cluster.MustNew(e, noisyConfig(), 15)
			pl, _ := Launch(cl, Description{Cores: 8})
			var us []*Unit
			for i := 0; i < 14; i++ {
				us = append(us, pl.SubmitUnit(mdSpec(i, 1+i%2, 40+float64(i)*0.53)))
			}
			e.Go("fault", func(p *sim.Proc) {
				p.Sleep(31.9)
				pl.LoseCores(3)
				p.Sleep(44.4)
				pl.LoseCores(2)
			})
			return pl, cl, func() []*Unit { return us }
		}},
		{"preempt_notice", func(e *sim.Env) (*Pilot, *cluster.Cluster, func() []*Unit) {
			cl := cluster.MustNew(e, noisyConfig(), 16)
			pl, _ := Launch(cl, Description{Cores: 6, Walltime: 500})
			var us []*Unit
			for i := 0; i < 18; i++ {
				us = append(us, pl.SubmitUnit(mdSpec(i, 1, 12+float64(i%6)*4.7)))
			}
			e.Go("spot", func(p *sim.Proc) {
				p.Sleep(30.2)
				pl.Preempt(17.5)
				p.Sleep(3)
				// Refused: the pilot is draining.
				us = append(us, pl.SubmitUnit(mdSpec(98, 1, 1)))
			})
			return pl, cl, func() []*Unit { return us }
		}},
		{"shrink_aborts_wide", func(e *sim.Env) (*Pilot, *cluster.Cluster, func() []*Unit) {
			cl := cluster.MustNew(e, noisyConfig(), 17)
			pl, _ := Launch(cl, Description{Cores: 8})
			var us []*Unit
			for i := 0; i < 6; i++ {
				us = append(us, pl.SubmitUnit(mdSpec(i, 2, 35+float64(i)*1.9)))
			}
			us = append(us, pl.SubmitUnit(mdSpec(6, 7, 10))) // queued, wide
			us = append(us, pl.SubmitUnit(mdSpec(7, 1, 10))) // queued behind it
			e.Go("resize", func(p *sim.Proc) {
				p.Sleep(25.1)
				pl.Resize(-3) // 8 -> 5: the 7-core unit can never run
				p.Sleep(30)
				pl.Resize(+2)
				// Wider than the pilot is now: fails in the lifecycle.
				us = append(us, pl.SubmitUnit(mdSpec(8, 8, 4)))
				us = append(us, pl.SubmitUnit(mdSpec(9, 3, 4)))
			})
			return pl, cl, func() []*Unit { return us }
		}},
		{"submit_before_active", func(e *sim.Env) (*Pilot, *cluster.Cluster, func() []*Unit) {
			// Half the units wait out the batch queue, the other half
			// arrive in a trickle around and after activation.
			cl := cluster.MustNew(e, noisyConfig(), 18)
			pl, _ := Launch(cl, Description{Cores: 5})
			var us []*Unit
			for i := 0; i < 8; i++ {
				us = append(us, pl.SubmitUnit(mdSpec(i, 1, 9+float64(i)*0.77)))
			}
			e.Go("trickle", func(p *sim.Proc) {
				for i := 8; i < 16; i++ {
					p.Sleep(1.9)
					us = append(us, pl.SubmitUnit(mdSpec(i, 1+i%2, 6+float64(i)*0.31)))
				}
			})
			return pl, cl, func() []*Unit { return us }
		}},
	}
}

// lifecycleFingerprint runs one scenario to quiescence and hashes every
// observable number the unit lifecycle produces.
func lifecycleFingerprint(sc lifecycleScenario) string {
	e := sim.NewEnv()
	pl, cl, units := sc.run(e)
	e.Run()

	h := fnv.New64a()
	f := func(x float64) { fmt.Fprintf(h, "%016x,", math.Float64bits(x)) }
	n := func(x int) { fmt.Fprintf(h, "%d,", x) }
	for _, u := range units() {
		r := u.Result()
		f(r.Submitted)
		f(r.StageIn)
		f(r.CoreWait)
		f(r.Launch)
		f(r.Exec)
		f(r.StageOut)
		f(r.Finished)
		fmt.Fprintf(h, "%v;%v\n", r.Err, u.State())
	}
	sub, done, failed := pl.Counters()
	n(sub)
	n(done)
	n(failed)
	n(pl.UnitsExpired())
	f(pl.BusyCoreSeconds())
	files, bytes, launched, tfailed := cl.Stats()
	n(files)
	n(int(bytes))
	n(launched)
	n(tfailed)
	f(e.Now())
	return fmt.Sprintf("%s %016x units=%d done=%d failed=%d expired=%d end=%.6f",
		sc.name, h.Sum64(), sub, done, failed, pl.UnitsExpired(), e.Now())
}

// TestLifecycleGolden pins the unit lifecycle bit for bit: every float of
// every task.Result and the pilot/cluster counters, for one scenario per
// lifecycle branch. The golden file was generated from the goroutine-per-
// unit runUnit that preceded the stepped state machine, so a match means
// the port changed no event order, no RNG draw and no float summation.
func TestLifecycleGolden(t *testing.T) {
	var got []string
	for _, sc := range lifecycleScenarios() {
		got = append(got, lifecycleFingerprint(sc))
	}
	if *updateLifecycle {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lifecycleGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(lifecycleGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d scenarios, test has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("lifecycle diverged:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
