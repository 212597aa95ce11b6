// Package tasktest checks every task.Runtime in the repository against
// the one contract task.Runtime's doc states: each watched completion is
// delivered once, in completion order; AwaitNext honours its deadline;
// AwaitAll keeps submission order; a handle lives until it is
// delivered, then is reused; and tasks are admitted to cores in
// submission order, a task that does not fit blocking those behind it.
//
// Each backend is a harness that runs a check against a fresh runtime, in
// the context the backend demands of its caller: localexec.Runtime from
// the test's goroutine, pilot.Runtime from inside an "emm" process of its
// simulation. The package holds only tests, so it can import every
// backend without an import cycle.
package tasktest

import (
	"cmp"
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/localexec"
	"repro/internal/pilot"
	"repro/internal/sim"
	"repro/internal/task"
)

// contractCores is a backend's core budget unless a check names its
// own: enough for each check's tasks to run at once, so that durations
// alone set completion order.
const contractCores = 4

// A harness runs check against a fresh runtime of one backend with the
// given core budget. It returns only once check has, or fails the test
// if check never can: a runtime that loses a wakeup must fail the suite,
// not hang it.
type harness func(t *testing.T, cores int, check func(rt task.Runtime))

// localHarness runs check on a wall-clock localexec runtime, with a bound
// on how long it may block.
func localHarness(t *testing.T, cores int, check func(rt task.Runtime)) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		check(localexec.New(cores))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("still blocked after 10 s: a completion never woke its waiter")
	}
}

// pilotHarness runs check in the orchestrator process of a simulation
// with one quiet pilot: no queue wait, launch cost, jitter, failures or
// staging, so a unit finishes its Duration after submission.
func pilotHarness(t *testing.T, cores int, check func(rt task.Runtime)) {
	cfg := cluster.Small(1, cores)
	cfg.QueueWait, cfg.LaunchGap, cfg.LaunchLatency, cfg.WavePenalty = 0, 0, 0, 0
	cfg.ExecJitter, cfg.FailureProb, cfg.SpeedFactor = 0, 0, 1
	cfg.FS.MetaLatency, cfg.FS.Bandwidth = 0, 1e15
	e := sim.NewEnv()
	pl, err := pilot.Launch(cluster.MustNew(e, cfg, 1), pilot.Description{Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	finished := false
	e.Go("emm", func(p *sim.Proc) {
		check(pilot.NewRuntime(pl, p))
		finished = true
	})
	e.Run()
	if !finished {
		t.Fatal("still parked when the simulation ran out of events: a completion never woke its waiter")
	}
}

// sleeper is a task that takes d seconds of the runtime's clock.
func sleeper(name string, d float64) *task.Spec {
	return &task.Spec{Name: name, Cores: 1, Duration: d}
}

// started is when a task's execution began on the runtime's clock.
func started(r task.Result) float64 { return r.Finished - r.StageOut - r.Exec }

// reused checks that fresh, submitted after dead's reuse point, reuses
// dead's handle, or, on a runtime that poisons dead handles instead
// (poisons), that reading dead panics.
func reused(t *testing.T, rt task.Runtime, dead, fresh task.Handle) {
	t.Helper()
	if !poisons(rt) {
		if fresh != dead {
			t.Error("a dead handle was not reused")
		}
		return
	}
	if fresh == dead {
		t.Error("a poisoning runtime reused a dead handle")
	}
	if !panics(func() { dead.Result() }) {
		t.Error("reading a dead handle did not panic")
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// names lists the task names of handles' results.
func names(hs []task.Handle) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = h.Result().Spec.Name
	}
	return out
}

// A contractCase runs on a runtime of cores cores, contractCores if zero.
type contractCase struct {
	name  string
	cores int
	check func(t *testing.T, rt task.Runtime)
}

// contract is the suite: every check runs against every backend.
var contract = []contractCase{
	{"AwaitNextDeliversOnceInCompletionOrder", 0, func(t *testing.T, rt task.Runtime) {
		// Submitted slowest first, so completion order reverses it.
		for _, s := range []*task.Spec{sleeper("c", 0.3), sleeper("b", 0.2), sleeper("a", 0.1)} {
			rt.SubmitWatched(s)
		}
		seen := map[task.Handle]bool{}
		var got []string
		for len(got) < 3 {
			hs := rt.AwaitNext(math.Inf(1))
			if len(hs) == 0 {
				t.Error("AwaitNext(+Inf) returned nothing with completions outstanding")
				return
			}
			for _, h := range hs {
				if seen[h] {
					t.Errorf("handle of %q delivered twice", h.Result().Spec.Name)
				}
				seen[h] = true
				if !h.Done() {
					t.Errorf("delivered handle of %q is not done", h.Result().Spec.Name)
				}
			}
			got = append(got, names(hs)...)
		}
		if got[0] != "a" || got[1] != "b" || got[2] != "c" {
			t.Errorf("delivered %v, want [a b c]: completion order", got)
		}
		if extra := rt.AwaitNext(rt.Now() + 0.02); len(extra) != 0 {
			t.Errorf("drained stream delivered %v more", names(extra))
		}
	}},
	{"AwaitNextDeadline", 0, func(t *testing.T, rt task.Runtime) {
		rt.SubmitWatched(sleeper("slow", 0.3))
		deadline := rt.Now() + 0.05
		if done := rt.AwaitNext(deadline); len(done) != 0 {
			t.Errorf("done set %v, want empty at deadline", names(done))
			return
		}
		if now := rt.Now(); now < deadline || now > deadline+0.1 {
			t.Errorf("AwaitNext returned at %.3f s, want its deadline %.3f s", now, deadline)
		}
		if done := rt.AwaitNext(rt.Now()); len(done) != 0 {
			t.Errorf("a deadline already due delivered %v, want nothing", names(done))
		}
		if got := names(rt.AwaitNext(math.Inf(1))); len(got) != 1 || got[0] != "slow" {
			t.Errorf("after the deadline delivered %v, want [slow]", got)
		}
	}},
	{"AwaitAllKeepsOrder", 0, func(t *testing.T, rt task.Runtime) {
		hs := []task.Handle{rt.Submit(sleeper("a", 0.1)), rt.Submit(sleeper("b", 0.01)), rt.Submit(sleeper("c", 0.05))}
		res := rt.AwaitAll(hs)
		if len(res) != 3 || res[0].Spec.Name != "a" || res[1].Spec.Name != "b" || res[2].Spec.Name != "c" {
			t.Errorf("AwaitAll returned %d results, want a, b, c in submission order", len(res))
		}
		for _, r := range res {
			if r.Err != nil {
				t.Errorf("task %q failed: %v", r.Spec.Name, r.Err)
			}
		}
	}},
	{"DeliveredHandleLivesUntilNextAwaitNext", 0, func(t *testing.T, rt task.Runtime) {
		a := rt.SubmitWatched(sleeper("a", 0.01))
		if got := rt.AwaitNext(math.Inf(1)); len(got) != 1 || got[0] != a {
			t.Errorf("delivered %v, want [a]", names(got))
			return
		}
		b := rt.SubmitWatched(sleeper("b", 0.01))
		if b == a {
			t.Error("a delivered handle was reused before the next AwaitNext")
			return
		}
		if name := a.Result().Spec.Name; name != "a" {
			t.Errorf("delivered handle reads task %q before the next AwaitNext, want a", name)
		}
		if got := rt.AwaitNext(math.Inf(1)); len(got) != 1 || got[0] != b {
			t.Errorf("delivered %v, want [b]", names(got))
			return
		}
		c := rt.Submit(sleeper("c", 0.01))
		reused(t, rt, a, c)
		if res := rt.Await(c); res.Spec.Name != "c" {
			t.Errorf("reused handle reads task %q, want c", res.Spec.Name)
		}
	}},
	{"AwaitedHandleIsReused", 0, func(t *testing.T, rt task.Runtime) {
		a := rt.Submit(sleeper("a", 0.01))
		if res := rt.Await(a); res.Spec.Name != "a" || res.Err != nil {
			t.Errorf("Await returned %q, %v; want a, nil", res.Spec.Name, res.Err)
		}
		b := rt.Submit(sleeper("b", 0.01))
		reused(t, rt, a, b)
		if res := rt.Await(b); res.Spec.Name != "b" {
			t.Errorf("reused handle reads task %q, want b", res.Spec.Name)
		}
	}},
	{"AwaitedWatchedHandleWaitsForDelivery", 0, func(t *testing.T, rt task.Runtime) {
		w := rt.SubmitWatched(sleeper("w", 0.01))
		if res := rt.Await(w); res.Spec.Name != "w" {
			t.Errorf("Await returned %q, want w", res.Spec.Name)
		}
		o := rt.Submit(sleeper("o", 0.01))
		if o == w {
			t.Error("Await freed a watched handle before AwaitNext delivered it")
			return
		}
		if got := rt.AwaitNext(math.Inf(1)); len(got) != 1 || got[0] != w || w.Result().Spec.Name != "w" {
			t.Errorf("delivered %v, want [w] with its result", names(got))
		}
		rt.Await(o)
	}},
	{"CoresAdmitInSubmissionOrder", 2, func(t *testing.T, rt task.Runtime) {
		// The long task holds one of two cores; the wide one waits for
		// both, and the narrow one behind it may not take the free core.
		long, wide, narrow := sleeper("long", 0.2), sleeper("wide", 0.05), sleeper("narrow", 0.05)
		wide.Cores = 2
		res := rt.AwaitAll([]task.Handle{rt.Submit(long), rt.Submit(wide), rt.Submit(narrow)})
		if w, n := started(res[1]), started(res[2]); n < w {
			t.Errorf("narrow task started at %.3f s, before the wide task queued ahead of it (%.3f s)", n, w)
		}
		if w, l := started(res[1]), res[0].Finished; w < l {
			t.Errorf("wide task started at %.3f s, before the long task freed its core (%.3f s)", w, l)
		}
	}},
}

func TestRuntimeContract(t *testing.T) {
	for _, b := range []struct {
		name string
		run  harness
	}{{"localexec", localHarness}, {"pilot", pilotHarness}} {
		t.Run(b.name, func(t *testing.T) {
			for _, c := range contract {
				t.Run(c.name, func(t *testing.T) {
					b.run(t, cmp.Or(c.cores, contractCores), func(rt task.Runtime) { c.check(t, rt) })
				})
			}
		})
	}
}
