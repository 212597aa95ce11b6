package pilot

import (
	"errors"
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

const runtimeGolden = "testdata/runtime.golden"

// runtimeRecord is everything a runtime scenario observes through the
// runtime's public surface, in the order it observed it.
type runtimeRecord struct {
	results []task.Result
	events  []task.ResourceEvent
	// pilots are the slot-0 occupants in order of first sighting; their
	// counters are hashed once the environment is quiescent.
	pilots []*Pilot
}

func (rec *runtimeRecord) sawPilot(rt *Runtime) {
	if pl := rt.Pilot(); len(rec.pilots) == 0 || rec.pilots[len(rec.pilots)-1] != pl {
		rec.pilots = append(rec.pilots, pl)
	}
}

func (rec *runtimeRecord) submitWatched(rt *Runtime, s *task.Spec) {
	rt.SubmitWatched(s)
	rec.sawPilot(rt)
}

// runSegments is a small asynchronous workload on the completion stream:
// every replica runs segments units back to back, a unit lost with its
// resource is resubmitted, and resource events are drained on every
// wakeup, as the dispatcher does.
func (rec *runtimeRecord) runSegments(rt *Runtime, replicas, segments int, spec func(replica, segment int) *task.Spec) {
	left := make([]int, replicas)
	pending := 0
	for i := range left {
		left[i] = segments
		rec.submitWatched(rt, spec(i, 0))
		pending++
	}
	for pending > 0 {
		for _, h := range rt.AwaitNext(math.Inf(1)) {
			res := h.Result()
			rec.results = append(rec.results, res)
			pending--
			id := res.Spec.ReplicaID
			switch {
			case errors.Is(res.Err, task.ErrResourceLost):
				rec.submitWatched(rt, res.Spec)
				pending++
			case left[id] > 1:
				left[id]--
				rec.submitWatched(rt, spec(id, segments-left[id]))
				pending++
			}
		}
		rec.events = append(rec.events, rt.DrainResourceEvents()...)
	}
}

// runtimeScenario is one single-pilot failover run: body is the
// orchestrator process.
type runtimeScenario struct {
	name string
	seed int64
	desc Description
	body func(p *sim.Proc, rt *Runtime, rec *runtimeRecord)
}

func runtimeScenarios() []runtimeScenario {
	return []runtimeScenario{
		{"walltime_relaunch", 21, Description{Cores: 4, Walltime: 41.7}, func(p *sim.Proc, rt *Runtime, rec *runtimeRecord) {
			// Twelve replicas of two ~23 s segments on four cores: every
			// 41.7 s incarnation finishes one wave and loses the next.
			rec.runSegments(rt, 12, 2, func(i, seg int) *task.Spec {
				return mdSpec(i, 1, 22+float64(i)*0.21+float64(seg)*0.4)
			})
		}},
		{"preempt_overlap", 22, Description{Cores: 6, Walltime: 500}, func(p *sim.Proc, rt *Runtime, rec *runtimeRecord) {
			// The 17.5 s notice outlasts the 7.3 s queue wait: the next
			// submission launches the replacement, which activates while
			// the preempted pilot still drains.
			p.Env().Go("spot", func(fp *sim.Proc) {
				fp.Sleep(30.2)
				rt.Pilot().Preempt(17.5)
			})
			rec.runSegments(rt, 9, 4, func(i, seg int) *task.Spec {
				return mdSpec(i, 1, 6+float64((i+seg)%6)*2.3)
			})
		}},
		{"node_loss_shrink", 23, Description{Cores: 8}, func(p *sim.Proc, rt *Runtime, rec *runtimeRecord) {
			// A node loss, a graceful shrink, then the loss of every
			// remaining core (the pilot dies, failover replaces it) and a
			// grow on the replacement.
			p.Env().Go("fault", func(fp *sim.Proc) {
				fp.Sleep(31.9)
				rt.Pilot().LoseCores(3)
				fp.Sleep(20.3)
				rt.Pilot().Resize(-2)
				fp.Sleep(25.6)
				rt.Pilot().LoseCores(8)
				fp.Sleep(40.1)
				rt.Pilot().Resize(+2)
			})
			rec.runSegments(rt, 10, 5, func(i, seg int) *task.Spec {
				return mdSpec(i, 1+i%2, 9+float64(i)*0.53+float64(seg)*1.7)
			})
		}},
		{"submit_while_queued", 24, Description{Cores: 4, Walltime: 30}, func(p *sim.Proc, rt *Runtime, rec *runtimeRecord) {
			// The direct waiting style. Four units outlive the walltime;
			// the resubmissions launch the replacement and more work
			// arrives while it still sits in the batch queue.
			submit := func(i int, dur float64) task.Handle {
				h := rt.Submit(mdSpec(i, 1, dur))
				rec.sawPilot(rt)
				return h
			}
			var hs []task.Handle
			for i := 0; i < 4; i++ {
				hs = append(hs, submit(i, 40+float64(i)*0.3))
			}
			rec.results = append(rec.results, rt.AwaitAll(hs)...)
			rec.events = append(rec.events, rt.DrainResourceEvents()...)
			hs = hs[:0]
			hs = append(hs, submit(0, 11.1), submit(1, 12.2))
			rt.SleepUntil(rt.Now() + 3.3) // replacement still queued
			hs = append(hs, submit(2, 9.9), submit(3, 10.4))
			rec.submitWatched(rt, mdSpec(4, 2, 8.8))
			rt.Overhead(1.5)
			rec.results = append(rec.results, rt.AwaitAll(hs)...)
			for _, h := range rt.AwaitNext(math.Inf(1)) {
				rec.results = append(rec.results, h.Result())
			}
			rec.results = append(rec.results, rt.Await(submit(5, 25))) // lost to the second expiry
			rec.results = append(rec.results, rt.Await(submit(5, 7.7)))
			rec.events = append(rec.events, rt.DrainResourceEvents()...)
		}},
	}
}

// runtimeFingerprint runs one scenario to quiescence and hashes every
// number the runtime handed out: each result's floats and error, the
// relaunch count, every incarnation's counters and the drained resource
// events — all but the Pilot label, whose meaning is not pinned here.
func runtimeFingerprint(t *testing.T, sc runtimeScenario) string {
	e := sim.NewEnv()
	cl := cluster.MustNew(e, noisyConfig(), sc.seed)
	var rt *Runtime
	rec := &runtimeRecord{}
	e.Go("orchestrator", func(p *sim.Proc) {
		var err error
		if rt, err = NewFailoverRuntime(cl, sc.desc, p); err != nil {
			t.Error(err)
			return
		}
		sc.body(p, rt, rec)
	})
	e.Run()
	if rt == nil {
		return sc.name + " failed to start"
	}
	// The last pilot's own end (walltime) lands after the orchestrator left.
	rec.events = append(rec.events, rt.DrainResourceEvents()...)

	h := fnv.New64a()
	f := func(x float64) { fmt.Fprintf(h, "%016x,", math.Float64bits(x)) }
	failed := 0
	for _, r := range rec.results {
		f(r.Submitted)
		f(r.Finished)
		f(r.StageIn)
		f(r.CoreWait)
		f(r.Launch)
		f(r.Exec)
		f(r.StageOut)
		fmt.Fprintf(h, "%s;%v\n", r.Spec.Name, r.Err)
		if r.Err != nil {
			failed++
		}
	}
	fmt.Fprintf(h, "relaunched=%d\n", rt.Relaunched())
	for _, pl := range rec.pilots {
		sub, done, fail := pl.Counters()
		fmt.Fprintf(h, "%d,%d,%d,%d\n", sub, done, fail, pl.UnitsExpired())
	}
	for _, ev := range rec.events {
		f(ev.At)
		f(ev.Notice)
		fmt.Fprintf(h, "%s,%d,%d\n", ev.Kind, ev.Cores, ev.Delta)
	}
	f(rt.OverheadTotal)
	f(e.Now())
	return fmt.Sprintf("%s %016x results=%d failed=%d relaunched=%d pilots=%d events=%d end=%.6f",
		sc.name, h.Sum64(), len(rec.results), failed, rt.Relaunched(), len(rec.pilots), len(rec.events), e.Now())
}

// TestRuntimeGolden pins the runtime bit for bit on one failover pilot:
// walltime expiry with repeated relaunches, a preemption whose
// replacement overlaps the drain, node loss with shrink and regrowth,
// and submission while the replacement is still queued. The golden file
// was generated by the single-pilot Runtime that preceded the slot
// runtime, so a match means one routing slot behaves exactly as that
// runtime did. Regenerate only on purpose (-update).
func TestRuntimeGolden(t *testing.T) {
	var got []string
	for _, sc := range runtimeScenarios() {
		got = append(got, runtimeFingerprint(t, sc))
	}
	if *updateLifecycle {
		if err := os.WriteFile(runtimeGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(runtimeGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d scenarios, test has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("runtime diverged:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
