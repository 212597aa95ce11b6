package sim_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pilot"
	"repro/internal/sim"
	"repro/internal/task"
)

// Env.Delay hands out one queue per length; past the cap it hands out
// Delays that still sleep the right length but that next does not scan.
func TestDelayIsOnePerLengthUpToTheCap(t *testing.T) {
	e := sim.NewEnv()
	if e.Delay(0.5) != e.Delay(0.5) || e.Delay(-3) != e.Delay(0) {
		t.Fatal("Delay returned different queues for one length")
	}
	for i := 0; e.Delays() < sim.MaxDelays; i++ {
		e.Delay(1 + float64(i))
	}
	first := e.Delay(0.5)
	over := e.Delay(0.75)
	if e.Delays() != sim.MaxDelays || e.Delay(0.5) != first {
		t.Fatalf("%d queues after one past the cap of %d, or an early one moved", e.Delays(), sim.MaxDelays)
	}
	var at []float64
	e.Go("sleeper", func(p *sim.Proc) {
		for _, q := range []*sim.Delay{over, first, over} {
			q.Wake(p)
			p.Park()
			at = append(at, p.Now())
		}
	})
	e.Run()
	if !slices.Equal(at, []float64{0.75, 1.25, 2}) {
		t.Fatalf("woke at %v, want [0.75 1.25 2]", at)
	}
}

// Two FIFO servers with fixed service times book their turns on one
// Delay: each server's turns end in order, but the two interleave out of
// order. WakeAt keeps the in-order bookings on the queue, sends the rest
// through the heap, and wakes everyone in the (t, schedule order) that
// WakeIn gives for the same times, ties across the two containers
// included.
func TestDelayWakeAtKeepsHeapOrderAcrossServers(t *testing.T) {
	type wake struct {
		t    float64
		name string
	}
	run := func(book func(q *sim.Delay, p *sim.Proc, t float64)) ([]wake, int) {
		e := sim.NewEnv()
		q := e.Delay(0.5)
		free := [2]float64{0, 0.5}
		service := [2]float64{1, 0.25}
		var got []wake
		for i := 0; i < 8; i++ {
			s, name := i%2, fmt.Sprintf("p%d", i)
			e.Go(name, func(p *sim.Proc) {
				end := max(p.Now(), free[s]) + service[s]
				free[s] = end
				book(q, p, end+q.Len())
				p.Park()
				got = append(got, wake{p.Now(), name})
			})
		}
		e.RunUntil(0)
		heap := e.HeapLen()
		e.Run()
		return got, heap
	}
	got, heap := run(func(q *sim.Delay, p *sim.Proc, t float64) { q.WakeAt(p, t) })
	want, _ := run(func(_ *sim.Delay, p *sim.Proc, t float64) { p.WakeIn(t - p.Now()) })
	if !slices.Equal(got, want) {
		t.Fatalf("WakeAt woke %v, WakeIn %v", got, want)
	}
	// Server 0's turns end at 1.5, 2.5, 3.5, 4.5 and go first each time;
	// server 1's (1.25, 1.5, 1.75, 2) each sort before the queue's tail.
	if heap != 4 {
		t.Fatalf("%d bookings in the heap, want server 1's 4", heap)
	}
}

// Every pilot a failover runtime launches on a machine sleeps on the
// queues the first one registered: generations do not grow what next
// scans.
func TestFailoverGenerationsShareDelayQueues(t *testing.T) {
	const generations = 24
	e := sim.NewEnv()
	cl := cluster.MustNew(e, cluster.Small(2, 8), 1)
	short := &task.Spec{Name: "short", Kind: task.MD, Cores: 1, Duration: 5,
		InFiles: 2, InBytes: 4096, OutFiles: 1, OutBytes: 1024}
	long := *short
	long.Name, long.Duration = "long", 1000
	var rt *pilot.Runtime
	var queues []int
	e.Go("orchestrator", func(p *sim.Proc) {
		var err error
		if rt, err = pilot.NewFailoverRuntime(cl, pilot.Description{Cores: 1, Walltime: 30}, p); err != nil {
			t.Error(err)
			return
		}
		for g := 0; g < generations; g++ {
			// The second unit waits for the one core, so it launches with
			// the wave penalty, and outlives the walltime: the submission
			// after it relaunches the pilot.
			a, b := rt.Submit(short), rt.Submit(&long)
			if res := rt.Await(a); res.Err != nil {
				t.Errorf("generation %d: short unit failed: %v", g, res.Err)
			}
			if res := rt.Await(b); !errors.Is(res.Err, task.ErrResourceLost) || res.CoreWait == 0 {
				t.Errorf("generation %d: long unit waited %v for cores and ended %v, want a wait and resource loss", g, res.CoreWait, res.Err)
			}
			queues = append(queues, e.Delays())
		}
	})
	e.Run()
	if rt.Relaunched() < generations-1 {
		t.Fatalf("%d relaunches, want %d", rt.Relaunched(), generations-1)
	}
	if queues[0] == 0 || queues[0] >= sim.MaxDelays {
		t.Fatalf("%d delay queues after the first pilot, want some and fewer than the cap", queues[0])
	}
	if slices.Max(queues) != queues[0] {
		t.Fatalf("delay queues per generation %v: grew after the first pilot", queues)
	}
}

// Staging 1 000 distinct byte volumes registers no queue past the cap,
// and every operation — through a queue or, past the cap, the heap —
// takes exactly the time the same sleeps through Proc.Sleep take.
func TestStageFilesDistinctVolumesHoldTheCap(t *testing.T) {
	const stagers, each = 4, 250
	cfg := cluster.SuperMIC()
	volume := func(s, i int) int64 { return int64(1+s+stagers*i) * 100_003 }

	e := sim.NewEnv()
	cl := cluster.MustNew(e, cfg, 1)
	got := make([][]float64, stagers)
	for s := range got {
		e.Go("stager", func(p *sim.Proc) {
			for i := 0; i < each; i++ {
				got[s] = append(got[s], cl.StageFiles(p, 1+i%3, volume(s, i)))
			}
		})
	}
	e.Run()
	if e.Delays() != sim.MaxDelays {
		t.Fatalf("%d delay queues after %d distinct volumes, want the cap %d", e.Delays(), stagers*each, sim.MaxDelays)
	}

	ref := sim.NewEnv()
	mds := sim.NewResource(ref, 1)
	want := make([][]float64, stagers)
	for s := range want {
		ref.Go("stager", func(p *sim.Proc) {
			for i := 0; i < each; i++ {
				start := p.Now()
				for n := 1 + i%3; n > 0; n-- {
					mds.Acquire(p, 1)
					p.Sleep(cfg.FS.MetaLatency)
					mds.Release(1)
				}
				p.Sleep(float64(volume(s, i)) / cfg.FS.Bandwidth)
				want[s] = append(want[s], p.Now()-start)
			}
		})
	}
	ref.Run()
	for s := range want {
		if !slices.Equal(got[s], want[s]) {
			t.Fatalf("stager %d: staging times differ from the Sleep path's", s)
		}
	}
	if e.Now() != ref.Now() {
		t.Fatalf("clock ended at %v, Sleep path at %v", e.Now(), ref.Now())
	}
}
