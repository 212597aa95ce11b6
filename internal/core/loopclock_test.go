package core

import (
	"testing"
	"time"
)

// The loop clock charges a run's wall clock, from core.New to the end of
// Run, to its phases and nothing else: the phases add up to no more than
// the wall time around both calls, every phase a barrier run goes
// through is charged, and a run without snapshots or respacing charges
// those phases only the instants between their two reads.
func TestLoopClockAddsUpToTheRun(t *testing.T) {
	for _, sc := range []costScenario{costScenarios[0], costScenarios[2]} {
		t0 := time.Now()
		spec := sc.spec()
		s, err := New(spec, newCostEngine(1024), sc.runtime())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		outer := time.Since(t0).Seconds()
		loop := s.LoopSeconds()
		sum := 0.0
		for i, x := range loop {
			if x < 0 {
				t.Errorf("%s: phase %s is %g s", sc.name, LoopPhases[i], x)
			}
			sum += x
		}
		if sum <= 0 || sum > outer {
			t.Errorf("%s: phases add up to %g s, the run took %g s", sc.name, sum, outer)
		}
		for _, p := range []int{phaseSetup, phaseAwait, phaseComplete, phaseDecide, phaseExchange, phasePublish} {
			if loop[p] <= 0 {
				t.Errorf("%s: phase %s charged nothing: %v", sc.name, LoopPhases[p], loop)
			}
		}
		t.Logf("%s: %v of %.4f s", sc.name, loop, outer)
	}
}

// napRuntime is the tick runtime whose Overhead also spends real wall
// time, as the kernel does running other processes' events while the
// orchestrator sleeps.
type napRuntime struct {
	*tickRuntime
	nap  time.Duration
	naps int
}

func (r *napRuntime) Overhead(d float64) {
	r.naps++
	time.Sleep(r.nap)
	r.tickRuntime.Overhead(d)
}

// The orchestrator's own sleeps in the runtime (preparation overheads,
// the exchange tasks' awaits) are charged to await, not to the phase
// that sleeps: on the barrier cost scenario, setup, decide and exchange
// together read less than half of what the Overhead calls slept, and
// await reads all of it. The naps are long enough that the phases' own
// work stays well under that half under the race detector too.
func TestLoopClockChargesSleepsToAwait(t *testing.T) {
	sc := costScenarios[0]
	rt := &napRuntime{tickRuntime: sc.runtime(), nap: 10 * time.Millisecond}
	s, err := New(sc.spec(), newCostEngine(1024), rt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	loop := s.LoopSeconds()
	slept := float64(rt.naps) * rt.nap.Seconds()
	if loop[phaseAwait] < slept {
		t.Errorf("await %g s, the %d overheads slept %g s", loop[phaseAwait], rt.naps, slept)
	}
	if own := loop[phaseSetup] + loop[phaseDecide] + loop[phaseExchange]; own >= slept/2 {
		t.Errorf("setup, decide and exchange read %g s of the overheads' %g s", own, slept)
	}
	t.Logf("%d overheads slept %g s: %v", rt.naps, slept, loop)
}
