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
