package repex

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/localexec"
)

// TestDipeptideEnginesShareAnUntouchedBase: engines built back to back,
// and two more running at once, share one dipeptide system and run a
// spec to the same slots and energies bit for bit (an engine that wrote
// into the shared base state, or evaluated forces on it, would show in
// a later run or under -race). TestDipeptideBaseStaysUntouched
// (internal/engines) checks the base state against a fresh build.
func TestDipeptideEnginesShareAnUntouchedBase(t *testing.T) {
	first, err := NewDipeptideEngine("amber", 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*core.Simulation, *Report, error) {
		eng, err := NewDipeptideEngine("amber", 5)
		if err != nil {
			return nil, nil, err
		}
		if eng.System() != first.System() {
			return nil, nil, errors.New("the engine does not share the process's dipeptide system")
		}
		spec := &Spec{
			Name: "shared-base",
			Dims: []Dimension{
				{Type: Temperature, Values: GeometricTemperatures(280, 340, 2)},
				{Type: Umbrella, Values: UniformWindows(2), Torsion: "phi", K: UmbrellaK002},
			},
			Pattern:         PatternSynchronous,
			CoresPerReplica: 1,
			StepsPerCycle:   30,
			Cycles:          3,
			Seed:            5,
		}
		simu, err := core.New(spec, eng, localexec.New(2))
		if err != nil {
			return nil, nil, err
		}
		rep, err := simu.Run()
		return simu, rep, err
	}
	sims := make([]*core.Simulation, 4)
	reps := make([]*Report, 4)
	errs := make([]error, 4)
	sims[0], reps[0], errs[0] = run()
	sims[1], reps[1], errs[1] = run()
	var wg sync.WaitGroup
	for k := 2; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sims[k], reps[k], errs[k] = run()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for k := 1; k < 4; k++ {
		if reps[k].SlotFingerprint != reps[0].SlotFingerprint {
			t.Errorf("run %d: slot fingerprint %016x, the first run's %016x", k, reps[k].SlotFingerprint, reps[0].SlotFingerprint)
		}
		for i, a := range sims[0].Replicas() {
			if b := sims[k].Replicas()[i]; math.Float64bits(a.Energy) != math.Float64bits(b.Energy) || a.Slot != b.Slot {
				t.Errorf("run %d replica %d: energy %v slot %d, the first run's %v slot %d", k, i, b.Energy, b.Slot, a.Energy, a.Slot)
			}
		}
	}
}

// TestLocalRunAllocations holds a real run of local_tu16_real's shape
// (T4 x U4 on the dipeptide, a barrier, two localexec workers; short
// segments, which change no allocation) to the objects it allocates
// once the process has built its dipeptide: the least of three runs
// through RunLocal. It reads 76 objects (go1.24.0, any GOMAXPROCS;
// 109 while localexec allocated a closure a goroutine start, a handle at
// a time and its queue's and free list's arrays, 284 while the dipeptide
// was built per engine and every replica had its own minimisation,
// scratch and random source), and the bound is that plus a tenth: an
// integrator that allocates its scratch at Begin again, or go r.work(h)
// in localexec, fails it. Never raise it to let a change through.
func TestLocalRunAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector moves allocation counts")
	}
	spec := func() *Spec {
		return &Spec{
			Name: "local-allocs",
			Dims: []Dimension{
				{Type: Temperature, Values: GeometricTemperatures(273, 373, 4)},
				{Type: Umbrella, Values: UniformWindows(4), Torsion: "phi", K: UmbrellaK002},
			},
			Pattern:         PatternSynchronous,
			CoresPerReplica: 1,
			StepsPerCycle:   20,
			Cycles:          3,
			Seed:            1,
		}
	}
	// The first run builds what a process builds once.
	if _, err := RunLocal(spec(), 2, 1); err != nil {
		t.Fatal(err)
	}
	least := 0.0
	for k := 0; k < 3; k++ {
		var runErr error
		got := testing.AllocsPerRun(1, func() {
			if _, err := RunLocal(spec(), 2, 1); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		if k == 0 || got < least {
			least = got
		}
	}
	const bound = 84
	if least > bound {
		t.Errorf("a T4 x U4 real run allocates %v objects, want at most %v", least, bound)
	} else {
		t.Logf("a T4 x U4 real run allocates %v objects (bound %v)", least, bound)
	}
}
