package pilot

import (
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/sim"
	"repro/internal/trace"
)

// windowRunAllocs runs virt_tsu1024_window_ckpt's first half in process:
// a 16 x 4 x 16 T x S x U window run (100 s, no MinReady) of the given
// cycles on a failover pilot of 256 cores (Execution Mode II), with a
// bus, a collector and a flight recorder attached and a snapshot every
// 16 exchange events whose hook encodes the collector's state and the
// snapshot. It returns the heap objects and bytes allocated from
// sim.NewEnv through the end of Run, and the completions.
func windowRunAllocs(t *testing.T, cycles int) (objects, bytes uint64, completions int) {
	t.Helper()
	machine := cluster.SuperMIC()
	machine.ExecJitter = 0.05
	salts := []float64{0.1, 0.4, 0.7, 1.0}
	spec := &core.Spec{
		Name: "virt_tsu1024_window_ckpt",
		Dims: []core.Dimension{
			{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 16)},
			{Type: exchange.Salt, Values: salts},
			{Type: exchange.Umbrella, Values: core.UniformWindows(16), Torsion: "phi", K: core.UmbrellaK002},
		},
		Pattern:         core.PatternAsynchronous,
		Trigger:         core.NewWindowTrigger(100, 0),
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          cycles,
		Seed:            1,
		SnapshotEvery:   16,
	}
	var hookErr error
	snaps := 0
	var runErr error
	var rep *core.Report
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	spec.Bus = core.NewBus()
	col := analysis.New(analysis.ConfigFromSpec(spec))
	col.Attach(spec.Bus, analysis.RunBuffer(spec))
	spec.Tracer = trace.New(1 << 15)
	spec.OnSnapshot = func(sn *core.Snapshot) {
		state, err := col.EncodeState()
		if err == nil {
			sn.Analysis = state
			_, err = sn.Encode()
		}
		if err != nil && hookErr == nil {
			hookErr = err
		}
		snaps++
	}
	e := sim.NewEnv()
	cl := cluster.MustNew(e, machine, 2)
	eng := engines.NewAmberVirtual(2881, 3)
	e.Go("emm", func(p *sim.Proc) {
		rt, err := NewFailoverRuntime(cl, Description{Cores: 256}, p)
		if err != nil {
			runErr = err
			return
		}
		simu, err := core.New(spec, eng, rt)
		if err != nil {
			runErr = err
			return
		}
		rep, runErr = simu.Run()
	})
	e.Run()
	runtime.ReadMemStats(&m1)
	if runErr != nil || hookErr != nil {
		t.Fatal(runErr, hookErr)
	}
	if cycles >= 8 && snaps == 0 {
		t.Fatal("no snapshot taken")
	}
	for _, r := range rep.Records {
		completions += r.MD.Tasks
	}
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, completions
}

// TestWindowRunAllocations bounds the heap objects a checkpointed window
// run allocates a completion, virt_tsu1024_window_ckpt's uninterrupted
// half at 36 cycles (the least of three runs, as TestBarrierRunAllocations
// takes): 369-372 objects over 36 864 completions, 0.0100-0.0101 a
// completion, and the bound is that plus about 5 %. It read 604 objects,
// 0.0164 a completion, while every exchange event allocated its slot row
// and its pair outcomes, every snapshot copied the slot history and the
// ladders, the bus ring regrew from 64 records after every drain and the
// pilot runtime's and the exchange phase's buffers grew by doubling.
func TestWindowRunAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates beside the run")
	}
	windowRunAllocs(t, 2) // what a process allocates once, outside the count
	objects, bytes, completions := windowRunAllocs(t, 36)
	for range 2 {
		o, b, _ := windowRunAllocs(t, 36)
		objects, bytes = min(objects, o), min(bytes, b)
	}
	per := float64(objects) / float64(completions)
	t.Logf("a 1 024-replica window run of 36 cycles allocates %d objects and %d bytes over %d completions (%.4f objects a completion)",
		objects, bytes, completions, per)
	const bound = 0.0106
	if per > bound {
		t.Errorf("a 1 024-replica window run allocates %.4f objects a completion, want at most %.4f", per, bound)
	}
}
