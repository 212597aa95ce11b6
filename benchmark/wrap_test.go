package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	repex "repro"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/localexec"
	"repro/internal/pilot"
	"repro/internal/sim"
	"repro/internal/task"
)

// captured is everything a transparency case compares between the plain
// run and the run through the decorators.
type captured struct {
	Stats                                   simStats
	Relaunches, Preemptions, CancelledUnits int
	// Snapshots are the encoded checkpoints, in capture order.
	Snapshots []string
}

func capture(rep *core.Report, ndims int, virtual bool, snaps []string) captured {
	return captured{
		Stats:          statsOf(rep, ndims, virtual),
		Relaunches:     rep.Relaunches,
		Preemptions:    rep.Preemptions,
		CancelledUnits: rep.CancelledUnits,
		Snapshots:      snaps,
	}
}

// snapshotInto makes spec checkpoint every `every` events into snaps.
// Real runs carry two wall-clock fields (Elapsed, MDExecCoreSeconds),
// which are zeroed so the remaining bytes can be compared.
func snapshotInto(spec *core.Spec, every int, wallClock bool, snaps *[]string) {
	spec.SnapshotEvery = every
	spec.OnSnapshot = func(sn *core.Snapshot) {
		if wallClock {
			sn.Elapsed, sn.MDExecCoreSeconds = 0, 0
		}
		data, err := sn.Encode()
		if err != nil {
			data = []byte(err.Error())
		}
		*snaps = append(*snaps, string(data))
	}
}

func readConfig(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "configs", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The decorators must be invisible to the program: the same fingerprint,
// report counters and snapshot bytes with and without them, on each
// workload's spec at small scale, on the committed chaos plan (resource
// events, failover across two pilots) and on a feedback-trigger run
// (stateful trigger, exchange and latency observers).
func TestWrappersAreTransparent(t *testing.T) {
	sz := tinySizes()
	cases := []struct {
		name string
		run  func(t *testing.T, tr *tracer) captured
	}{
		{"t_barrier", func(t *testing.T, tr *tracer) captured {
			var snaps []string
			spec := &core.Spec{
				Name:            "t-barrier",
				Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, sz.T1Rungs)}},
				Trigger:         core.NewBarrierTrigger(),
				CoresPerReplica: 1, StepsPerCycle: virtSteps, Cycles: sz.T1Cycles, Seed: 5,
			}
			snapshotInto(spec, 1, false, &snaps)
			out, err := runVirtual(spec, cluster.SuperMIC(), sz.T1Rungs, 5, tr)
			if err != nil {
				t.Fatal(err)
			}
			return capture(out.report, 1, true, snaps)
		}},
		{"tsu_window_mode2", func(t *testing.T, tr *tracer) captured {
			var snaps []string
			spec := &core.Spec{
				Name: "tsu-window",
				Dims: []core.Dimension{
					{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, sz.TSU[0])},
					{Type: exchange.Salt, Values: []float64{0.1, 0.4}},
					{Type: exchange.Umbrella, Values: core.UniformWindows(sz.TSU[2]), Torsion: "phi", K: core.UmbrellaK002},
				},
				Pattern:         core.PatternAsynchronous,
				Trigger:         core.NewWindowTrigger(100, 0),
				CoresPerReplica: 1, StepsPerCycle: virtSteps, Cycles: sz.TSUCycles, Seed: 6,
				// Force the sharded pair evaluation, so CrossEnergy runs on
				// the exchange workers through the wrapper.
				ExchangeWorkers: 2,
			}
			snapshotInto(spec, sz.TSUSnapEvery, false, &snaps)
			out, err := runVirtual(spec, cluster.SuperMIC(), sz.TSUCores, 6, tr)
			if err != nil {
				t.Fatal(err)
			}
			return capture(out.report, 3, true, snaps)
		}},
		{"local_real", func(t *testing.T, tr *tracer) captured {
			var snaps []string
			dip, err := repex.NewDipeptideEngine("amber", 7)
			if err != nil {
				t.Fatal(err)
			}
			var eng core.Engine = dip
			var rt task.Runtime = localexec.New(2)
			spec := &core.Spec{
				Name: "local-real",
				Dims: []core.Dimension{
					{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 2)},
					{Type: exchange.Umbrella, Values: core.UniformWindows(2), Torsion: "phi", K: core.UmbrellaK002},
				},
				Trigger:         core.NewBarrierTrigger(),
				CoresPerReplica: 1, StepsPerCycle: sz.TUSteps, Cycles: sz.TUCycles, Seed: 7,
			}
			snapshotInto(spec, 1, true, &snaps)
			if tr != nil {
				rt, eng, spec.Trigger = traceRuntime(rt, tr), traceEngine(eng, tr), traceTrigger(spec.Trigger, tr)
			}
			simu, err := core.New(spec, eng, rt)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := simu.Run()
			if err != nil {
				t.Fatal(err)
			}
			if tr != nil && (tr.taskRun.calls.Load() == 0 || tr.mdSteps.Load() == 0) {
				t.Error("traced real run timed no task body")
			}
			return capture(rep, 2, false, snaps)
		}},
		{"feedback_small", func(t *testing.T, tr *tracer) captured {
			var snaps []string
			file, err := config.ParseSimulation(readConfig(t, "feedback_small.json"))
			if err != nil {
				t.Fatal(err)
			}
			spec, err := file.ToSpec()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := spec.Trigger.(core.StatefulTrigger); !ok {
				t.Fatal("feedback_small.json no longer selects a stateful trigger")
			}
			snapshotInto(spec, 5, false, &snaps)
			out, err := runVirtual(spec, cluster.Small(2, 8), 16, spec.Seed, tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) == 0 || !strings.Contains(snaps[0], "trigger_data") {
				t.Error("feedback snapshots carry no trigger state")
			}
			return capture(out.report, 1, true, snaps)
		}},
		{"chaos_small", func(t *testing.T, tr *tracer) captured {
			var snaps []string
			rep := runChaosSmall(t, tr, &snaps)
			if rep.Preemptions < 1 || rep.Relaunches < 1 || rep.Dropped != 0 {
				t.Errorf("chaos plan did not bite: %d preemptions, %d relaunches, %d dropped",
					rep.Preemptions, rep.Relaunches, rep.Dropped)
			}
			want := strings.TrimSpace(string(readConfig(t, "chaos_small.golden")))
			if got := fmt.Sprintf("%d %016x", rep.SlotRows, rep.SlotFingerprint); got != want {
				t.Errorf("chaos_small through wrappers=%v: %q, committed golden %q", tr != nil, got, want)
			}
			return capture(rep, 1, true, snaps)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain := c.run(t, nil)
			tr := &tracer{log: newSpanLog()}
			traced := c.run(t, tr)
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("traced run differs from plain run:\n plain  %+v\n traced %+v", plain, traced)
			}
			if len(plain.Snapshots) == 0 {
				t.Error("case captured no snapshot")
			}
			for name, c := range map[string]*layerClock{"runtime": &tr.runtime, "engine": &tr.engine, "trigger": &tr.trigger} {
				if c.calls.Load() == 0 || c.ns.Load() <= 0 {
					t.Errorf("%s wrapper saw no calls", name)
				}
			}
			if len(tr.log.spans) == 0 {
				t.Error("span log stayed empty")
			}
		})
	}
}

// runChaosSmall assembles the committed chaos pair the way bench.Run
// does — two pilots behind a failover MultiRuntime, the chaos plan
// driven against its routing slots — with the decorators outside it.
func runChaosSmall(t *testing.T, tr *tracer, snaps *[]string) *core.Report {
	t.Helper()
	file, err := config.ParseSimulation(readConfig(t, "chaos_sim_small.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := file.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Trigger = core.NewBarrierTrigger() // the pattern's own policy, made wrappable
	snapshotInto(spec, 2, false, snaps)
	machine, ps, err := config.ParseResource(readConfig(t, "chaos_small.json"))
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	cl := cluster.MustNew(env, machine, spec.Seed+1)
	var eng core.Engine = engines.NewNamedVirtual(file.Engine, file.Atoms, spec.Seed+2)
	var rep *core.Report
	var runErr error
	env.Go("emm", func(p *sim.Proc) {
		pilots := make([]*pilot.Pilot, ps.Pilots)
		for i := range pilots {
			if pilots[i], runErr = pilot.Launch(cl, pilot.Description{Cores: ps.Cores / ps.Pilots, Walltime: ps.Walltime}); runErr != nil {
				return
			}
		}
		mr, err := pilot.NewMultiRuntime(p, pilots...)
		if err != nil {
			runErr = err
			return
		}
		mr.Failover = true
		ps.Chaos.Drive(env, mr.PilotAt)
		var rt task.Runtime = mr
		if tr != nil {
			rt, eng, spec.Trigger = traceRuntime(rt, tr), traceEngine(eng, tr), traceTrigger(spec.Trigger, tr)
		}
		simu, err := core.New(spec, eng, rt)
		if err != nil {
			runErr = err
			return
		}
		rep, runErr = simu.Run()
	})
	env.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return rep
}

// A trigger without optional interfaces must not grow them through the
// wrapper in a way the core can observe: no exchange observer (it would
// make the core collect pair outcomes) and no snapshot state.
func TestTracedTriggerOptionalInterfaces(t *testing.T) {
	tr := &tracer{}
	plain := traceTrigger(core.NewBarrierTrigger(), tr)
	if _, ok := plain.(core.ExchangeObserver); ok {
		t.Error("wrapped barrier trigger claims to observe exchanges")
	}
	st := plain.(core.StatefulTrigger)
	if data, err := st.EncodeState(); data != nil || err != nil {
		t.Errorf("wrapped barrier trigger encodes state %q, %v", data, err)
	}
	if err := st.RestoreState([]byte(`{}`)); err == nil {
		t.Error("wrapped barrier trigger accepted snapshot state it cannot restore")
	}
	if err := plain.(interface{ Validate() error }).Validate(); err != nil {
		t.Errorf("wrapped barrier trigger fails validation: %v", err)
	}
	if err := traceTrigger(core.NewWindowTrigger(0, 0), tr).(interface{ Validate() error }).Validate(); err == nil {
		t.Error("wrapped zero-length window passed validation")
	}
	fb := traceTrigger(core.NewFeedbackTrigger(45), tr)
	if _, ok := fb.(core.ExchangeObserver); !ok {
		t.Error("wrapped feedback trigger lost its exchange observer")
	}
	if _, ok := traceEngine(engines.NewAmberVirtual(virtAtoms, 1), tr).(core.ReplayableEngine); !ok {
		t.Error("wrapped virtual engine lost ReplayableEngine")
	}
	dip, err := repex.NewDipeptideEngine("amber", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := traceEngine(dip, tr).(core.ReplayableEngine); ok {
		t.Error("wrapped real engine claims ReplayableEngine")
	}
	if ev := traceRuntime(newNullRuntime(1), tr).(task.ResourceReporter).DrainResourceEvents(); ev != nil {
		t.Errorf("wrapped runtime without resource events reported %v", ev)
	}
}
