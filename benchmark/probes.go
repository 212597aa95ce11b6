package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/localexec"
	"repro/internal/md"
	"repro/internal/pilot"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
)

// Isolated probes time one layer's public functions directly. They
// exist because the virtual-time substrate cannot be split from outside
// a composed run: the wrappers see sim + cluster + pilot as one block,
// the probes measure each on its own. Every probe repeats its operation
// until its time budget is spent and reports a rate or a cost per
// operation; probe values do not depend on the workload or the seed.

// opsPerSecond calls fn, which performs and returns a number of
// operations, until budget has elapsed, and returns operations/second.
func opsPerSecond(budget time.Duration, fn func() int) float64 {
	ops := 0
	t0 := time.Now()
	for {
		ops += fn()
		if el := time.Since(t0); el >= budget {
			return float64(ops) / el.Seconds()
		}
	}
}

// nsPerOp is opsPerSecond inverted into nanoseconds per operation.
func nsPerOp(budget time.Duration, fn func() int) float64 {
	return 1e9 / opsPerSecond(budget, fn)
}

// probe is one isolated measurement.
type probe struct {
	name string
	run  func(budget time.Duration) (float64, error)
}

// probeFixture is the finished 1-D run several probes read: its last
// snapshot and its collector.
type probeFixture struct {
	snap    *core.Snapshot
	encoded []byte
	col     *analysis.Collector
	rec     *trace.Recorder
}

// newProbeFixture runs the barrier workload's ladder for a few cycles
// with bus, collector, recorder and a snapshot at the last event.
func newProbeFixture(sz sizes) (*probeFixture, error) {
	const cycles = 4
	fx := &probeFixture{rec: trace.New(0)}
	spec := &core.Spec{
		Name:            "probe-fixture",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, sz.T1Rungs)}},
		Trigger:         core.NewBarrierTrigger(),
		CoresPerReplica: 1,
		StepsPerCycle:   virtSteps,
		Cycles:          cycles,
		Seed:            1,
		Bus:             core.NewBus(),
		Tracer:          fx.rec,
		SnapshotEvery:   cycles,
		OnSnapshot:      func(sn *core.Snapshot) { fx.snap = sn },
	}
	fx.col = analysis.New(analysis.ConfigFromSpec(spec))
	fx.col.Attach(spec.Bus, analysis.RunBuffer(spec))
	if _, err := runVirtual(spec, cluster.SuperMIC(), sz.T1Rungs, 1, nil); err != nil {
		return nil, err
	}
	if fx.snap == nil {
		return nil, fmt.Errorf("probe fixture: no snapshot at event %d", cycles)
	}
	fx.col.Sync()
	var err error
	fx.encoded, err = fx.snap.Encode()
	return fx, err
}

// probes returns every isolated probe at the given sizes.
func probes(sz sizes, fx *probeFixture) []probe {
	rungs := sz.T1Rungs
	return []probe{
		{"sim.events_per_s", func(b time.Duration) (float64, error) {
			// 256 processes of 64 sleeps each: schedule + pop + hand-off.
			return opsPerSecond(b, func() int {
				env := sim.NewEnv()
				for i := 0; i < 256; i++ {
					d := 1 + float64(i%7)
					env.Go("p", func(p *sim.Proc) {
						for j := 0; j < 64; j++ {
							p.Sleep(d)
						}
					})
				}
				env.Run()
				return 256 * 64
			}), nil
		}},
		{"sim.resource_handoffs_per_s", func(b time.Duration) (float64, error) {
			// 64 processes contend for 8 slots: queued grants.
			return opsPerSecond(b, func() int {
				env := sim.NewEnv()
				res := sim.NewResource(env, 8)
				for i := 0; i < 64; i++ {
					env.Go("p", func(p *sim.Proc) {
						for j := 0; j < 32; j++ {
							res.Acquire(p, 1)
							p.Sleep(1)
							res.Release(1)
						}
					})
				}
				env.Run()
				return 64 * 32
			}), nil
		}},
		{"cluster.stage_calls_per_s", func(b time.Duration) (float64, error) {
			// The MD task's staging shape: a few small files per call,
			// serialised at the metadata server.
			return opsPerSecond(b, func() int {
				env := sim.NewEnv()
				cl := cluster.MustNew(env, cluster.SuperMIC(), 1)
				for i := 0; i < 64; i++ {
					env.Go("p", func(p *sim.Proc) {
						for j := 0; j < 16; j++ {
							cl.StageFiles(p, 3, 30000)
						}
					})
				}
				env.Run()
				return 64 * 16
			}), nil
		}},
		{"pilot.units_per_s_mode1", func(b time.Duration) (float64, error) { return pilotUnits(b, 512, 512) }},
		{"pilot.units_per_s_mode2", func(b time.Duration) (float64, error) { return pilotUnits(b, 512, 128) }},
		{"core.null_barrier_ns_per_completion", func(b time.Duration) (float64, error) {
			return nullDispatch(b, rungs, func() core.Trigger { return core.NewBarrierTrigger() })
		}},
		{"core.null_window_ns_per_completion", func(b time.Duration) (float64, error) {
			return nullDispatch(b, rungs, func() core.Trigger { return core.NewWindowTrigger(100, 0) })
		}},
		{"exchange.pairs_per_s", func(b time.Duration) (float64, error) {
			// One exchange phase's arithmetic over the ladder: pair list,
			// acceptance probabilities (T on even sweeps, Hamiltonian on
			// odd), Metropolis sweep.
			ids := make([]int, rungs)
			energy := make([]float64, rungs)
			beta := make([]float64, rungs)
			rng := rand.New(rand.NewSource(1))
			for i, t := range core.GeometricTemperatures(273, 373, rungs) {
				ids[i] = i
				beta[i] = 1 / (md.KB * t)
				energy[i] = -2500 + 2*(t-300) + 24*rng.NormFloat64()
			}
			var pairs []exchange.Pair
			probs := make([]float64, rungs)
			sweep := 0
			return opsPerSecond(b, func() int {
				pairs = exchange.AppendNeighborPairs(pairs[:0], ids, sweep)
				for i, pr := range pairs {
					if sweep%2 == 0 {
						probs[i] = exchange.AcceptTemperature(beta[pr.I], beta[pr.J], energy[pr.I], energy[pr.J])
					} else {
						probs[i] = exchange.AcceptHamiltonian(beta[pr.I], beta[pr.J],
							energy[pr.I], energy[pr.J]+1, energy[pr.I]+1, energy[pr.J])
					}
				}
				exchange.Sweep(pairs, probs[:len(pairs)], rng)
				sweep++
				return len(pairs)
			}), nil
		}},
		{"exchange.groups_along_ns", func(b time.Duration) (float64, error) {
			grid := exchange.MustNewGrid(sz.TSU[0], sz.TSU[1], sz.TSU[2])
			d := 0
			return nsPerOp(b, func() int {
				grid.GroupsAlong(d % 3)
				d++
				return 1
			}), nil
		}},
		{"core.bus_publish_ns", func(b time.Duration) (float64, error) {
			// The dispatcher's publication shape: batches into one
			// subscriber's bounded ring.
			bus := core.NewBus()
			bus.Subscribe(1 << 12)
			batch := make([]core.Event, 64)
			for i := range batch {
				batch[i] = core.MDEvent{At: float64(i), Replica: i, Cycle: 1, Exec: 100}
			}
			return nsPerOp(b, func() int {
				bus.PublishBatch(batch)
				return len(batch)
			}), nil
		}},
		{"analysis.apply_ns_per_event", func(b time.Duration) (float64, error) {
			// One barrier sub-cycle's event mix: an MD event per replica,
			// then the exchange event with its pair outcomes.
			col := analysis.New(analysis.Config{DimSizes: []int{rungs}, Replicas: rungs})
			slots := make([]int, rungs)
			for i := range slots {
				slots[i] = i
			}
			pairs := make([]core.PairOutcome, 0, rungs/2)
			for i := 0; i+1 < rungs; i += 2 {
				pairs = append(pairs, core.PairOutcome{Lo: i, Hi: i + 1, ReplicaI: i, ReplicaJ: i + 1, Accepted: i%4 == 0})
			}
			event := 0
			return nsPerOp(b, func() int {
				for r := 0; r < rungs; r++ {
					col.Apply(core.MDEvent{Replica: r, Cycle: event + 1, Exec: 120})
				}
				col.Apply(core.ExchangeEvent{Event: event, Cycle: event, Pairs: pairs, Slots: slots})
				event++
				return rungs + 1
			}), nil
		}},
		{"core.snapshot_encode_mb_per_s", func(b time.Duration) (float64, error) {
			var err error
			mb := float64(len(fx.encoded)) / 1e6
			rate := opsPerSecond(b, func() int {
				_, err = fx.snap.Encode()
				return 1
			})
			return rate * mb, err
		}},
		{"core.snapshot_decode_mb_per_s", func(b time.Duration) (float64, error) {
			var err error
			mb := float64(len(fx.encoded)) / 1e6
			rate := opsPerSecond(b, func() int {
				_, err = core.DecodeSnapshot(fx.encoded)
				return 1
			})
			return rate * mb, err
		}},
		{"serve.metrics_render_ms_4k", func(b time.Duration) (float64, error) { return render(b, fx, "/metrics") }},
		{"serve.stats_render_ms_4k", func(b time.Duration) (float64, error) { return render(b, fx, "/stats") }},
		{"trace.record_ns", func(b time.Duration) (float64, error) {
			rec := trace.New(1 << 15)
			sp := trace.Span{Start: 1, Dur: 120, Replica: 7, Event: 3}
			return nsPerOp(b, func() int {
				for i := 0; i < 1024; i++ {
					rec.Record(sp)
				}
				return 1024
			}), nil
		}},
		{"md.force_ns_per_atom_dipeptide", func(b time.Duration) (float64, error) {
			top, st := md.BuildAlanineDipeptide()
			sys, err := md.NewSystem(top, md.Box{}, 0)
			if err != nil {
				return 0, err
			}
			return forceCost(b, sys, st), nil
		}},
		{"md.force_ns_per_atom_lj256", func(b time.Duration) (float64, error) {
			top, st, box := md.BuildLJFluid(256, 0.021)
			sys, err := md.NewSystem(top, box, 8.5)
			if err != nil {
				return 0, err
			}
			return forceCost(b, sys, st), nil
		}},
		{"md.langevin_step_ns_per_atom", func(b time.Duration) (float64, error) {
			top, st := md.BuildAlanineDipeptide()
			sys, err := md.NewSystem(top, md.Box{}, 0)
			if err != nil {
				return 0, err
			}
			prm := md.Params{TemperatureK: 300}
			md.Minimize(sys, st, prm, 200, 1e-2)
			integ := md.NewLangevin(0.001, 5, 1)
			const steps = 50
			return nsPerOp(b, func() int {
				integ.Step(sys, st, prm, steps)
				return steps * top.N()
			}), nil
		}},
		{"localexec.tasks_per_s", func(b time.Duration) (float64, error) {
			// No-op task bodies: goroutine start, semaphore, completion
			// stream.
			noop := &task.Spec{Name: "noop", Cores: 1, Run: func() error { return nil }}
			return opsPerSecond(b, func() int {
				rt := localexec.New(2)
				const n = 256
				for i := 0; i < n; i++ {
					rt.SubmitWatched(noop)
				}
				for got := 0; got < n; {
					got += len(rt.AwaitNext(math.Inf(1)))
				}
				return n
			}), nil
		}},
		{"config.parse_launch_us", func(b time.Duration) (float64, error) {
			body := launchBody(sz.HTTPRungs, sz.HTTPCycles, 1)
			var err error
			ns := nsPerOp(b, func() int {
				_, err = config.ParseLaunch(body)
				return 1
			})
			return ns / 1e3, err
		}},
	}
}

// pilotUnits times the unit lifecycle on an otherwise idle pilot: units
// MD-shaped tasks on a pilot of the given core count (fewer cores than
// units: Execution Mode II, units queue for cores).
func pilotUnits(b time.Duration, units, cores int) (float64, error) {
	var err error
	rate := opsPerSecond(b, func() int {
		env := sim.NewEnv()
		cl := cluster.MustNew(env, cluster.SuperMIC(), 1)
		var pl *pilot.Pilot
		pl, err = pilot.Launch(cl, pilot.Description{Cores: cores})
		if err != nil {
			return 1
		}
		for i := 0; i < units; i++ {
			pl.SubmitUnit(&task.Spec{Name: "u", Kind: task.MD, Cores: 1, Duration: 120,
				InFiles: 3, InBytes: 30000, OutFiles: 2, OutBytes: 20000})
		}
		env.Run()
		if _, done, _ := pl.Counters(); done != units {
			err = fmt.Errorf("pilot probe: %d of %d units done", done, units)
		}
		return units
	})
	return rate, err
}

// nullDispatch times the dispatcher alone: a 1-D ladder run for two
// cycles against the zero-latency runtime, in nanoseconds per
// completion.
func nullDispatch(b time.Duration, rungs int, trigger func() core.Trigger) (float64, error) {
	ladder := core.GeometricTemperatures(273, 373, rungs)
	var err error
	ns := nsPerOp(b, func() int {
		spec := &core.Spec{
			Name:            "null-dispatch",
			Dims:            []core.Dimension{{Type: exchange.Temperature, Values: ladder}},
			Trigger:         trigger(),
			CoresPerReplica: 1,
			StepsPerCycle:   virtSteps,
			Cycles:          2,
			Seed:            1,
		}
		var simu *core.Simulation
		simu, err = core.New(spec, engines.NewAmberVirtual(virtAtoms, 2), newNullRuntime(rungs))
		if err != nil {
			return 1
		}
		var rep *core.Report
		rep, err = simu.Run()
		if err != nil {
			return 1
		}
		if n := completions(rep); n != rungs*2 || rep.Dropped != 0 {
			err = fmt.Errorf("null dispatch: %d completions, %d dropped, want %d and 0", n, rep.Dropped, rungs*2)
		}
		return rungs * 2
	})
	return ns, err
}

// render times one endpoint of a run's observability server against the
// fixture's finished collector, handler call to last byte, in ms.
func render(b time.Duration, fx *probeFixture, path string) (float64, error) {
	srv := serve.New(fx.col, func() serve.RunStatus { return serve.RunStatus{Name: "probe-fixture", State: "completed"} })
	srv.SetRunLabel("r1")
	srv.SetTracer(fx.rec)
	h := srv.Handler()
	var err error
	ns := nsPerOp(b, func() int {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK || w.Body.Len() == 0 {
			err = fmt.Errorf("GET %s: status %d, %d bytes", path, w.Code, w.Body.Len())
		}
		return 1
	})
	return ns / 1e6, err
}

// forceCost returns the cost of one EnergyForces evaluation in
// nanoseconds per atom.
func forceCost(b time.Duration, sys *md.System, st *md.State) float64 {
	f := make([]md.Vec3, sys.Top.N())
	prm := md.Params{TemperatureK: 300}
	return nsPerOp(b, func() int {
		sys.EnergyForces(st, prm, f)
		return sys.Top.N()
	})
}
