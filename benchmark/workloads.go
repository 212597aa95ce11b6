package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	repex "repro"
	"repro/internal/analysis"
	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/localexec"
	"repro/internal/pilot"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
)

// A workload is one set of inputs the benchmark runs. prepare generates
// the inputs from the seed — the program under test only ever receives
// those specs and JSON bodies — and returns the unit: one complete run
// of the workload, which the harness repeats and times.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// prepare builds the workload's inputs at the given size.
	prepare func(seed int64, sz sizes) (unitFunc, error)
}

// unitFunc executes the workload once. tr is nil in the untraced pass;
// otherwise the run goes through the decorators of wrap.go.
type unitFunc func(tr *tracer) (unitResult, error)

// unitResult is what one unit reports back to the harness.
type unitResult struct {
	// Wall is the unit's wall time: everything a user pays per run,
	// including cluster/pilot/simulation construction.
	Wall time.Duration
	// Completions counts finished MD segments.
	Completions int
	// Attempted and Failed count operations for the failure fraction:
	// segments dropped, run errors, non-2xx responses, runs that did not
	// end completed.
	Attempted, Failed int
	// Utilization is Report.Utilization(): wall-clock on the real
	// workload, virtual-time on the simulated ones.
	Utilization float64
	// RunMs holds the latency of every run inside the unit, start to
	// finished, in milliseconds (one sample except on the HTTP workload).
	RunMs []float64
	// Outputs are the simulated statistics that must repeat exactly
	// between repetitions, between the traced and untraced pass, and —
	// for the committed seeds — against golden.json.
	Outputs map[string]simStats
	// Layer holds the per-layer numbers this unit measured.
	Layer map[string]float64
}

// simStats are the outputs of one simulated run that the checks pin.
// Wall-clock quantities (makespan and utilization of a real run) are
// left zero.
type simStats struct {
	Fingerprint    string    `json:"fingerprint"`
	ExchangeEvents int       `json:"exchange_events"`
	SlotRows       int       `json:"slot_rows"`
	Completions    int       `json:"completions"`
	Dropped        int       `json:"dropped"`
	Acceptance     []float64 `json:"acceptance"`
	Makespan       float64   `json:"virtual_makespan_s,omitempty"`
	Utilization    float64   `json:"virtual_utilization,omitempty"`
}

func completions(rep *core.Report) int {
	n := 0
	for _, rec := range rep.Records {
		n += rec.MD.Tasks
	}
	return n
}

func statsOf(rep *core.Report, ndims int, virtual bool) simStats {
	st := simStats{
		Fingerprint:    fmt.Sprintf("%016x", rep.SlotFingerprint),
		ExchangeEvents: rep.ExchangeEvents,
		SlotRows:       rep.SlotRows,
		Completions:    completions(rep),
		Dropped:        rep.Dropped,
		Acceptance:     make([]float64, ndims),
	}
	for d := range st.Acceptance {
		st.Acceptance[d] = rep.AcceptanceRatioByDim(d)
	}
	if virtual {
		st.Makespan = rep.Makespan()
		st.Utilization = rep.Utilization()
	}
	return st
}

// sizes are the input sizes of the four workloads. fullSizes is what the
// benchmark measures; tests shrink everything to run in seconds.
type sizes struct {
	// virt_t4096_barrier
	T1Rungs, T1Cycles int
	// virt_tsu1024_window_ckpt: grid, pilot cores (a quarter of the
	// replicas: Execution Mode II in four waves), cycles, snapshot
	// period and the checkpoint the second half resumes from.
	TSU                          [3]int
	TSUCores, TSUCycles          int
	TSUSnapEvery, TSUResumeEvent int
	// local_tu16_real
	TUWindows, TUSteps, TUCycles int
	// repexd_http_2c
	HTTPLaunches, HTTPRungs, HTTPCycles int
}

func fullSizes() sizes {
	return sizes{
		T1Rungs: 4096, T1Cycles: 12,
		TSU: [3]int{16, 4, 16}, TSUCores: 256, TSUCycles: 36, TSUSnapEvery: 16, TSUResumeEvent: 48,
		TUWindows: 4, TUSteps: 2000, TUCycles: 12,
		HTTPLaunches: 8, HTTPRungs: 1024, HTTPCycles: 8,
	}
}

func tinySizes() sizes {
	return sizes{
		T1Rungs: 48, T1Cycles: 3,
		TSU: [3]int{4, 2, 4}, TSUCores: 8, TSUCycles: 8, TSUSnapEvery: 4, TSUResumeEvent: 8,
		TUWindows: 2, TUSteps: 40, TUCycles: 2,
		HTTPLaunches: 2, HTTPRungs: 24, HTTPCycles: 2,
	}
}

// Virtual runs use the paper's small benchmark system and its step
// count per cycle for Amber.
const (
	virtAtoms = 2881
	virtSteps = 6000
	// httpClients is the number of closed-loop clients of the HTTP
	// workload; the generator never runs more goroutines than cores.
	httpClients = 2
)

var workloads = []workload{
	{
		Name:    "virt_t4096_barrier",
		Why:     "1-D T-REMD, 4096 rungs, barrier, Mode I: the paper's 1-D scaling regime; the virtual-time substrate does ~90% of the work and no observer is attached.",
		prepare: prepareT4096,
	},
	{
		Name:    "virt_tsu1024_window_ckpt",
		Why:     "3-D TSU 1024 replicas, window trigger, Mode II, bus+collector+recorder on, snapshots written and one resumed: non-aligned path, queued cores, checkpoint write beside read.",
		prepare: prepareTSU,
	},
	{
		Name:    "local_tu16_real",
		Why:     "Real Langevin MD of 16 T x U replicas on two localexec workers: wall clock, md kernels and the goroutine pool do the work; substrate changes must not move it.",
		prepare: prepareLocal,
	},
	{
		Name:    "repexd_http_2c",
		Why:     "Two closed-loop HTTP clients launch runs on the repexd handler, stream SSE to done, scrape /metrics and read /stats: the control plane under concurrent runs.",
		prepare: prepareHTTP,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---------------------------------------------------------------------------
// Virtual-time runs

// virtOutcome is one finished virtual run with the exact counts the
// substrate exposes through public accessors.
type virtOutcome struct {
	report *core.Report
	// newSpan is core.New; coreSpan is core.New plus Run.
	newSpan, coreSpan                   time.Duration
	unitsDone, unitsFailed, filesStaged int
}

// runVirtual assembles one run the way repex.RunVirtual does — fresh
// kernel, cluster, failover pilot, engine, simulation — with the
// decorators slipped in between the layers when tr is set.
func runVirtual(spec *core.Spec, machine cluster.Config, pilotCores int, seed int64, tr *tracer) (virtOutcome, error) {
	var out virtOutcome
	env := sim.NewEnv()
	cl, err := cluster.New(env, machine, seed+1)
	if err != nil {
		return out, err
	}
	var eng core.Engine = engines.NewAmberVirtual(virtAtoms, seed+2)
	var prt *pilot.Runtime
	var runErr error
	env.Go("emm", func(p *sim.Proc) {
		prt, runErr = pilot.NewFailoverRuntime(cl, pilot.Description{Cores: pilotCores}, p)
		if runErr != nil {
			return
		}
		var rt task.Runtime = prt
		if tr != nil {
			rt = traceRuntime(rt, tr)
			eng = traceEngine(eng, tr)
			spec.Trigger = traceTrigger(spec.Trigger, tr)
		}
		t0 := time.Now()
		simu, err := core.New(spec, eng, rt)
		out.newSpan = time.Since(t0)
		if err != nil {
			runErr = err
			return
		}
		out.report, runErr = simu.Run()
		out.coreSpan = time.Since(t0)
		tr.note("core", trackCore, t0)
	})
	env.Run()
	if runErr != nil {
		return out, runErr
	}
	_, out.unitsDone, out.unitsFailed = prt.Pilot().Counters()
	out.filesStaged, _, _, _ = cl.Stats()
	return out, nil
}

// coreLayers turns the tracer's clocks into per-layer numbers. rtLayer
// names the runtime in use ("pilot" or "localexec"); coreSpan is the
// total time inside core.New and Run, wall the unit's wall time and
// outside the harness-side time already attributed to a named layer.
func coreLayers(layer map[string]float64, tr *tracer, rtLayer string, coreSpan, wall, outside time.Duration) {
	if tr == nil {
		return
	}
	rt, eng, trig, cb := tr.runtime.seconds(), tr.engine.seconds(), tr.trigger.seconds(), tr.callback.seconds()
	self := coreSpan.Seconds() - rt - eng - trig - cb
	layer[rtLayer+".runtime_busy_s"] = rt
	if rtLayer == "pilot" {
		layer["pilot.runtime_calls"] = float64(tr.runtime.calls.Load())
		layer["pilot.runtime_share"] = rt / wall.Seconds()
	}
	layer["engines.busy_s"] = eng
	layer["engines.calls"] = float64(tr.engine.calls.Load() + tr.cross.calls.Load())
	layer["engines.cross_energy_s"] = tr.cross.seconds()
	layer["core.trigger_busy_s"] = trig
	layer["core.trigger_calls"] = float64(tr.trigger.calls.Load())
	layer["core.self_s"] = self
	layer["core.self_share"] = self / wall.Seconds()
	layer["bench.harness_s"] = (wall - coreSpan - outside).Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---------------------------------------------------------------------------
// virt_t4096_barrier

func prepareT4096(seed int64, sz sizes) (unitFunc, error) {
	ladder := core.GeometricTemperatures(273, 373, sz.T1Rungs)
	machine := cluster.SuperMIC()
	machine.ExecJitter = 0.05
	return func(tr *tracer) (unitResult, error) {
		t0 := time.Now()
		spec := &core.Spec{
			Name:            "virt_t4096_barrier",
			Dims:            []core.Dimension{{Type: exchange.Temperature, Values: append([]float64(nil), ladder...)}},
			Pattern:         core.PatternSynchronous,
			Trigger:         core.NewBarrierTrigger(),
			CoresPerReplica: 1,
			StepsPerCycle:   virtSteps,
			Cycles:          sz.T1Cycles,
			Seed:            seed,
		}
		out, err := runVirtual(spec, machine, sz.T1Rungs, seed, tr)
		if err != nil {
			return unitResult{}, err
		}
		wall := time.Since(t0)
		tr.note("unit", trackUnit, t0)
		st := statsOf(out.report, 1, true)
		res := unitResult{
			Wall:        wall,
			Completions: st.Completions,
			Attempted:   sz.T1Rungs * sz.T1Cycles,
			Failed:      st.Dropped,
			Utilization: st.Utilization,
			RunMs:       []float64{ms(wall)},
			Outputs:     map[string]simStats{"run": st},
			Layer:       virtLayers(out),
		}
		coreLayers(res.Layer, tr, "pilot", out.coreSpan, wall, 0)
		return res, nil
	}, nil
}

// virtLayers reports the substrate's exact counts for one virtual run.
func virtLayers(out virtOutcome) map[string]float64 {
	return map[string]float64{
		"pilot.units_done":       float64(out.unitsDone),
		"pilot.units_failed":     float64(out.unitsFailed),
		"cluster.files_staged":   float64(out.filesStaged),
		"core.exchange_events":   float64(out.report.ExchangeEvents),
		"sim.virtual_makespan_s": out.report.Makespan(),
	}
}

// ---------------------------------------------------------------------------
// virt_tsu1024_window_ckpt

func prepareTSU(seed int64, sz sizes) (unitFunc, error) {
	temps := core.GeometricTemperatures(273, 373, sz.TSU[0])
	salts := make([]float64, sz.TSU[1])
	for i := range salts {
		salts[i] = 0.1 + 0.3*float64(i)
	}
	windows := core.UniformWindows(sz.TSU[2])
	machine := cluster.SuperMIC()
	machine.ExecJitter = 0.05
	newSpec := func() *core.Spec {
		return &core.Spec{
			Name: "virt_tsu1024_window_ckpt",
			Dims: []core.Dimension{
				{Type: exchange.Temperature, Values: append([]float64(nil), temps...)},
				{Type: exchange.Salt, Values: append([]float64(nil), salts...)},
				{Type: exchange.Umbrella, Values: append([]float64(nil), windows...), Torsion: "phi", K: core.UmbrellaK002},
			},
			Pattern:         core.PatternAsynchronous,
			Trigger:         core.NewWindowTrigger(100, 0),
			CoresPerReplica: 1,
			StepsPerCycle:   virtSteps,
			Cycles:          sz.TSUCycles,
			Seed:            seed,
			SnapshotEvery:   sz.TSUSnapEvery,
		}
	}
	return func(tr *tracer) (res unitResult, err error) {
		t0 := time.Now()
		dir, err := os.MkdirTemp("", "repexbench-ckpt-")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		layer := map[string]float64{}

		// observe attaches every observer the registry attaches to a run,
		// plus the checkpoint hook cmd/repex and repexd install.
		var hookErr error
		var encode, write, encState time.Duration
		var snapBytes, snaps int
		observe := func(spec *core.Spec) (*analysis.Collector, *trace.Recorder) {
			spec.Bus = core.NewBus()
			col := analysis.New(analysis.ConfigFromSpec(spec))
			col.Attach(spec.Bus, analysis.RunBuffer(spec))
			rec := trace.New(1 << 15)
			spec.Tracer = rec
			spec.OnSnapshot = func(sn *core.Snapshot) {
				h0 := time.Now()
				state, err := col.EncodeState()
				h1 := time.Now()
				sn.Analysis = state
				var data []byte
				if err == nil {
					data, err = sn.Encode()
				}
				h2 := time.Now()
				if err == nil {
					err = ckpt.WriteAtomic(filepath.Join(dir, fmt.Sprintf("ckpt-%04d.json", sn.Events)), data)
				}
				h3 := time.Now()
				if err != nil && hookErr == nil {
					hookErr = err
				}
				encState += h1.Sub(h0)
				encode += h2.Sub(h1)
				write += h3.Sub(h2)
				snapBytes += len(data)
				snaps++
				if tr != nil {
					tr.done(&tr.callback, "snapshot_hook", trackCore, h0)
				}
			}
			return col, rec
		}
		// ingest drains the collector the way a final report or scrape
		// does and checks it saw every exchange event.
		var syncBusy time.Duration
		ingest := func(col *analysis.Collector, rep *core.Report) (analysis.Stats, error) {
			s0 := time.Now()
			stats := col.Snapshot()
			syncBusy += time.Since(s0)
			tr.note("analysis.Snapshot", trackUnit, s0)
			if stats.Events != rep.ExchangeEvents {
				return stats, fmt.Errorf("collector saw %d exchange events, report has %d", stats.Events, rep.ExchangeEvents)
			}
			return stats, nil
		}

		// First half: the uninterrupted run, checkpointing as it goes.
		spec := newSpec()
		col, rec := observe(spec)
		full, err := runVirtual(spec, machine, sz.TSUCores, seed, tr)
		if err != nil {
			return res, err
		}
		stats, err := ingest(col, full.report)
		if err != nil {
			return res, err
		}
		layer["analysis.events_ingested"] = float64(stats.Events + stats.MDSegments)
		layer["core.bus_published"] = float64(spec.Bus.Published())

		// Second half: load the mid-run checkpoint and run it to the end.
		l0 := time.Now()
		data, err := ckpt.Load(filepath.Join(dir, fmt.Sprintf("ckpt-%04d.json", sz.TSUResumeEvent)))
		l1 := time.Now()
		if err != nil {
			return res, err
		}
		snap, err := core.DecodeSnapshot(data)
		l2 := time.Now()
		if err != nil {
			return res, err
		}
		spec2 := newSpec()
		col2, rec2 := observe(spec2)
		l3 := time.Now()
		if err := col2.Restore(snap.Analysis); err != nil {
			return res, err
		}
		l4 := time.Now()
		tr.note("resume: load, decode, restore", trackUnit, l0)
		spec2.Resume = snap
		resumed, err := runVirtual(spec2, machine, sz.TSUCores, seed, tr)
		if err != nil {
			return res, err
		}
		if _, err := ingest(col2, resumed.report); err != nil {
			return res, err
		}
		if hookErr != nil {
			return res, fmt.Errorf("checkpoint hook: %w", hookErr)
		}
		// Harness-side time that already has a named layer.
		outside := l1.Sub(l0) + l2.Sub(l1) + l4.Sub(l3) + syncBusy
		wall := time.Since(t0)
		tr.note("unit", trackUnit, t0)

		nd := len(spec.Dims)
		a, b := statsOf(full.report, nd, true), statsOf(resumed.report, nd, true)
		res = unitResult{
			Wall:        wall,
			Completions: a.Completions + b.Completions,
			Attempted:   a.Completions + b.Completions,
			Failed:      a.Dropped + b.Dropped,
			Utilization: a.Utilization,
			RunMs:       []float64{ms(wall)},
			Outputs:     map[string]simStats{"uninterrupted": a, "resumed": b},
			Layer:       layer,
		}
		for k, v := range virtLayers(full) {
			layer[k] = v
		}
		layer["pilot.units_done"] += float64(resumed.unitsDone)
		layer["cluster.files_staged"] += float64(resumed.filesStaged)
		layer["core.snapshot_encode_ms"] = ms(encode) / float64(snaps)
		layer["core.snapshot_bytes"] = float64(snapBytes) / float64(snaps)
		layer["ckpt.write_ms"] = ms(write) / float64(snaps)
		layer["analysis.encode_state_ms"] = ms(encState) / float64(snaps)
		layer["ckpt.load_ms"] = ms(l1.Sub(l0))
		layer["core.snapshot_decode_ms"] = ms(l2.Sub(l1))
		layer["analysis.restore_ms"] = ms(l4.Sub(l3))
		layer["core.resume_new_ms"] = ms(resumed.newSpan)
		layer["analysis.sync_busy_s"] = syncBusy.Seconds()
		layer["trace.spans_recorded"] = float64(rec.Recorded() + rec2.Recorded())
		layer["trace.spans_dropped"] = float64(rec.Dropped() + rec2.Dropped())
		coreLayers(layer, tr, "pilot", full.coreSpan+resumed.coreSpan, wall, outside)
		if tr != nil {
			// The flight recorder's export is what GET /trace pays; it is
			// timed after the unit so the traced wall stays comparable.
			e0 := time.Now()
			if _, err := rec.ExportJSON(); err != nil {
				return res, err
			}
			layer["trace.export_ms"] = ms(time.Since(e0))
		}
		return res, nil
	}, nil
}

// ---------------------------------------------------------------------------
// local_tu16_real

func prepareLocal(seed int64, sz sizes) (unitFunc, error) {
	temps := core.GeometricTemperatures(273, 373, sz.TUWindows)
	windows := core.UniformWindows(sz.TUWindows)
	return func(tr *tracer) (unitResult, error) {
		t0 := time.Now()
		// The engine (topology, minimisation) is built per run, as
		// repex.RunLocal does.
		dip, err := repex.NewDipeptideEngine("amber", seed)
		if err != nil {
			return unitResult{}, err
		}
		atoms := dip.System().Top.N()
		var eng core.Engine = dip
		var rt task.Runtime = localexec.New(2)
		spec := &core.Spec{
			Name: "local_tu16_real",
			Dims: []core.Dimension{
				{Type: exchange.Temperature, Values: append([]float64(nil), temps...)},
				{Type: exchange.Umbrella, Values: append([]float64(nil), windows...), Torsion: "phi", K: core.UmbrellaK002},
			},
			Pattern:         core.PatternSynchronous,
			Trigger:         core.NewBarrierTrigger(),
			CoresPerReplica: 1,
			StepsPerCycle:   sz.TUSteps,
			Cycles:          sz.TUCycles,
			Seed:            seed,
		}
		if tr != nil {
			rt = traceRuntime(rt, tr)
			eng = traceEngine(eng, tr)
			spec.Trigger = traceTrigger(spec.Trigger, tr)
		}
		c0 := time.Now()
		simu, err := core.New(spec, eng, rt)
		if err != nil {
			return unitResult{}, err
		}
		rep, err := simu.Run()
		if err != nil {
			return unitResult{}, err
		}
		coreSpan := time.Since(c0)
		tr.note("core", trackCore, c0)
		wall := time.Since(t0)
		tr.note("unit", trackUnit, t0)
		for _, r := range simu.Replicas() {
			if math.IsNaN(r.Energy) || math.IsInf(r.Energy, 0) {
				return unitResult{}, fmt.Errorf("replica %d ended with energy %v", r.ID, r.Energy)
			}
		}
		st := statsOf(rep, 2, false)
		res := unitResult{
			Wall:        wall,
			Completions: st.Completions,
			Attempted:   sz.TUWindows * sz.TUWindows * sz.TUCycles * 2,
			Failed:      st.Dropped,
			Utilization: rep.Utilization(),
			RunMs:       []float64{ms(wall)},
			Outputs:     map[string]simStats{"run": st},
			Layer:       map[string]float64{"core.exchange_events": float64(rep.ExchangeEvents)},
		}
		coreLayers(res.Layer, tr, "localexec", coreSpan, wall, 0)
		if tr != nil {
			steps := float64(tr.mdSteps.Load())
			res.Layer["md.task_run_s"] = tr.taskRun.seconds()
			res.Layer["md.steps"] = steps
			res.Layer["md.ns_per_atom_step"] = tr.taskRun.seconds() * 1e9 / (steps * float64(atoms))
		}
		return res, nil
	}, nil
}

// ---------------------------------------------------------------------------
// repexd_http_2c

// launchBody is the POST /runs body of one launch.
func launchBody(rungs, cycles int, seed int64) []byte {
	return []byte(fmt.Sprintf(`{"sim":{"name":"bench-%d","engine":"amber","atoms":%d,`+
		`"dimensions":[{"type":"T","count":%d,"min":273,"max":373}],"trigger":"window",`+
		`"async_window_sec":100,"cores_per_replica":1,"steps_per_cycle":%d,"cycles":%d,"seed":%d},`+
		`"res":{"machine":"supermic","pilot_cores":%d}}`,
		seed, virtAtoms, rungs, virtSteps, cycles, seed, rungs))
}

// httpSample is what one client measured for one launch.
type httpSample struct {
	id                                string
	launch, toDone, scrape, stats     time.Duration
	sseEvents, sseBytes, metricsBytes int
	errors                            int
}

func prepareHTTP(seed int64, sz sizes) (unitFunc, error) {
	bodies := make([][][]byte, httpClients)
	for c := range bodies {
		bodies[c] = make([][]byte, sz.HTTPLaunches)
		for i := range bodies[c] {
			bodies[c][i] = launchBody(sz.HTTPRungs, sz.HTTPCycles, seed*1000+int64(c*100+i+1))
		}
	}
	return func(tr *tracer) (unitResult, error) {
		t0 := time.Now()
		// One session: the handler cmd/repexd mounts, on a loopback
		// listener, logger discarded.
		reg := serve.NewRegistry(0, 0)
		reg.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
		srv := httptest.NewServer(reg.Handler())
		defer srv.Close()

		samples := make([][]httpSample, httpClients)
		errs := make([]error, httpClients)
		var wg sync.WaitGroup
		for c := 0; c < httpClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
				defer client.CloseIdleConnections()
				for _, body := range bodies[c] {
					s, err := launchCycle(client, srv.URL, body, tr, trackClient0+c)
					if err != nil {
						errs[c] = err
						return
					}
					samples[c] = append(samples[c], s)
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(t0)
		tr.note("unit", trackUnit, t0)
		for _, err := range errs {
			if err != nil {
				return unitResult{}, err
			}
		}

		res := unitResult{Wall: wall, Outputs: map[string]simStats{}, Layer: map[string]float64{}}
		var launch, toDone, scrape, stats []float64
		var ids []string
		util := 0.0
		for c := range samples {
			for i, s := range samples[c] {
				ids = append(ids, s.id)
				launch = append(launch, ms(s.launch))
				toDone = append(toDone, ms(s.toDone))
				scrape = append(scrape, ms(s.scrape))
				stats = append(stats, ms(s.stats))
				res.Layer["serve.sse_events"] += float64(s.sseEvents)
				res.Layer["serve.sse_bytes"] += float64(s.sseBytes)
				res.Layer["serve.http_errors"] += float64(s.errors)
				res.Layer["serve.metrics_bytes"] = math.Max(res.Layer["serve.metrics_bytes"], float64(s.metricsBytes))
				// The run's own outputs, read back from the registry: every
				// run must have ended completed, and its simulated
				// statistics must repeat like any virtual run's.
				res.Attempted++
				res.Failed += s.errors
				run, ok := reg.Get(s.id)
				if !ok {
					return res, fmt.Errorf("run %s vanished from the registry", s.id)
				}
				rep, err := run.Result()
				if err != nil || run.State() != core.RunCompleted {
					res.Failed++
					continue
				}
				st := statsOf(rep, 1, true)
				res.Outputs[fmt.Sprintf("client%d.launch%d", c, i)] = st
				res.Completions += st.Completions
				res.Failed += st.Dropped
				util += st.Utilization
			}
		}
		res.Utilization = util / float64(len(ids))
		res.RunMs = toDone
		res.Layer["serve.launch_ms_p50"] = median(launch)
		res.Layer["serve.launch_to_done_ms_p75"] = percentile(toDone, 75)
		res.Layer["serve.stats_ms_p50"] = median(stats)
		res.Layer["serve.scrape_ms_p50"] = median(scrape)
		res.Layer["serve.scrape_ms_p90"] = percentile(scrape, 90)

		// Output check on the full run table: the aggregate scrape parses
		// as Prometheus text and carries a series for every run.
		body, code, err := httpGet(http.DefaultClient, srv.URL+"/metrics")
		if err != nil {
			return res, err
		}
		if code != http.StatusOK {
			return res, fmt.Errorf("final GET /metrics: status %d", code)
		}
		if err := checkExposition(body, ids); err != nil {
			return res, err
		}
		return res, nil
	}, nil
}

// launchCycle is one closed-loop iteration of a client: launch a run,
// follow its event stream to the done event, scrape the aggregate
// metrics, read the run's stats.
func launchCycle(client *http.Client, base string, body []byte, tr *tracer, track int) (httpSample, error) {
	var s httpSample
	t0 := time.Now()
	resp, err := client.Post(base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return s, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return s, err
	}
	s.launch = time.Since(t0)
	tr.note("POST /runs", track, t0)
	if resp.StatusCode != http.StatusCreated {
		return s, fmt.Errorf("POST /runs: status %d: %s", resp.StatusCode, reply)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(reply, &st); err != nil || st.ID == "" {
		return s, fmt.Errorf("POST /runs: no run id in %q", reply)
	}
	s.id = st.ID

	e0 := time.Now()
	resp, err = client.Get(base + "/runs/" + s.id + "/events")
	if err != nil {
		return s, err
	}
	done, err := readSSE(resp.Body, &s)
	resp.Body.Close()
	if err != nil {
		return s, err
	}
	s.toDone = time.Since(t0)
	tr.note("GET /runs/{id}/events", track, e0)
	if resp.StatusCode != http.StatusOK || !done {
		return s, fmt.Errorf("run %s: event stream ended without a done event (status %d)", s.id, resp.StatusCode)
	}

	m0 := time.Now()
	metrics, code, err := httpGet(client, base+"/metrics")
	if err != nil {
		return s, err
	}
	s.scrape = time.Since(m0)
	tr.note("GET /metrics", track, m0)
	s.metricsBytes = len(metrics)
	if code != http.StatusOK || !bytes.Contains(metrics, []byte(`run="`+s.id+`"`)) {
		s.errors++
	}

	s0 := time.Now()
	_, code, err = httpGet(client, base+"/runs/"+s.id+"/stats")
	if err != nil {
		return s, err
	}
	s.stats = time.Since(s0)
	tr.note("GET /runs/{id}/stats", track, s0)
	if code != http.StatusOK {
		s.errors++
	}
	return s, nil
}

func httpGet(client *http.Client, url string) ([]byte, int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// readSSE consumes a server-sent event stream to its end, counting
// events and bytes, and reports whether the last event was "done".
func readSSE(r io.Reader, s *httpSample) (done bool, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		line, err := br.ReadSlice('\n')
		s.sseBytes += len(line)
		if bytes.HasPrefix(line, []byte("event: ")) {
			s.sseEvents++
			done = bytes.Equal(bytes.TrimSpace(line), []byte("event: done"))
		}
		switch err {
		case nil, bufio.ErrBufferFull:
		case io.EOF:
			return done, nil
		default:
			return done, err
		}
	}
}

// checkExposition verifies that body parses as Prometheus text
// exposition and contains at least one run="<id>" series for every id.
func checkExposition(body []byte, ids []string) error {
	seen := map[string]bool{}
	for n, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return fmt.Errorf("metrics line %d has no value: %q", n+1, line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			return fmt.Errorf("metrics line %d: bad value: %q", n+1, line)
		}
		series := line[:sp]
		name, labels, hasLabels := strings.Cut(series, "{")
		if name == "" || strings.ContainsAny(name, " \"=,}") || (hasLabels && !strings.HasSuffix(labels, "}")) {
			return fmt.Errorf("metrics line %d: malformed series %q", n+1, series)
		}
		if i := strings.Index(labels, `run="`); i >= 0 {
			id, _, _ := strings.Cut(labels[i+len(`run="`):], `"`)
			seen[id] = true
		}
	}
	for _, id := range ids {
		if !seen[id] {
			return fmt.Errorf("aggregate /metrics has no run=%q series", id)
		}
	}
	return nil
}
