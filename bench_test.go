package repex

// One testing.B benchmark per table and figure of the paper's evaluation
// (Section 4), plus ablation benchmarks for the design decisions called
// out in DESIGN.md. Each figure benchmark executes the full RepEx stack
// (orchestrator, engine adapter, pilot runtime, cluster model) in quick
// mode; `go run ./cmd/experiments` regenerates the full-scale artefacts.

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/ring"
	"repro/internal/trace"
)

func BenchmarkFig04Validation(b *testing.B) {
	opts := bench.DefaultValidationOptions()
	opts.TWindows, opts.UWindows = 2, 4
	opts.StepsPerCycle, opts.Cycles = 100, 2
	opts.Bins = 16
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		if _, _, err := bench.Fig4Validation(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig05Overheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Fig5Overheads(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06Weak1D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Fig6Weak1D(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig07Efficiency1D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Fig7Efficiency1D(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig08NAMD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Fig8NAMD(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig09WeakTSU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Fig9WeakTSU(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10StrongTSU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Fig10StrongTSU(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11EfficiencyTSU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Fig11EfficiencyTSU(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12MultiCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Fig12MultiCore(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Fig13Utilization(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTab01Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := bench.Table1Comparison()
		if len(tbl.Rows) != 8 {
			b.Fatal("table incomplete")
		}
	}
}

// --- Ablation benchmarks (design decisions from DESIGN.md) ---

// tremdSpec builds a small T-REMD workload for ablations.
func ablationSpec(n, cycles int, pattern Pattern, window float64) *Spec {
	return &Spec{
		Name:            "ablation",
		Dims:            []Dimension{{Type: Temperature, Values: GeometricTemperatures(273, 373, n)}},
		Pattern:         pattern,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          cycles,
		AsyncWindow:     window,
		Seed:            7,
	}
}

// BenchmarkAblationModeIIBatchRatio sweeps the paper's geometric
// core-to-replica ratios (1, 1/2, 1/4, 1/8, 1/16) and reports the cycle
// time of each, quantifying the cost of Execution Mode II batching.
func BenchmarkAblationModeIIBatchRatio(b *testing.B) {
	const replicas = 128
	for i := 0; i < b.N; i++ {
		prev := 0.0
		for _, denom := range []int{1, 2, 4, 8, 16} {
			rep, err := RunVirtual(ablationSpec(replicas, 2, PatternSynchronous, 0),
				SuperMIC(), replicas/denom, AmberSander, 2881, int64(denom))
			if err != nil {
				b.Fatal(err)
			}
			ct := rep.AvgCycleTime()
			if ct <= prev {
				b.Fatalf("cycle time %v did not grow at ratio 1/%d", ct, denom)
			}
			prev = ct
			b.ReportMetric(ct, "cycle_s/ratio_1_"+itoa(denom))
		}
	}
}

// BenchmarkAblationSyncVsAsync compares the utilization of the two RE
// patterns on identical workloads (the barrier-cost ablation).
func BenchmarkAblationSyncVsAsync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := SuperMIC()
		cfg.ExecJitter = 0.06
		syncRep, err := RunVirtual(ablationSpec(64, 3, PatternSynchronous, 0), cfg, 64, AmberSander, 2881, 1)
		if err != nil {
			b.Fatal(err)
		}
		asyncRep, err := RunVirtual(ablationSpec(64, 3, PatternAsynchronous, 100), cfg, 64, AmberSander, 2881, 1)
		if err != nil {
			b.Fatal(err)
		}
		if syncRep.Utilization() <= asyncRep.Utilization() {
			b.Fatal("sync barrier lost its utilization advantage")
		}
		b.ReportMetric(100*syncRep.Utilization(), "sync_util_%")
		b.ReportMetric(100*asyncRep.Utilization(), "async_util_%")
	}
}

// BenchmarkAblationAsyncWindow sweeps the asynchronous real-time window,
// showing the utilization cost of coarser windows.
func BenchmarkAblationAsyncWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range []float64{30, 60, 120, 240} {
			cfg := SuperMIC()
			cfg.ExecJitter = 0.06
			rep, err := RunVirtual(ablationSpec(48, 3, PatternAsynchronous, w), cfg, 48, AmberSander, 2881, 3)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*rep.Utilization(), "util_%_w"+ftoa(w))
		}
	}
}

// benchDispatcher runs the per-completion dispatcher workload: b.N full
// virtual runs at the given replica count, reporting wall time, heap
// bytes and allocations divided by the number of MD completions. The
// memory columns make scratch-reuse regressions (per-event grouping or
// exchange-phase allocations) visible without a profiler.
func benchDispatcher(b *testing.B, replicas int, machine cluster.Config, trigger func() Trigger) {
	b.Helper()
	completions := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := ablationSpec(replicas, 2, PatternAsynchronous, 100)
		spec.Trigger = trigger()
		machine.ExecJitter = 0.05
		rep, err := RunVirtual(spec, machine, replicas, AmberSander, 2881, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if rep.ExchangeEvents == 0 {
			b.Fatal("no exchange events fired")
		}
		for _, rec := range rep.Records {
			completions += rec.MD.Tasks
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if completions > 0 {
		n := float64(completions)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/completion")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/completion")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/completion")
	}
}

// BenchmarkDispatcher measures the event-driven dispatcher's cost per MD
// completion under the three trigger families (barrier, window, count)
// from 64 up to 4096 virtual replicas (the SuperMIC-scale leg of the
// scaling gate; cmd/benchcheck holds the 4096/256 ns-per-completion
// ratio below a bound so super-linear growth in the hot loop fails CI),
// and under the barrier at 16 384 replicas on Stampede, past SuperMIC's
// 7 200 cores (held against the 4096 leg the same way).
// The whole stack runs in virtual time, so wall time divided by the
// number of MD completions tracks the orchestrator's per-event overhead
// across the perf trajectory.
func BenchmarkDispatcher(b *testing.B) {
	cases := []struct {
		name    string
		trigger func() Trigger
	}{
		{"barrier", func() Trigger { return NewBarrierTrigger() }},
		{"window", func() Trigger { return NewWindowTrigger(100, 0) }},
		{"count", func() Trigger { return NewCountTrigger(8) }},
	}
	for _, replicas := range []int{64, 256, 1024, 4096} {
		for _, tc := range cases {
			b.Run(itoa(replicas)+"/"+tc.name, func(b *testing.B) {
				benchDispatcher(b, replicas, SuperMIC(), tc.trigger)
			})
		}
	}
	b.Run("16384/barrier", func(b *testing.B) {
		benchDispatcher(b, 16384, Stampede(), func() Trigger { return NewBarrierTrigger() })
	})
}

// BenchmarkDispatcher64K is the Stampede-scale leg: 65536 virtual
// replicas, the paper's headline O(10^4)-replica regime, about a second
// per iteration. The CI gate runs the barrier leg at 1x and holds its
// per-completion cost below 1.8 times the 4096-replica leg's.
func BenchmarkDispatcher64K(b *testing.B) {
	b.Run("65536/barrier", func(b *testing.B) {
		benchDispatcher(b, 65536, Stampede(), func() Trigger { return NewBarrierTrigger() })
	})
}

// BenchmarkDispatcherBus measures the same per-completion dispatcher
// cost with the observability subsystem fully attached: the event bus
// publishing every MD/exchange/fault record, an online
// analysis.Collector consuming them, and a deliberately stalled
// subscriber (tiny never-drained ring) riding along. The delta against
// BenchmarkDispatcher's window case is the bus overhead; the acceptance
// gate for this subsystem is < 5% per completion.
func BenchmarkDispatcherBus(b *testing.B) {
	for _, replicas := range []int{64, 256} {
		b.Run(itoa(replicas)+"/window", func(b *testing.B) {
			completions := 0
			dropped := uint64(0)
			for i := 0; i < b.N; i++ {
				spec := ablationSpec(replicas, 2, PatternAsynchronous, 100)
				spec.Trigger = NewWindowTrigger(100, 0)
				spec.Bus = NewBus()
				col := analysis.New(analysis.ConfigFromSpec(spec))
				col.Attach(spec.Bus, 1<<12)
				stalled := spec.Bus.Subscribe(8)
				cfg := SuperMIC()
				cfg.ExecJitter = 0.05
				rep, err := RunVirtual(spec, cfg, replicas, AmberSander, 2881, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				stats := col.Snapshot()
				if stats.Events != rep.ExchangeEvents {
					b.Fatalf("collector saw %d events, report %d", stats.Events, rep.ExchangeEvents)
				}
				dropped += stalled.Dropped()
				for _, rec := range rep.Records {
					completions += rec.MD.Tasks
				}
			}
			if dropped == 0 {
				b.Fatal("stalled subscriber dropped nothing: the non-blocking path was not exercised")
			}
			if completions > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(completions), "ns/completion")
			}
		})
	}
}

// BenchmarkDispatcherTrace measures the same per-completion dispatcher
// cost with the flight recorder attached on top of the full
// BenchmarkDispatcherBus observability stack (bus, collector, stalled
// subscriber). The delta against BenchmarkDispatcherBus's legs is the
// recorder overhead; the ratio gate in BENCH_baseline.json holds it
// below 5% per completion.
func BenchmarkDispatcherTrace(b *testing.B) {
	for _, replicas := range []int{64, 256} {
		b.Run(itoa(replicas)+"/window", func(b *testing.B) {
			completions := 0
			// One ring for the whole leg, as in a real run (a run
			// allocates its recorder once); the loop measures the
			// per-span recording cost, not ring construction.
			rec := trace.New(1 << 15)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spec := ablationSpec(replicas, 2, PatternAsynchronous, 100)
				spec.Trigger = NewWindowTrigger(100, 0)
				spec.Bus = NewBus()
				spec.Tracer = rec
				col := analysis.New(analysis.ConfigFromSpec(spec))
				col.Attach(spec.Bus, 1<<12)
				cfg := SuperMIC()
				cfg.ExecJitter = 0.05
				rep, err := RunVirtual(spec, cfg, replicas, AmberSander, 2881, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				if rep.ExchangeEvents == 0 {
					b.Fatal("no exchange events fired")
				}
				for _, r := range rep.Records {
					completions += r.MD.Tasks
				}
			}
			if rec.Recorded() == 0 {
				b.Fatal("flight recorder recorded nothing: the traced path was not exercised")
			}
			if completions > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(completions), "ns/completion")
			}
		})
	}
}

// BenchmarkAblationStagingFS compares staging through the shared
// filesystem's serialized metadata server against an idealised
// node-local scratch (zero metadata latency): the paper's data-time
// component disappears.
func BenchmarkAblationStagingFS(b *testing.B) {
	run := func(meta float64, seed int64) *Report {
		cfg := SuperMIC()
		cfg.FS.MetaLatency = meta
		rep, err := RunVirtual(ablationSpec(128, 2, PatternSynchronous, 0), cfg, 128, AmberSander, 2881, seed)
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	for i := 0; i < b.N; i++ {
		shared := run(SuperMIC().FS.MetaLatency, int64(i))
		local := run(0, int64(i))
		ds, dl := shared.Decompose(), local.Decompose()
		if ds.TData <= dl.TData {
			b.Fatal("shared-FS staging not slower than node-local scratch")
		}
		b.ReportMetric(ds.TData, "tdata_shared_s")
		b.ReportMetric(dl.TData, "tdata_local_s")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func ftoa(v float64) string { return itoa(int(v)) }

// Compile-time checks that the ablations use the intended backends.
var (
	_ = cluster.Stampede
	_ = engines.SanderModel
	_ core.Engine
)

// codecFixture builds the checkpoint of a 16x8x8 run after the given
// number of exchange events without running it (codecFixtureOf).
func codecFixture(events int) (*core.Snapshot, *analysis.Collector) {
	return codecFixtureOf([]int{16, 8, 8}, events)
}

// codecFixtureOf builds the checkpoint of a run of the given 3-D shape
// after the given number of exchange events without running it: a
// snapshot whose slot history is one shuffled permutation per event,
// and a collector that was fed those events.
func codecFixtureOf(shape []int, events int) (*core.Snapshot, *analysis.Collector) {
	replicas := shape[0] * shape[1] * shape[2]
	rng := rand.New(rand.NewSource(19))
	col := analysis.New(analysis.Config{DimSizes: shape, Replicas: replicas})
	sn := &core.Snapshot{
		Version: core.SnapshotVersion, Name: "codec-fixture", Trigger: "window",
		Events: events, Elapsed: 1e4 * rng.Float64(), RNGDraws: 1 << 20, EngineDraws: 1 << 22,
		SlotRows: events, SlotFingerprint: rng.Uint64(), MDExecCoreSeconds: 1e6 * rng.Float64(),
	}
	slots := rng.Perm(replicas)
	for e := 0; e < events; e++ {
		dim := e % 3
		pairs := make([]core.PairOutcome, 0, 8)
		for lo := e % 2; lo+1 < shape[dim]; lo += 2 {
			pairs = append(pairs, core.PairOutcome{Lo: lo, Hi: lo + 1, Accepted: rng.Intn(3) == 0})
		}
		for i := 0; i < replicas/4; i++ {
			a, b := rng.Intn(replicas), rng.Intn(replicas)
			slots[a], slots[b] = slots[b], slots[a]
		}
		row := append([]int(nil), slots...)
		sn.SlotHistory = append(sn.SlotHistory, row)
		col.Apply(core.ExchangeEvent{Event: e, Dim: dim, Pairs: pairs, Slots: row, EXWall: 30 * rng.Float64()})
		col.Apply(core.MDEvent{Replica: e, Exec: 140 * rng.Float64()})
	}
	for id, slot := range slots {
		e := -2500 * rng.Float64()
		sn.Replicas = append(sn.Replicas, core.ReplicaState{
			ID: id, Slot: slot, Cycle: events / 3, Energy: e, Synth: []float64{0, e + 2500}, Alive: true,
		})
	}
	return sn, col
}

// refCollectorState mirrors the JSON layout of the collector state for
// the encoding/json reference legs of BenchmarkSnapshotCodec (the
// collector's own state type is unexported).
type refCollectorState struct {
	Events      int                   `json:"events"`
	MDSegments  int                   `json:"md_segments"`
	MDFailures  int                   `json:"md_failures"`
	Faults      map[string]uint64     `json:"faults"`
	Pairs       [][]analysis.PairStat `json:"pairs"`
	PairWindows [][]ring.Bool         `json:"pair_windows,omitempty"`
	Walks       []struct {
		Slot       int   `json:"slot"`
		StartEnd   int   `json:"start_end"`
		StartAt    int   `json:"start_at"`
		Armed      bool  `json:"armed,omitempty"`
		SeenBottom bool  `json:"seen_bottom,omitempty"`
		SeenTop    bool  `json:"seen_top,omitempty"`
		RoundTrips int   `json:"round_trips,omitempty"`
		TripEvents int   `json:"trip_events,omitempty"`
		Trace      []int `json:"trace,omitempty"`
	} `json:"walks"`
	MDExec      analysis.Histogram `json:"md_exec"`
	ExchangeOvh analysis.Histogram `json:"exchange_overhead"`
}

// BenchmarkSnapshotCodec times the four codec operations of the
// checkpoint path on a 1024-replica, 64-event checkpoint, each beside
// the same operation through encoding/json's reflection codec (the
// _ref legs: MarshalIndent and Unmarshal, what the path used before).
// scripts/ci/bench_gate.sh gates each pair's ratio, not its ns.
func BenchmarkSnapshotCodec(b *testing.B) {
	sn, col := codecFixture(64)
	stateData, err := col.EncodeState()
	if err != nil {
		b.Fatal(err)
	}
	sn.Analysis = stateData
	data, err := sn.Encode()
	if err != nil {
		b.Fatal(err)
	}
	var refState refCollectorState
	if err := json.Unmarshal(stateData, &refState); err != nil {
		b.Fatal(err)
	}
	fresh := analysis.New(analysis.Config{DimSizes: []int{16, 8, 8}, Replicas: len(sn.Replicas)})
	legs := []struct {
		name  string
		bytes int
		op    func() error
	}{
		{"encode", len(data), func() error { _, err := sn.Encode(); return err }},
		{"encode_ref", len(data), func() error { _, err := json.MarshalIndent(sn, "", " "); return err }},
		{"decode", len(data), func() error { _, err := core.DecodeSnapshot(data); return err }},
		{"decode_ref", len(data), func() error { return json.Unmarshal(data, new(core.Snapshot)) }},
		{"state_encode", len(stateData), func() error { _, err := col.EncodeState(); return err }},
		{"state_encode_ref", len(stateData), func() error { _, err := json.Marshal(&refState); return err }},
		{"state_restore", len(stateData), func() error { return fresh.Restore(stateData) }},
		{"state_restore_ref", len(stateData), func() error { return json.Unmarshal(stateData, new(refCollectorState)) }},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			b.SetBytes(int64(leg.bytes))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := leg.op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
