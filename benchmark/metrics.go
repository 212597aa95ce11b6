package main

import (
	"math"
	"sort"
)

// metricDef declares one benchmark metric. BENCHMARK.json at the repo
// root lists exactly these names (a test holds the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
	// Best makes a run report its best unit instead of the median over
	// its units. Wall-clock metrics use it: on a shared host a neighbour
	// can only ever slow a unit down, for seconds to minutes at a time,
	// so the fastest unit of a run repeats from run to run far better
	// than the typical one (measured: about half the spread).
	Best bool `json:"-"`
}

// estimate reduces a run's per-unit samples to the value it reports.
func (d metricDef) estimate(samples []float64) float64 {
	if !d.Best || len(samples) == 0 {
		return median(samples)
	}
	s := sorted(samples)
	if d.Better == "higher" {
		return s[len(s)-1]
	}
	return s[0]
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Bound is the share of the baseline's median by which the
// metric may worsen before a change counts as a regression.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "completions_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Best: true},
	{Name: "run_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Best: true},
	{Name: "allocs_per_completion", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "utilization", Unit: "ratio", Better: "higher", Bound: 0.05},
}

// perLayer are the single-layer metrics of the traced pass: first the
// numbers the benchmark-owned wrappers collect inside the workloads,
// then the isolated probes. They carry no bound.
var perLayer = []metricDef{
	// Wrappers around task.Runtime.
	{Name: "pilot.runtime_busy_s", Unit: "s", Better: "lower"},
	{Name: "pilot.runtime_calls", Unit: "count", Better: "lower"},
	{Name: "pilot.runtime_share", Unit: "ratio", Better: "lower"},
	{Name: "localexec.runtime_busy_s", Unit: "s", Better: "lower"},
	// Wrappers around core.Engine.
	{Name: "engines.busy_s", Unit: "s", Better: "lower"},
	{Name: "engines.calls", Unit: "count", Better: "lower"},
	{Name: "engines.cross_energy_s", Unit: "s", Better: "lower"},
	{Name: "md.task_run_s", Unit: "s", Better: "lower"},
	{Name: "md.steps", Unit: "count", Better: "higher"},
	{Name: "md.ns_per_atom_step", Unit: "ns", Better: "lower"},
	// Wrappers around core.Trigger.
	{Name: "core.trigger_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.trigger_calls", Unit: "count", Better: "lower"},
	// What is left of the core span, and of the unit, after its children.
	{Name: "core.self_s", Unit: "s", Better: "lower"},
	{Name: "core.self_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.harness_s", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	// Snapshot hook and resume path.
	{Name: "core.snapshot_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "core.snapshot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "core.snapshot_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "core.resume_new_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.write_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.load_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.encode_state_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.sync_busy_s", Unit: "s", Better: "lower"},
	{Name: "analysis.events_ingested", Unit: "count", Better: "higher"},
	{Name: "core.bus_published", Unit: "count", Better: "higher"},
	{Name: "trace.spans_recorded", Unit: "count", Better: "higher"},
	{Name: "trace.spans_dropped", Unit: "count", Better: "lower"},
	{Name: "trace.export_ms", Unit: "ms", Better: "lower"},
	// Exact counts through public accessors.
	{Name: "pilot.units_done", Unit: "count", Better: "higher"},
	{Name: "pilot.units_failed", Unit: "count", Better: "lower"},
	{Name: "cluster.files_staged", Unit: "count", Better: "lower"},
	{Name: "core.exchange_events", Unit: "count", Better: "higher"},
	{Name: "sim.virtual_makespan_s", Unit: "s", Better: "lower"},
	// Client-side view of the control plane.
	{Name: "serve.launch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.launch_to_done_ms_p75", Unit: "ms", Better: "lower"},
	{Name: "serve.stats_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.scrape_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.scrape_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "serve.metrics_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.sse_events", Unit: "count", Better: "higher"},
	{Name: "serve.sse_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.http_errors", Unit: "count", Better: "lower"},
	// Isolated probes.
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.resource_handoffs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cluster.stage_calls_per_s", Unit: "1/s", Better: "higher"},
	{Name: "pilot.units_per_s_mode1", Unit: "1/s", Better: "higher"},
	{Name: "pilot.units_per_s_mode2", Unit: "1/s", Better: "higher"},
	{Name: "core.null_barrier_ns_per_completion", Unit: "ns", Better: "lower"},
	{Name: "core.null_window_ns_per_completion", Unit: "ns", Better: "lower"},
	{Name: "exchange.pairs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "exchange.groups_along_ns", Unit: "ns", Better: "lower"},
	{Name: "core.bus_publish_ns", Unit: "ns", Better: "lower"},
	{Name: "analysis.apply_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.snapshot_encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.snapshot_decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "serve.metrics_render_ms_4k", Unit: "ms", Better: "lower"},
	{Name: "serve.stats_render_ms_4k", Unit: "ms", Better: "lower"},
	{Name: "trace.record_ns", Unit: "ns", Better: "lower"},
	{Name: "md.force_ns_per_atom_dipeptide", Unit: "ns", Better: "lower"},
	{Name: "md.force_ns_per_atom_lj256", Unit: "ns", Better: "lower"},
	{Name: "md.langevin_step_ns_per_atom", Unit: "ns", Better: "lower"},
	{Name: "localexec.tasks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "config.parse_launch_us", Unit: "us", Better: "lower"},
}

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the median of v (0 for no samples).
func median(v []float64) float64 { return percentile(v, 50) }

// percentile returns the p-th percentile of v by linear interpolation
// between closest ranks (0 for no samples).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// tailPercentile is the guide's rule for the tail of a timing: the
// highest of the candidate percentiles that still has at least ten
// samples beyond it, or 50 when none has.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99} {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method),
// so a spread printed here is the number the driver checks. It needs at
// least two samples.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles of v as a share of its
// median (0 with fewer than two samples or a zero median).
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(med)
}

// worsening returns by what share of the baseline value the candidate
// value is worse (negative when it is better).
func worsening(def metricDef, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (base - cand) / math.Abs(base)
	}
	return (cand - base) / math.Abs(base)
}

// Verdicts of one (metric, workload) row of a comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges one metric on one workload from both sides' reported
// values and per-unit samples: regressed when the candidate is worse by
// more than the bound; unresolved, per the guide, when either side's
// unit-to-unit spread is wider than the bound — unless every candidate
// sample reads better than every baseline sample.
func verdict(def metricDef, base, cand []float64) string {
	if len(base) == 0 || len(cand) == 0 {
		return verdictUnresolved
	}
	if spread(base) > def.Bound || spread(cand) > def.Bound {
		if allBetter(def, base, cand) {
			return verdictOK
		}
		return verdictUnresolved
	}
	if worsening(def, def.estimate(base), def.estimate(cand)) > def.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// allBetter reports whether every candidate sample reads better than
// every baseline sample.
func allBetter(def metricDef, base, cand []float64) bool {
	b, c := sorted(base), sorted(cand)
	if def.Better == "higher" {
		return c[0] > b[len(b)-1]
	}
	return c[len(c)-1] < b[0]
}
