package serve

import (
	"cmp"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/core"
)

// runView is one run's contribution to a metrics exposition: its
// collector snapshot, its status, and its rendered run label, the
// `{run="<id>"` that opens each of its samples' label sets (empty on
// the single-run server, whose samples carry no run label).
type runView struct {
	run   string
	stats analysis.Stats
	st    RunStatus
}

// daemonView is the registry's own contribution to its aggregate
// scrape: registered runs by lifecycle state and the admission pool.
type daemonView struct {
	runs                census
	poolTotal, poolUsed int
}

// family is one row of the /metrics table: a metric family and how a
// run (or, for the repexd_* rows, the daemon) emits its samples.
type family struct {
	name, help, typ string
	// soleHelp replaces help on a scrape of exactly one run.
	soleHelp func(*runView) string
	// on gates the family: it is rendered only when some run of the
	// scrape has it (nil: always), and then for every run.
	on     func(*runView) bool
	emit   func(*exposition, *runView)
	daemon func(*exposition, *daemonView)
}

func (f family) when(on func(*runView) bool) family { f.on = on; return f }

func hasFeedback(v *runView) bool { return len(v.st.Feedback) > 0 }
func hasRespace(v *runView) bool  { return v.st.Respace != nil }
func hasPilots(v *runView) bool   { return len(v.stats.PilotCores) > 0 }
func hasTrace(v *runView) bool    { return v.st.TraceCapacity > 0 }

func cumulative(v *runView) [][]analysis.PairStat { return v.stats.Acceptance }
func rolling(v *runView) [][]analysis.PairStat    { return v.stats.AcceptanceWindow }

// families is every metric family of /metrics, in exposition order.
var families = []family{
	{name: "repexd_runs", help: "Registered runs by lifecycle state.", typ: "gauge",
		daemon: func(e *exposition, d *daemonView) {
			for st, n := range d.runs {
				e.sample("", integer(n), label{"state", text(core.RunState(st).String())})
			}
		}},
	{name: "repexd_pool_cores_total", help: "Shared core-pool capacity (0: unbounded).", typ: "gauge",
		daemon: func(e *exposition, d *daemonView) { e.sample("", integer(d.poolTotal)) }},
	{name: "repexd_pool_cores_used", help: "Cores admitted to active runs.", typ: "gauge",
		daemon: func(e *exposition, d *daemonView) { e.sample("", integer(d.poolUsed)) }},

	gauge("repex_running", "1 while the simulation is executing.", func(v *runView) float64 { return oneIf(v.st.State == "running") }),
	gauge("repex_replicas", "Configured replica count.", func(v *runView) float64 { return float64(v.st.Replicas) }),
	counter("repex_exchange_events_total", "Exchange events completed.", func(v *runView) uint64 { return uint64(v.stats.Events) }),
	counter("repex_md_segments_total", "MD segments finally processed.", func(v *runView) uint64 { return uint64(v.stats.MDSegments) }),
	counter("repex_md_failures_total", "MD segments that failed terminally.", func(v *runView) uint64 { return uint64(v.stats.MDFailures) }),
	byKey("repex_fault_events_total", "Fault-handling actions by kind.", "counter", func(v *runView) map[string]uint64 { return v.st.Faults },
		func(kind string, n uint64) (label, value) { return label{"kind", text(kind)}, count(n) }),

	pairs("repex_pair_attempts_total", "Exchange attempts per neighbour pair.", "counter", cumulative, func(p analysis.PairStat) value { return count(p.Attempted) }),
	pairs("repex_pair_accepts_total", "Accepted exchanges per neighbour pair.", "counter", cumulative, func(p analysis.PairStat) value { return count(p.Accepted) }),
	pairs("repex_pair_acceptance_ratio", "Acceptance ratio per neighbour pair.", "gauge", cumulative, func(p analysis.PairStat) value { return float(p.Ratio()) }),
	windowRatio(pairs("repex_acceptance_ratio_window",
		"Acceptance ratio per neighbour pair over each run's rolling window (depth in repex_acceptance_window_events).", "gauge", rolling,
		func(p analysis.PairStat) value {
			// An empty window has no ratio: emitting 0 would trip
			// low-acceptance alerts on pairs that merely lack data. The
			// attempts gauge below conveys emptiness.
			if p.Attempted == 0 {
				return value{}
			}
			return float(p.Ratio())
		})),
	pairs("repex_acceptance_window_attempts", "Outcomes currently buffered in each pair's rolling window.", "gauge", rolling, func(p analysis.PairStat) value { return count(p.Attempted) }),
	gauge("repex_acceptance_window_events", "Configured rolling-window depth per pair.", func(v *runView) float64 { return float64(v.stats.WindowEvents) }),

	feedbackGauge("repex_feedback_saturated",
		"1 while the dimension's controller is pinned at a window clamp with the target unreachable (ladder-spacing diagnostic).",
		func(f core.FeedbackDimStatus) float64 { return oneIf(f.Saturated) }),
	feedbackGauge("repex_feedback_target", "Per-dimension acceptance set point.", func(f core.FeedbackDimStatus) float64 { return f.Target }),
	feedbackGauge("repex_feedback_acceptance_measured", "Rolling acceptance the dimension's controller currently measures.", func(f core.FeedbackDimStatus) float64 { return f.Measured }),
	feedbackGauge("repex_feedback_window_seconds", "Controlled exchange window per dimension.", func(f core.FeedbackDimStatus) float64 { return f.Window }),
	feedbackGauge("repex_feedback_min_ready", "Effective early-fire threshold per dimension (second actuator).", func(f core.FeedbackDimStatus) float64 { return float64(f.MinReady) }),
	feedbackGauge("repex_feedback_integral", "Accumulated acceptance error (I term) per dimension.", func(f core.FeedbackDimStatus) float64 { return f.Integral }),

	{name: "repex_respacings_total", help: "Online ladder re-fits applied per dimension.", typ: "counter", on: hasRespace,
		emit: func(e *exposition, v *runView) {
			if v.st.Respace == nil {
				return
			}
			for d, n := range v.st.Respace.Refits {
				e.sample("", integer(n), label{"dim", integer(d)})
			}
		}},
	{name: "repex_ladder_value", help: "Current window value per dimension slot (moves when a re-fit lands).", typ: "gauge", on: hasRespace,
		emit: func(e *exposition, v *runView) {
			if v.st.Respace == nil {
				return
			}
			for d, vals := range v.st.Respace.Ladders {
				for i, x := range vals {
					e.sample("", float(x), label{"dim", integer(d)}, label{"slot", integer(i)})
				}
			}
		}},

	counter("repex_preemptions_total", "Pilot preemption notices received.", func(v *runView) uint64 { return v.stats.Preemptions }),
	// Present only when some run published resource events (elastic
	// runtimes); a quiet run with static pilots has no pilot-core series.
	byKey("repex_pilot_cores", "Current core count per pilot slot (0 once expired).", "gauge", func(v *runView) map[int]int { return v.stats.PilotCores },
		func(slot, cores int) (label, value) { return label{"pilot", integer(slot)}, integer(cores) }).when(hasPilots),

	counter("repex_round_trips_total", "Completed ladder round trips over all replicas.", func(v *runView) uint64 { return uint64(v.stats.RoundTrips) }),
	gauge("repex_round_trip_events_mean", "Mean round-trip duration in exchange events.", func(v *runView) float64 { return v.stats.MeanRoundTripEvents }),
	gauge("repex_full_traversal_fraction", "Fraction of replicas that visited both ladder endpoints.", func(v *runView) float64 { return v.stats.FullTraversalFraction }),

	histogram("repex_md_exec_seconds", "MD segment execution time.", func(v *runView) *analysis.Histogram { return &v.stats.MDExec }),
	histogram("repex_exchange_wall_seconds", "Exchange phase wall time.", func(v *runView) *analysis.Histogram { return &v.stats.ExchangeOverhead }),

	counter("repex_bus_published_total", "Events published on the bus.", func(v *runView) uint64 { return v.st.BusPublished }),
	counter("repex_bus_dropped_total", "Events the collector lost to ring overflow.", func(v *runView) uint64 { return v.stats.BusDropped }),
	counter("repex_trace_spans_total", "Spans recorded by the flight recorder.", func(v *runView) uint64 { return v.st.TraceSpans }).when(hasTrace),
	counter("repex_trace_dropped_total", "Spans evicted from the flight-recorder ring.", func(v *runView) uint64 { return v.st.TraceDropped }).when(hasTrace),
}

// counter and gauge are the rows of one unlabelled sample per run.
func counter(name, help string, n func(*runView) uint64) family {
	return family{name: name, help: help, typ: "counter", emit: func(e *exposition, v *runView) { e.sample("", count(n(v))) }}
}

func gauge(name, help string, x func(*runView) float64) family {
	return family{name: name, help: help, typ: "gauge", emit: func(e *exposition, v *runView) { e.sample("", float(x(v))) }}
}

// pairs walks a dim × pair grid, one sample per pair that has a value.
func pairs(name, help, typ string, grid func(*runView) [][]analysis.PairStat, val func(analysis.PairStat) value) family {
	return family{name: name, help: help, typ: typ, emit: func(e *exposition, v *runView) {
		for d, row := range grid(v) {
			for i, p := range row {
				if x := val(p); x.kind != 0 {
					e.sample("", x, label{"dim", integer(d)}, label{"pair", integer(i)})
				}
			}
		}
	}}
}

// windowRatio gives the rolling-ratio family its one special case: the
// HELP of a single-run scrape embeds that run's configured window depth;
// an aggregate scrape spans runs with different depths, conveyed per run
// by repex_acceptance_window_events.
func windowRatio(f family) family {
	f.soleHelp = func(v *runView) string {
		return fmt.Sprintf("Acceptance ratio per neighbour pair over the last %d outcomes.", v.stats.WindowEvents)
	}
	return f
}

// feedbackGauge emits one sample per controlled dimension; the family
// exists only on scrapes that include a feedback-trigger run.
func feedbackGauge(name, help string, x func(core.FeedbackDimStatus) float64) family {
	return family{name: name, help: help, typ: "gauge", on: hasFeedback, emit: func(e *exposition, v *runView) {
		for _, f := range v.st.Feedback {
			e.sample("", float(x(f)), label{"dim", integer(f.Dim)})
		}
	}}
}

// byKey emits one sample per map entry, in key order.
func byKey[K cmp.Ordered, V any](name, help, typ string, m func(*runView) map[K]V, val func(K, V) (label, value)) family {
	return family{name: name, help: help, typ: typ, emit: func(e *exposition, v *runView) {
		entries := m(v)
		keys := make([]K, 0, len(entries))
		for k := range entries {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			l, x := val(k, entries[k])
			e.sample("", x, l)
		}
	}}
}

// histogram emits one Prometheus histogram per run: the cumulative
// buckets with an le label, then _sum and _count.
func histogram(name, help string, h func(*runView) *analysis.Histogram) family {
	return family{name: name, help: help, typ: "histogram", emit: func(e *exposition, v *runView) {
		hist := h(v)
		cum := uint64(0)
		for i, bound := range hist.Bounds {
			if i < len(hist.Counts) {
				cum += hist.Counts[i]
			}
			e.sample("_bucket", count(cum), label{"le", float(bound)})
		}
		e.sample("_bucket", count(hist.Count), label{"le", text("+Inf")})
		e.sample("_sum", float(hist.Sum))
		e.sample("_count", count(hist.Count))
	}}
}

// value is one rendered scalar, a sample value or a label value.
// Integers stay integers: the shortest float form switches to exponent
// notation at 1e+06, which a count must not.
type value struct {
	kind byte // 'u', 'i', 'f' or 's'; 0: no value
	u    uint64
	i    int64
	f    float64
	s    string
}

func count(n uint64) value  { return value{kind: 'u', u: n} }
func integer(n int) value   { return value{kind: 'i', i: int64(n)} }
func float(f float64) value { return value{kind: 'f', f: f} }
func text(s string) value   { return value{kind: 's', s: s} }

func oneIf(on bool) float64 {
	if on {
		return 1
	}
	return 0
}

func (v value) append(b []byte) []byte {
	switch v.kind {
	case 'u':
		return strconv.AppendUint(b, v.u, 10)
	case 'i':
		return strconv.AppendInt(b, v.i, 10)
	case 's':
		return strconv.AppendQuote(b, v.s)
	default:
		return strconv.AppendFloat(b, v.f, 'g', -1, 64)
	}
}

type label struct {
	key string
	val value
}

// exposition accumulates one Prometheus text exposition (version
// 0.0.4).
type exposition struct {
	buf []byte
	// name is the family being rendered; run the emitting run's rendered
	// label (runView.run).
	name, run string
}

// header opens a family: the only place # HELP and # TYPE are written.
func (e *exposition) header(f *family, views []runView) {
	help := f.help
	if f.soleHelp != nil && len(views) == 1 {
		help = f.soleHelp(&views[0])
	}
	e.name = f.name
	e.buf = fmt.Appendf(e.buf, "# HELP %s %s\n# TYPE %s %s\n", f.name, help, f.name, f.typ)
}

// sample appends one line, name+suffix{run="…",<labels>} value: the
// only place a sample is written.
func (e *exposition) sample(suffix string, v value, labels ...label) {
	b := append(append(append(e.buf, e.name...), suffix...), e.run...)
	sep := byte('{')
	if e.run != "" {
		sep = ','
	}
	for _, l := range labels {
		b = append(append(append(b, sep), l.key...), '=')
		if l.val.kind == 's' {
			b = l.val.append(b)
		} else {
			b = append(l.val.append(append(b, '"')), '"')
		}
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	e.buf = append(v.append(append(b, ' ')), '\n')
}

// renderExposition renders the Prometheus exposition of the daemon (nil
// on the single-run server) and of one or many runs. The format requires
// every line of a metric family to form one group, so multi-run output
// interleaves runs within each family (never family blocks per run) —
// the run label keeps series from runs sharing a dimension layout
// distinct.
func renderExposition(d *daemonView, views []runView) []byte {
	var e exposition
	for i := range families {
		f := &families[i]
		if f.daemon != nil {
			if d != nil {
				e.header(f, views)
				e.run = ""
				f.daemon(&e, d)
			}
			continue
		}
		present := f.on == nil
		for j := 0; !present && j < len(views); j++ {
			present = f.on(&views[j])
		}
		if !present {
			continue
		}
		e.header(f, views)
		for j := range views {
			e.run = views[j].run
			f.emit(&e, &views[j])
		}
	}
	return e.buf
}

// serveMetrics answers one scrape: both /metrics handlers end here.
func serveMetrics(w http.ResponseWriter, d *daemonView, views []runView) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(renderExposition(d, views))
}
