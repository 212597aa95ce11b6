package serve

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/core"
)

// runView is one run's contribution to a metrics exposition: its
// collector snapshot, its status, and its rendered run label, the
// `{run="<id>"` that opens each of its samples' label sets (empty on
// the single-run server, whose samples carry no run label). A finished
// run's view is frozen instead: its share of every family, rendered once.
type runView struct {
	run    string
	stats  analysis.Stats
	st     RunStatus
	frozen *fragment
}

// fragment is a finished run's share of every non-daemon family, rendered
// once by freeze: family i's lines are buf[fams[i-1].end:fams[i].end].
type fragment struct {
	buf  []byte
	fams []frozenFamily
}

// frozenFamily is what the renderer asks of a run per family besides its
// lines: the family's gate and, where the family has one, its
// single-run HELP.
type frozenFamily struct {
	end  int
	on   bool
	help string
}

// freeze renders v's share of every non-daemon family, in table order,
// exactly as render would emit it.
func freeze(v *runView) *fragment {
	fr := &fragment{fams: make([]frozenFamily, len(families))}
	e := exposition{run: v.run}
	for i := range families {
		f, ff := &families[i], &fr.fams[i]
		if !f.own() {
			ff.on = f.on == nil || f.on(v)
			if f.soleHelp != nil {
				ff.help = f.soleHelp(v)
			}
			e.name = f.name
			f.emit(&e, v)
		}
		ff.end = len(e.buf)
	}
	// Kept until the run is evicted: hold exactly the rendered bytes, not
	// the slack append growth left.
	fr.buf = bytes.Clone(e.buf)
	return fr
}

// family returns the run's lines of family i.
func (fr *fragment) family(i int) []byte {
	start := 0
	if i > 0 {
		start = fr.fams[i-1].end
	}
	return fr.buf[start:fr.fams[i].end]
}

// has is the family's gate on the run.
func (v *runView) has(i int, f *family) bool {
	if v.frozen != nil {
		return v.frozen.fams[i].on
	}
	return f.on(v)
}

// soleHelp is the family's HELP on a scrape of this run alone.
func (v *runView) soleHelp(i int, f *family) string {
	if v.frozen != nil {
		return v.frozen.fams[i].help
	}
	return f.soleHelp(v)
}

// daemonView is the registry's own rows of a scrape: registered runs by
// lifecycle state, the admission pool, its timed routes in registration
// order, the event streams it opened, holds open and dropped records on,
// and the runs that panicked.
type daemonView struct {
	runs                census
	poolTotal, poolUsed int
	routes              []*routeClock
	streams, panics     uint64
	subscribers         int64
	sseDropped          uint64
}

// family is one row of the /metrics table: a metric family and how a
// run, the daemon (the repexd_* rows) or the process (the go_* rows)
// emits its samples.
type family struct {
	name, help, typ string
	// soleHelp replaces help on a scrape of exactly one run.
	soleHelp func(*runView) string
	// on gates the family: it is rendered only when some run of the
	// scrape has it (nil: always), and then for every run.
	on      func(*runView) bool
	emit    func(*exposition, *runView)
	daemon  func(*exposition, *daemonView)
	process func(*exposition, *processView)
}

// own reports a family the server emits about itself, not per run.
func (f *family) own() bool { return f.daemon != nil || f.process != nil }

func (f family) when(on func(*runView) bool) family { f.on = on; return f }

func hasFeedback(v *runView) bool { return len(v.st.Feedback) > 0 }
func hasRespace(v *runView) bool  { return v.st.Respace != nil }
func hasPilots(v *runView) bool   { return len(v.stats.PilotCores) > 0 }
func hasTrace(v *runView) bool    { return v.st.TraceCapacity > 0 }
func hasLoop(v *runView) bool     { return v.st.Loop != nil }

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
	{name: "repexd_http_request_duration_seconds", help: "Wall time to serve a request, by route (event streams are counted, not timed).", typ: "histogram",
		daemon: func(e *exposition, d *daemonView) {
			for _, rc := range d.routes {
				histogramLines(e, rc.histogram(), label{"route", text(rc.route)})
			}
		}},
	{name: "repexd_http_requests_in_flight", help: "Requests being served, by route (event streams are in repexd_sse_subscribers).", typ: "gauge",
		daemon: func(e *exposition, d *daemonView) {
			for _, rc := range d.routes {
				e.sample("", integer(int(rc.inflight.Load())), label{"route", text(rc.route)})
			}
		}},
	{name: "repexd_sse_streams_total", help: "Event streams opened on GET /runs/{id}/events.", typ: "counter",
		daemon: func(e *exposition, d *daemonView) { e.sample("", count(d.streams)) }},
	{name: "repexd_sse_subscribers", help: "Event streams open now.", typ: "gauge",
		daemon: func(e *exposition, d *daemonView) { e.sample("", integer(int(d.subscribers))) }},
	{name: "repexd_sse_dropped_events_total", help: "Bus records event streams lost to ring overflow, summed over streams.", typ: "counter",
		daemon: func(e *exposition, d *daemonView) { e.sample("", count(d.sseDropped)) }},
	{name: "repexd_run_panics_total", help: "Runs that ended failed on a recovered panic.", typ: "counter",
		daemon: func(e *exposition, d *daemonView) { e.sample("", count(d.panics)) }},

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
	{name: "repex_loop_seconds_total", help: "Wall time of the run's dispatcher loop by phase.", typ: "counter", on: hasLoop,
		emit: func(e *exposition, v *runView) {
			if v.st.Loop == nil {
				return
			}
			for i, x := range v.st.Loop {
				e.sample("", float(x), label{"phase", text(core.LoopPhases[i])})
			}
		}},

	processRow("go_goroutines", "Goroutines that currently exist.", "gauge", func(p *processView) value { return count(p.goroutines) }),
	processRow("go_gomaxprocs", "GOMAXPROCS: threads that may run Go code at once.", "gauge", func(p *processView) value { return count(p.gomaxprocs) }),
	processRow("go_gc_heap_live_bytes", "Heap held by objects the last GC marked live.", "gauge", func(p *processView) value { return count(p.heapLive) }),
	processRow("go_gc_heap_goal_bytes", "Heap size at which the next GC cycle ends.", "gauge", func(p *processView) value { return count(p.heapGoal) }),
	processRow("go_gc_heap_allocs_objects_total", "Heap objects allocated since the process started.", "counter", func(p *processView) value { return count(p.heapAllocs) }),
	processRow("go_gc_cycles_total", "Completed GC cycles.", "counter", func(p *processView) value { return count(p.gcCycles) }),
	{name: "go_gc_pauses_seconds", help: "Stop-the-world GC pauses, folded from the runtime's buckets (_sum from their lower edges).", typ: "histogram",
		process: func(e *exposition, p *processView) { histogramLines(e, &p.pauses) }},
	processRow("go_gc_cpu_seconds_total", "Estimated CPU time spent in the GC.", "counter", func(p *processView) value { return float(p.gcCPU) }),
	{name: "go_build_info", help: "1, labelled by the toolchain, the main module and its version.", typ: "gauge",
		process: func(e *exposition, p *processView) {
			e.sample("", integer(1), label{"goversion", text(p.goVersion)}, label{"path", text(p.path)}, label{"version", text(p.version)})
		}},
}

// processRow is a runtime-block row of one sample.
func processRow(name, help, typ string, x func(*processView) value) family {
	return family{name: name, help: help, typ: typ, process: func(e *exposition, p *processView) { e.sample("", x(p)) }}
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

// histogram emits one Prometheus histogram per run.
func histogram(name, help string, h func(*runView) *analysis.Histogram) family {
	return family{name: name, help: help, typ: "histogram", emit: func(e *exposition, v *runView) { histogramLines(e, h(v)) }}
}

// histogramLines emits one Prometheus histogram, its series named by at
// most one label: the cumulative buckets with an le label after it, then
// _sum and _count.
func histogramLines(e *exposition, h *analysis.Histogram, by ...label) {
	var ls [2]label
	n := copy(ls[:1], by)
	cum := uint64(0)
	for i, bound := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		ls[n] = label{"le", float(bound)}
		e.sample("_bucket", count(cum), ls[:n+1]...)
	}
	ls[n] = label{"le", text("+Inf")}
	e.sample("_bucket", count(h.Count), ls[:n+1]...)
	e.sample("_sum", float(h.Sum), ls[:n]...)
	e.sample("_count", count(h.Count), ls[:n]...)
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

// Streaming: a scrape is rendered through one chunk of chunkSize bytes,
// written to the response each time it fills past chunkSize-lineRoom; a
// line shorter than lineRoom (every sample and header line is far
// shorter) never grows it.
const (
	chunkSize = 128 << 10
	lineRoom  = 1 << 10
)

// exposition accumulates one Prometheus text exposition (version
// 0.0.4): the whole of it in buf, or, when w is set, a chunk at a time.
type exposition struct {
	buf []byte
	w   io.Writer
	// name is the family being rendered; run the emitting run's rendered
	// label (runView.run).
	name, run string
}

// header opens a family: the only place # HELP and # TYPE are written.
func (e *exposition) header(f *family, i int, views []runView) {
	help := f.help
	if f.soleHelp != nil && len(views) == 1 {
		help = views[0].soleHelp(i, f)
	}
	e.name = f.name
	e.buf = append(append(append(append(e.buf, "# HELP "...), f.name...), ' '), help...)
	e.buf = append(append(append(append(append(e.buf, "\n# TYPE "...), f.name...), ' '), f.typ...), '\n')
	e.spill()
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
	e.spill()
}

// copyLines appends lines rendered earlier, a frozen run's share of a
// family, filling and writing whole chunks when streaming.
func (e *exposition) copyLines(p []byte) {
	for e.w != nil && len(e.buf)+len(p) > cap(e.buf) {
		n := copy(e.buf[len(e.buf):cap(e.buf)], p)
		e.buf, p = e.buf[:cap(e.buf)], p[n:]
		e.flush()
	}
	e.buf = append(e.buf, p...)
	e.spill()
}

// spill writes the chunk once it is nearly full.
func (e *exposition) spill() {
	if e.w != nil && len(e.buf) >= chunkSize-lineRoom {
		e.flush()
	}
}

func (e *exposition) flush() {
	if len(e.buf) > 0 {
		_, _ = e.w.Write(e.buf)
		e.buf = e.buf[:0]
	}
}

// render walks the families table once: the Prometheus exposition of the
// registry's rows (d), the Go runtime block (proc) and one or many runs;
// a nil d or proc has no rows. The
// format requires every line of a metric family to form one group, so
// multi-run output interleaves runs within each family (never family
// blocks per run) — the run label keeps series from runs sharing a
// dimension layout distinct. A frozen run's lines are copied, not
// emitted.
func (e *exposition) render(d *daemonView, proc *processView, views []runView) {
	for i := range families {
		f := &families[i]
		if f.own() {
			switch {
			case f.daemon != nil && d != nil:
				e.header(f, i, views)
				e.run = ""
				f.daemon(e, d)
			case f.process != nil && proc != nil:
				e.header(f, i, views)
				e.run = ""
				f.process(e, proc)
			}
			continue
		}
		present := f.on == nil
		for j := 0; !present && j < len(views); j++ {
			present = views[j].has(i, f)
		}
		if !present {
			continue
		}
		e.header(f, i, views)
		for j := range views {
			if fr := views[j].frozen; fr != nil {
				e.copyLines(fr.family(i))
				continue
			}
			e.run = views[j].run
			f.emit(e, &views[j])
		}
	}
}

// renderExposition is the whole exposition in one buffer.
func renderExposition(d *daemonView, proc *processView, views []runView) []byte {
	var e exposition
	e.render(d, proc, views)
	return e.buf
}

// serveMetrics answers one scrape: both /metrics handlers end here. The
// body streams through one chunk, so a scrape's memory does not grow with
// its body.
func serveMetrics(w http.ResponseWriter, d *daemonView, proc *processView, views []runView) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := exposition{w: w, buf: make([]byte, 0, chunkSize)}
	e.render(d, proc, views)
	e.flush()
}
