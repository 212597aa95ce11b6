// Package serve exposes a running REMD simulation over HTTP: run state,
// online exchange statistics and Prometheus metrics. It reads only from
// thread-safe sources (an analysis.Collector and a caller-supplied
// status function), so serving live traffic never perturbs the
// simulation — the dispatcher publishes to the event bus without
// blocking, and the collector syncs on demand.
//
// Endpoints:
//
//	GET /status   JSON run state (trigger, cycles, faults, bus counters,
//	              per-dimension feedback-controller state when the run
//	              executes under acceptance control)
//	GET /stats    JSON analysis.Stats (acceptance ratios, round trips,
//	              mixing, overhead histograms)
//	GET /metrics  Prometheus text exposition (version 0.0.4)
//	GET /healthz  liveness probe: 200 with a one-line state summary
//	GET /trace    Chrome trace-event JSON of the attached flight
//	              recorder's current span window (404 when the run has
//	              no recorder); load in Perfetto or chrome://tracing
//
// EnablePprof additionally mounts net/http/pprof under /debug/pprof/.
// It is opt-in: profile endpoints can run CPU-heavy collection and leak
// binary layout details, so they stay off unless the operator asks.
//
// Feedback-trigger runs additionally export the repex_feedback_*
// gauge family — per-dimension target, measured rolling acceptance,
// controlled window, effective MinReady, integral term, and the
// repex_feedback_saturated{dim} ladder-spacing diagnostic (1 while a
// dimension's set point is unreachable at the window clamp).
package serve

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/jsonx"
	"repro/internal/trace"
)

// RunStatus is the /status payload.
type RunStatus struct {
	// ID is the registry-assigned run identifier; empty for the
	// single-run server of cmd/repex.
	ID      string `json:"id,omitempty"`
	Name    string `json:"name"`
	Engine  string `json:"engine"`
	Trigger string `json:"trigger"`
	// State is "pending", "running", "completed", "failed" or
	// "cancelled" (core.RunState names).
	State    string `json:"state"`
	Replicas int    `json:"replicas"`
	Cores    int    `json:"cores"`
	// CyclesTarget is the configured cycle budget.
	CyclesTarget int `json:"cycles_target"`
	// HistoryTail echoes the retained slot-history rows (0 = unbounded).
	HistoryTail int `json:"history_tail"`
	// ExchangeEvents and MDSegments mirror the collector's counters.
	ExchangeEvents int `json:"exchange_events"`
	MDSegments     int `json:"md_segments"`
	// Faults counts fault-handling actions by kind (relaunch,
	// resource-lost, drop).
	Faults map[string]uint64 `json:"faults"`
	// BusPublished/BusDropped are event-bus delivery counters.
	BusPublished uint64 `json:"bus_published"`
	BusDropped   uint64 `json:"bus_dropped"`
	// Feedback is the per-dimension controller state of a feedback
	// trigger run (nil for other policies): targets, measured rolling
	// acceptance, window/MinReady actuators and the ladder-spacing
	// saturation diagnostic.
	Feedback []core.FeedbackDimStatus `json:"feedback,omitempty"`
	// Respace is the online ladder-respacing state of a run that enables
	// it (nil otherwise): configuration, per-dimension refit counts, the
	// current window values and the applied refit history.
	Respace *RespaceStatus `json:"respace,omitempty"`
	// TraceCapacity, TraceSpans and TraceDropped describe the attached
	// flight recorder: ring size, total spans recorded and spans evicted
	// by ring overflow. All zero when no recorder is attached.
	TraceCapacity int    `json:"trace_capacity,omitempty"`
	TraceSpans    uint64 `json:"trace_spans,omitempty"`
	TraceDropped  uint64 `json:"trace_dropped,omitempty"`
	// Loop is the run's wall clock by dispatcher phase, nil before the
	// run starts (and for runs not served by a Run). Wall clock is not
	// run state, so /status leaves it out; /metrics renders it.
	Loop *core.LoopSeconds `json:"-"`
	// Error carries the failure message when State is "failed".
	Error string `json:"error,omitempty"`
}

// RespaceStatus surfaces a run's online ladder-respacing state on
// /status and feeds the repex_respacings_total / repex_ladder_value
// metric families.
type RespaceStatus struct {
	// Enabled echoes the configuration; AfterSteps and MaxRefits are
	// the resolved thresholds (0 = built-in default).
	Enabled    bool `json:"enabled"`
	AfterSteps int  `json:"after_steps,omitempty"`
	MaxRefits  int  `json:"max_refits,omitempty"`
	// Refits counts applied refits per dimension.
	Refits []int `json:"refits"`
	// Ladders holds every dimension's current window values.
	Ladders [][]float64 `json:"ladders,omitempty"`
	// History is the applied refit history in order.
	History []core.RespaceRecord `json:"history,omitempty"`
}

// Server serves the observability endpoints for one run.
type Server struct {
	col    *analysis.Collector
	status func() RunStatus
	// runLabel, when set, is the rendered `{run="<id>"` that opens the
	// label set of every metric line, so scrapes from many runs can
	// federate without colliding.
	runLabel string
	// tracer is the run's flight recorder; nil disables /trace and the
	// repex_trace_* metrics.
	tracer *trace.Recorder
	// metrics is the view /metrics renders: view, or the owning Run's
	// metricsView.
	metrics func() runView
	// mux is the route table, built at its first use (routes): a
	// registry run is reached through the registry's own routes, so its
	// Server never builds one.
	muxOnce sync.Once
	mux     *http.ServeMux
}

// New builds a server over a collector and a status source. Either may
// be nil: a nil collector serves empty statistics, a nil status function
// an empty status.
func New(col *analysis.Collector, status func() RunStatus) *Server {
	s := &Server{col: col, status: status}
	s.metrics = s.view
	return s
}

// routes returns the route table, building it on the first call.
func (s *Server) routes() *http.ServeMux {
	s.muxOnce.Do(func() {
		s.mux = http.NewServeMux()
		s.mux.HandleFunc("/status", s.handleStatus)
		s.mux.HandleFunc("/stats", s.handleStats)
		s.mux.HandleFunc("/metrics", s.handleMetrics)
		s.mux.HandleFunc("/trace", s.handleTrace)
		s.mux.HandleFunc("/healthz", s.handleHealthz)
	})
	return s.mux
}

// Handler exposes the route table; Listen serves it.
func (s *Server) Handler() http.Handler { return s.routes() }

// SetRunLabel makes every /metrics line carry run="<id>". The registry
// sets it so per-run scrapes of runs sharing a dimension layout stay
// distinguishable after federation.
func (s *Server) SetRunLabel(id string) { s.runLabel = "{run=" + strconv.Quote(id) }

// SetTracer attaches the run's flight recorder, enabling GET /trace and
// the repex_trace_* metric counters. Call before serving.
func (s *Server) SetTracer(rec *trace.Recorder) { s.tracer = rec }

// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
// Opt-in only (see the package comment's security note); call before
// serving.
func (s *Server) EnablePprof() { mountPprof(s.routes()) }

// mountPprof registers the pprof handlers on a non-default mux.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Listen binds addr (host:port; port 0 picks a free one) and returns
// the server for h with the listener it is to serve: the caller runs
// srv.Serve(lis) and closes srv. The port stays open for the whole
// (possibly multi-day) run, so the server bounds header reads and idle
// keep-alives: a client trickling bytes must not pin goroutines and fds
// on the monitoring port.
func Listen(addr string, h http.Handler) (*http.Server, net.Listener, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return srv, lis, nil
}

// SetupLogging installs the process-wide structured logger of the
// commands: key=value text lines on stderr, filtered at the given level.
func SetupLogging(level string) error {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return fmt.Errorf("-log-level %q: want debug, info, warn or error", level)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr,
		&slog.HandlerOptions{Level: lv})))
	return nil
}

// snapshot takes the single per-request collector snapshot (empty when
// no collector is attached). /status and /metrics never render the
// per-replica traces, so they take the lite variant.
func (s *Server) snapshot(withTraces bool) analysis.Stats {
	if s.col == nil {
		return analysis.Stats{}
	}
	if withTraces {
		return s.col.Snapshot()
	}
	return s.col.SnapshotLite()
}

// view is the run at one instant — the caller's status merged with the
// counters of a single collector snapshot, under the run's label — which
// /status, /healthz, Run.Status and a live /metrics all render from. A
// view that reads a terminal state is taken again: the run may have
// ended after its snapshot, whose counters then miss its last events,
// and the second snapshot follows the terminal read.
func (s *Server) view() runView {
	v := s.viewWith(s.status)
	switch v.st.State {
	case core.RunCompleted.String(), core.RunFailed.String(), core.RunCancelled.String():
		v = s.viewWith(s.status)
	}
	return v
}

// viewWith is view with the status read from status, after the snapshot.
func (s *Server) viewWith(status func() RunStatus) runView {
	v := runView{run: s.runLabel, stats: s.snapshot(false)}
	if status != nil {
		v.st = status()
	}
	if v.st.Faults == nil {
		v.st.Faults = map[string]uint64{}
	}
	if s.col != nil {
		v.st.ExchangeEvents = v.stats.Events
		v.st.MDSegments = v.stats.MDSegments
		for k, n := range v.stats.Faults {
			v.st.Faults[k] = n
		}
		v.st.BusDropped = v.stats.BusDropped
	}
	if s.tracer != nil {
		v.st.TraceCapacity = s.tracer.Capacity()
		v.st.TraceSpans = s.tracer.Recorded()
		v.st.TraceDropped = s.tracer.Dropped()
	}
	return v
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.view().st)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.snapshot(true)
	writeStats(w, &st)
}

// handleTrace streams the flight recorder's current span window as
// Chrome trace-event JSON. Snapshotting the ring is cheap and
// lock-bounded, so polling /trace mid-run cannot stall the dispatcher.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		http.Error(w, "no flight recorder attached to this run", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = trace.WriteJSON(w, s.tracer.Snapshot())
}

// handleHealthz is the liveness probe: always 200 once the server
// answers, with a minimal state summary for probes that read bodies.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.view().st
	writeJSON(w, map[string]any{
		"ok":              true,
		"state":           st.State,
		"exchange_events": st.ExchangeEvents,
	})
}

// writeJSON writes a reply of constant size, indented by encoding/json.
// A body that grows with the replicas or the completions goes through a
// jsonx layout instead (writeStats, the event stream's frames).
func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

// statsBufs holds the compact and the indented text of a /stats body
// between requests.
var statsBufs = sync.Pool{New: func() any { return new([2][]byte) }}

// writeStats writes st as writeJSON would, byte for byte, through the
// Stats layout and one indent pass: the body holds every replica's slot
// and trace. A value with no JSON form writes nothing.
func writeStats(w http.ResponseWriter, st *analysis.Stats) {
	w.Header().Set("Content-Type", "application/json")
	bufs := statsBufs.Get().(*[2][]byte)
	defer statsBufs.Put(bufs)
	// A buffer the pool lost to a collection grows once, not by doubling:
	// ~5 bytes a slot or trace entry and 80 a pair's two counters, and
	// the indented text within 2.5 times the compact.
	room := 1024 + 5*len(st.Slots)
	for _, tr := range st.Traces {
		room += 5 * len(tr)
	}
	for d := range st.Acceptance {
		room += 80 * len(st.Acceptance[d])
	}
	var err error
	if bufs[0], err = st.Encode(slices.Grow(bufs[0][:0], room)); err != nil {
		return
	}
	bufs[1] = append(jsonx.Indent(slices.Grow(bufs[1][:0], len(bufs[0])*5/2), bufs[0], " "), '\n')
	_, _ = w.Write(bufs[1])
}

// handleMetrics serves the run and the Go runtime block of the process
// it runs in: the single-run server's /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	serveMetrics(w, nil, readProcess(), []runView{s.metrics()})
}

// handleRunMetrics serves the run alone: a registry run's
// /runs/{id}/metrics, whose process is the daemon's.
func (s *Server) handleRunMetrics(w http.ResponseWriter, r *http.Request) {
	serveMetrics(w, nil, nil, []runView{s.metrics()})
}
