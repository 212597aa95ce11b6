package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/jsonx"
	"repro/internal/pilot"
)

// ErrMaxRuns rejects a launch while the configured number of active
// (non-terminal) runs is already reached.
var ErrMaxRuns = errors.New("serve: active-run limit reached")

// retainedRuns is how many terminal runs the registry remembers: when a
// run finishes, older terminal ones beyond this many leave the list, so
// a daemon's memory and its /runs, /status, /healthz and /metrics
// answers stop growing with uptime. An evicted id answers 404.
const retainedRuns = 256

// Registry is the multi-run control plane behind repexd: it launches
// runs from posted configs, admits them against one process-wide core
// pool, and serves per-run and aggregate observability endpoints. Every
// run owns its bus, collector and simulation environment, so runs never
// share mutable state — only the admission pool.
type Registry struct {
	pool    *pilot.Pool
	maxRuns int
	// traceEvents is the per-run flight-recorder capacity (0: the
	// recorder default). Every run gets its own recorder, so
	// /runs/{id}/trace is always servable.
	traceEvents int
	log         *slog.Logger

	mu sync.Mutex
	// runs is the registry's one table: every active run and the newest
	// retainedRuns terminal ones, in launch order.
	runs   []*Run
	nextID int // ids are never reused, evicted or not
	mux    *http.ServeMux
	// routes times every route but the event stream, which streams
	// counts; panics counts runs that ended on a recovered panic.
	routes          []*routeClock
	streams, panics atomic.Uint64
	// subscribers is the event streams open now; sseDropped sums the
	// records their rings dropped, counted at each drain.
	subscribers atomic.Int64
	sseDropped  atomic.Uint64
}

// census counts runs by lifecycle state; every surface that reports or
// admits on those counts takes them from here.
type census [core.RunCancelled + 1]int

func takeCensus(runs []*Run) (c census) {
	for _, r := range runs {
		c[r.State()]++
	}
	return c
}

// active is the number of non-terminal runs.
func (c census) active() int { return c[core.RunPending] + c[core.RunRunning] }

// NewRegistry builds a registry admitting runs against totalCores
// shared cores (0: unbounded) and at most maxRuns concurrently active
// runs (0: unbounded).
func NewRegistry(totalCores, maxRuns int) *Registry {
	g := &Registry{
		pool:    pilot.NewPool(totalCores),
		maxRuns: maxRuns,
		log:     slog.Default(),
		mux:     http.NewServeMux(),
	}
	g.handle("POST /runs", g.handleLaunch)
	g.handle("GET /runs", g.handleList)
	g.handle("GET /runs/{id}", g.perRun((*Server).handleStatus))
	g.handle("DELETE /runs/{id}", g.handleCancel)
	g.handle("GET /runs/{id}/status", g.perRun((*Server).handleStatus))
	g.handle("GET /runs/{id}/stats", g.perRun((*Server).handleStats))
	g.handle("GET /runs/{id}/metrics", g.perRun((*Server).handleRunMetrics))
	g.handle("GET /runs/{id}/trace", g.perRun((*Server).handleTrace))
	g.mux.HandleFunc("GET /runs/{id}/events", g.handleEvents)
	g.handle("GET /metrics", g.handleAggregateMetrics)
	g.handle("PATCH /pool", g.handlePoolResize)
	g.handle("GET /status", g.handleDaemonStatus)
	g.handle("GET /healthz", g.handleHealthz)
	return g
}

// handle mounts h on pattern, timing each request into the route's
// latency histogram once h has returned.
func (g *Registry) handle(pattern string, h http.HandlerFunc) {
	rc := &routeClock{route: pattern}
	g.routes = append(g.routes, rc)
	g.mux.HandleFunc(pattern, func(w http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		rc.inflight.Add(1)
		defer rc.inflight.Add(-1) // a handler's panic is recovered by the server
		h(w, req)
		rc.observe(time.Since(t0))
	})
}

// httpBounds are the upper bounds, in seconds, of the request-latency
// buckets.
var httpBounds = [...]float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// routeClock is one route's latency histogram — a count per bucket (the
// last one past every bound) and the summed wall time — and its requests
// in flight.
type routeClock struct {
	route    string
	counts   [len(httpBounds) + 1]atomic.Uint64
	sumNs    atomic.Int64
	inflight atomic.Int64
}

func (rc *routeClock) observe(d time.Duration) {
	rc.counts[sort.SearchFloat64s(httpBounds[:], d.Seconds())].Add(1)
	rc.sumNs.Add(int64(d))
}

// histogram reads the clock; its +Inf count is the sum of the buckets.
func (rc *routeClock) histogram() *analysis.Histogram {
	h := &analysis.Histogram{Bounds: httpBounds[:], Counts: make([]uint64, len(rc.counts)), Sum: float64(rc.sumNs.Load()) / 1e9}
	for i := range rc.counts {
		h.Counts[i] = rc.counts[i].Load()
		h.Count += h.Counts[i]
	}
	return h
}

// Handler exposes the registry's route table.
func (g *Registry) Handler() http.Handler { return g.mux }

// SetTraceEvents sets the flight-recorder capacity future launches
// attach per run (0 keeps the recorder default). Call before serving.
func (g *Registry) SetTraceEvents(n int) { g.traceEvents = n }

// SetLogger routes the registry's structured log output; the default is
// slog.Default(). Call before serving.
func (g *Registry) SetLogger(l *slog.Logger) {
	if l != nil {
		g.log = l
	}
}

// EnablePprof mounts net/http/pprof under /debug/pprof/ on the registry
// mux. Opt-in only: profile collection is CPU-heavy and the endpoints
// expose binary layout, so keep them off unless the daemon's listener
// is trusted. Call before serving.
func (g *Registry) EnablePprof() { mountPprof(g.mux) }

// handleHealthz is the daemon liveness probe: 200 with a run-state
// summary. Every lifecycle state appears zero-filled, so probes can
// index any state count without null handling.
func (g *Registry) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	c := takeCensus(g.List())
	counts := map[string]int{}
	for st, n := range c {
		counts[core.RunState(st).String()] = n
	}
	writeJSON(w, map[string]any{"ok": true, "active_runs": c.active(), "runs": counts})
}

// Launch starts one run from a validated launch request. All fallible
// setup happens in NewRun before admission, so a rejected or failed
// launch never consumes pool cores. Registry runs are always served, so
// each carries its own bus, collector and flight recorder and events
// from concurrent runs can never reach another run's view. Admission
// errors wrap pilot.ErrPoolExhausted or ErrMaxRuns.
func (g *Registry) Launch(l *config.Launch) (*Run, error) {
	run, err := NewRun(context.Background(), l, true, false, g.traceEvents)
	if err != nil {
		return nil, err
	}
	if err := g.admit(run); err != nil {
		return nil, err
	}
	return run, nil
}

// admit takes an assembled run into the registry and starts it, or
// rejects it without having touched the pool.
func (g *Registry) admit(run *Run) error {
	spec, cores := run.Spec(), run.params.PilotCores

	g.mu.Lock()
	if active := takeCensus(g.runs).active(); g.maxRuns > 0 && active >= g.maxRuns {
		g.mu.Unlock()
		return fmt.Errorf("%w: %d active", ErrMaxRuns, active)
	}
	if err := g.pool.Acquire(cores); err != nil {
		g.mu.Unlock()
		return err
	}
	g.nextID++
	run.ID = fmt.Sprintf("r%d", g.nextID)
	run.srv.SetRunLabel(run.ID)
	g.runs = append(g.runs, run)
	g.mu.Unlock()

	log := g.log.With("run", run.ID)
	log.Info("run launched", "name", spec.Name,
		"engine", run.engine, "trigger", spec.TriggerName(),
		"replicas", spec.Replicas(), "cores", cores)
	// The run's goroutine hands its cores back and trims the list before
	// Done closes, so whoever waited on the run finds both settled.
	run.finished = func(state core.RunState, err error) {
		g.pool.Release(cores)
		g.evict()
		if errors.Is(err, errRunPanicked) {
			g.panics.Add(1)
		}
		if state == core.RunFailed {
			log.Error("run failed", "error", err)
		} else {
			log.Info("run finished", "state", state.String())
		}
	}
	run.Start(log)
	return nil
}

// evict drops the oldest terminal run from the list once more than
// retainedRuns are terminal. Every finishing run calls it, so one at a
// time keeps the bound.
func (g *Registry) evict() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.runs)-takeCensus(g.runs).active() > retainedRuns {
		i := slices.IndexFunc(g.runs, func(r *Run) bool { return r.State().Terminal() })
		g.runs = slices.Delete(g.runs, i, i+1)
	}
}

// Get returns a retained run by id.
func (g *Registry) Get(id string) (*Run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range g.runs {
		if r.ID == id {
			return r, true
		}
	}
	return nil, false
}

// List returns every retained run in launch order.
func (g *Registry) List() []*Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*Run(nil), g.runs...)
}

// CancelAll requests cancellation of every run (the SIGTERM drain path);
// a finished run ignores it.
func (g *Registry) CancelAll() {
	for _, r := range g.List() {
		r.Cancel()
	}
}

// Wait blocks until every launched run has finished, or the timeout
// elapses; it reports whether the registry fully drained.
func (g *Registry) Wait(timeout time.Duration) bool {
	expired := time.After(timeout)
	for _, r := range g.List() {
		select {
		case <-r.done:
		case <-expired:
			return false
		}
	}
	return true
}

// DaemonStatus is the registry's GET /status payload.
type DaemonStatus struct {
	// Runs holds every run's status, in launch order.
	Runs []RunStatus `json:"runs"`
	// ActiveRuns counts non-terminal runs; MaxRuns echoes the admission
	// bound (0: unbounded).
	ActiveRuns int `json:"active_runs"`
	MaxRuns    int `json:"max_runs"`
	// PoolCoresTotal/Used describe the shared core pool (total 0:
	// unbounded, used then untracked).
	PoolCoresTotal int `json:"pool_cores_total"`
	PoolCoresUsed  int `json:"pool_cores_used"`
}

func (g *Registry) handleDaemonStatus(w http.ResponseWriter, _ *http.Request) {
	runs := g.List()
	ds := DaemonStatus{
		Runs:           make([]RunStatus, 0, len(runs)),
		ActiveRuns:     takeCensus(runs).active(),
		MaxRuns:        g.maxRuns,
		PoolCoresTotal: g.pool.Total(),
		PoolCoresUsed:  g.pool.Used(),
	}
	for _, r := range runs {
		ds.Runs = append(ds.Runs, r.Status())
	}
	writeJSON(w, ds)
}

func (g *Registry) handleLaunch(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(io.LimitReader(req.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	l, err := config.ParseLaunch(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	run, err := g.Launch(l)
	switch {
	case err == nil:
	case errors.Is(err, pilot.ErrPoolExhausted), errors.Is(err, ErrMaxRuns):
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	default:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, run.Status())
}

func (g *Registry) handleList(w http.ResponseWriter, _ *http.Request) {
	runs := g.List()
	out := make([]RunStatus, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Status())
	}
	writeJSON(w, out)
}

func (g *Registry) handleCancel(w http.ResponseWriter, req *http.Request) {
	run, ok := g.Get(req.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	g.log.Info("cancellation requested", "run", run.ID)
	run.Cancel()
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, run.Status())
}

// PoolPatch is the PATCH /pool request body: the pool's new total core
// budget.
type PoolPatch struct {
	TotalCores int `json:"total_cores"`
}

// PoolStatus is the PATCH /pool response: the pool after the resize.
// Used may exceed Total right after a shrink — running runs keep their
// reservation and the pool is over-committed until they release.
type PoolStatus struct {
	TotalCores int `json:"total_cores"`
	UsedCores  int `json:"used_cores"`
}

// handlePoolResize resizes the shared admission pool while the daemon
// runs (elastic allocations: the machine grew or shrank under us).
// Admission of future launches re-checks against the new total; running
// runs are never revoked.
func (g *Registry) handlePoolResize(w http.ResponseWriter, req *http.Request) {
	if g.pool == nil {
		httpError(w, http.StatusBadRequest, "daemon runs with an unbounded pool; restart with -cores to bound it")
		return
	}
	body, err := io.ReadAll(io.LimitReader(req.Body, 1<<16))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var p PoolPatch
	if err := json.Unmarshal(body, &p); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := g.pool.Resize(p.TotalCores); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	g.log.Info("pool resized", "total_cores", g.pool.Total(), "used_cores", g.pool.Used())
	writeJSON(w, PoolStatus{TotalCores: g.pool.Total(), UsedCores: g.pool.Used()})
}

// perRun adapts one of the per-run Server handlers to a /runs/{id}/...
// route.
func (g *Registry) perRun(h func(*Server, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		run, ok := g.Get(req.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such run")
			return
		}
		h(run.srv, w, req)
	}
}

// handleAggregateMetrics renders every run's series into one scrape,
// each line labelled run="<id>" so runs sharing a dimension layout
// (identical dim/pair label sets) stay distinct after federation.
func (g *Registry) handleAggregateMetrics(w http.ResponseWriter, _ *http.Request) {
	runs := g.List()
	d := g.daemon(runs)
	views := make([]runView, 0, len(runs))
	for _, r := range runs {
		views = append(views, r.metricsView())
	}
	serveMetrics(w, &d, readProcess(), views)
}

// daemon is the registry's own rows of an aggregate scrape of runs.
func (g *Registry) daemon(runs []*Run) daemonView {
	return daemonView{runs: takeCensus(runs), poolTotal: g.pool.Total(), poolUsed: g.pool.Used(),
		routes: g.routes, streams: g.streams.Load(), panics: g.panics.Load(),
		subscribers: g.subscribers.Load(), sseDropped: g.sseDropped.Load()}
}

// handleEvents streams the run's bus as server-sent events: one "md",
// "exchange", "fault", "resource" (pilot lifecycle) or "respace" (ladder
// re-fit) event per record, then a final "done" event carrying the
// terminal state. The subscription ring is bounded, so a
// slow client loses oldest events rather than slowing the run.
func (g *Registry) handleEvents(w http.ResponseWriter, req *http.Request) {
	run, ok := g.Get(req.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	sub := run.Spec().Bus.Subscribe(1 << 12)
	defer run.Spec().Bus.Unsubscribe(sub)
	g.streams.Add(1)
	g.subscribers.Add(1)
	defer g.subscribers.Add(-1)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	var buf []core.BusRecord
	// The frames' buffer holds a chunk and one more frame; an exchange
	// frame, the largest, holds every replica's slot and up to one pair
	// a replica.
	var frame sseFrame
	frame.w.Buf = make([]byte, 0, sseChunk+256+32*run.replicas)
	var dropped uint64 // the subscription's drops already counted
	flush := func() {
		buf = sub.Drain(buf[:0])
		for i := range buf {
			frame.writeRecord(w, &buf[i])
		}
		if len(buf) > 0 {
			frame.send(w)
			fl.Flush()
		}
		if d := sub.Dropped(); d > dropped {
			g.sseDropped.Add(d - dropped)
			dropped = d
		}
	}
	for {
		flush()
		select {
		case <-req.Context().Done():
			return
		case <-run.done:
			// The run published everything before done closed; one last
			// drain completes the stream.
			flush()
			fmt.Fprintf(w, "event: done\ndata: {\"state\":%q}\n\n", run.State().String())
			fl.Flush()
			return
		case <-ticker.C:
		}
	}
}

// The layouts of the event stream's frames, one a bus event type. The
// events carry no json tags: their keys are the Go field names.
var (
	mdLayout = jsonx.NewLayout(
		jsonx.Float("At", func(e *core.MDEvent) *float64 { return &e.At }),
		jsonx.Int("Replica", func(e *core.MDEvent) *int { return &e.Replica }),
		jsonx.Int("Cycle", func(e *core.MDEvent) *int { return &e.Cycle }),
		jsonx.Float("Exec", func(e *core.MDEvent) *float64 { return &e.Exec }),
		jsonx.Bool("Failed", func(e *core.MDEvent) *bool { return &e.Failed }),
	)
	pairOutcomeLayout = jsonx.NewLayout(
		jsonx.Int("Lo", func(p *core.PairOutcome) *int { return &p.Lo }),
		jsonx.Int("Hi", func(p *core.PairOutcome) *int { return &p.Hi }),
		jsonx.Int("ReplicaI", func(p *core.PairOutcome) *int { return &p.ReplicaI }),
		jsonx.Int("ReplicaJ", func(p *core.PairOutcome) *int { return &p.ReplicaJ }),
		jsonx.Bool("Accepted", func(p *core.PairOutcome) *bool { return &p.Accepted }),
	)
	exchangeLayout = jsonx.NewLayout(
		jsonx.Float("At", func(e *core.ExchangeEvent) *float64 { return &e.At }),
		jsonx.Int("Event", func(e *core.ExchangeEvent) *int { return &e.Event }),
		jsonx.Int("Cycle", func(e *core.ExchangeEvent) *int { return &e.Cycle }),
		jsonx.Int("Dim", func(e *core.ExchangeEvent) *int { return &e.Dim }),
		jsonx.At("Pairs", func(e *core.ExchangeEvent) *[]core.PairOutcome { return &e.Pairs },
			jsonx.Array(jsonx.Object(pairOutcomeLayout), false)),
		jsonx.At("Slots", func(e *core.ExchangeEvent) *[]int { return &e.Slots }, jsonx.Ints),
		jsonx.Float("MDWall", func(e *core.ExchangeEvent) *float64 { return &e.MDWall }),
		jsonx.Float("EXWall", func(e *core.ExchangeEvent) *float64 { return &e.EXWall }),
	)
	faultLayout = jsonx.NewLayout(
		jsonx.Float("At", func(e *core.FaultEvent) *float64 { return &e.At }),
		jsonx.Int("Replica", func(e *core.FaultEvent) *int { return &e.Replica }),
		jsonx.String("Kind", func(e *core.FaultEvent) *string { return &e.Kind }),
		jsonx.Int("Retries", func(e *core.FaultEvent) *int { return &e.Retries }),
		jsonx.Float("Exec", func(e *core.FaultEvent) *float64 { return &e.Exec }),
	)
	respaceLayout = jsonx.NewLayout(
		jsonx.Float("At", func(e *core.RespaceEvent) *float64 { return &e.At }),
		jsonx.Int("Event", func(e *core.RespaceEvent) *int { return &e.Event }),
		jsonx.Int("Dim", func(e *core.RespaceEvent) *int { return &e.Dim }),
		jsonx.Int("Refit", func(e *core.RespaceEvent) *int { return &e.Refit }),
		jsonx.At("Old", func(e *core.RespaceEvent) *[]float64 { return &e.Old }, jsonx.Floats),
		jsonx.At("New", func(e *core.RespaceEvent) *[]float64 { return &e.New }, jsonx.Floats),
	)
	resourceLayout = jsonx.NewLayout(
		jsonx.Float("At", func(e *core.ResourceEvent) *float64 { return &e.At }),
		jsonx.Int("Pilot", func(e *core.ResourceEvent) *int { return &e.Pilot }),
		jsonx.String("Kind", func(e *core.ResourceEvent) *string { return &e.Kind }),
		jsonx.Int("Cores", func(e *core.ResourceEvent) *int { return &e.Cores }),
		jsonx.Int("Delta", func(e *core.ResourceEvent) *int { return &e.Delta }),
		jsonx.Float("Notice", func(e *core.ResourceEvent) *float64 { return &e.Notice }),
	)
)

// sseChunk is how many bytes of frames a stream gathers before it
// writes them: the response sends each write of that size as one HTTP
// chunk, where frame by frame it would send one a 2 KB buffer.
const sseChunk = 32 << 10

// sseFrame renders bus events as server-sent events into one buffer,
// reused for a whole stream, that send writes out. A layout takes its
// record by address, and the address of a local would escape to the
// heap at every frame, so an event is copied out of its interface into
// the frame's own field of its type.
type sseFrame struct {
	w     jsonx.Writer
	md    core.MDEvent
	ex    core.ExchangeEvent
	fault core.FaultEvent
	resp  core.RespaceEvent
	res   core.ResourceEvent
}

// writeRecord adds one bus record's frame as add adds its event, and
// writes the frames gathered to w once they pass sseChunk bytes; an MD
// record is encoded from where it lies, never boxed.
func (f *sseFrame) writeRecord(w io.Writer, rec *core.BusRecord) {
	if rec.Other == nil {
		frame(f, "md", mdLayout, &rec.MD)
	} else {
		f.add(rec.Other)
	}
	if len(f.w.Buf) >= sseChunk {
		f.send(w)
	}
}

// send writes the frames gathered to w.
func (f *sseFrame) send(w io.Writer) {
	if len(f.w.Buf) > 0 {
		_, _ = w.Write(f.w.Buf)
		f.w.Buf = f.w.Buf[:0]
	}
}

// add renders one bus event as a server-sent event named by its
// concrete type, "event: <name>\ndata: <JSON>\n\n"; an event JSON
// cannot encode adds nothing. The JSON is what encoding/json writes for
// the event, and an event of a type outside the bus's set goes through
// encoding/json, named "event".
func (f *sseFrame) add(ev core.Event) {
	switch e := ev.(type) {
	case core.MDEvent:
		f.md = e
		frame(f, "md", mdLayout, &f.md)
	case core.ExchangeEvent:
		f.ex = e
		frame(f, "exchange", exchangeLayout, &f.ex)
	case core.FaultEvent:
		f.fault = e
		frame(f, "fault", faultLayout, &f.fault)
	case core.RespaceEvent:
		f.resp = e
		frame(f, "respace", respaceLayout, &f.resp)
	case core.ResourceEvent:
		f.res = e
		frame(f, "resource", resourceLayout, &f.res)
	default:
		if data, err := json.Marshal(ev); err == nil {
			f.w.Buf = append(append(append(f.w.Buf, "event: event\ndata: "...), data...), "\n\n"...)
		}
	}
}

// frame adds "event: <name>\ndata: <JSON of v>\n\n", or nothing when v
// does not encode.
func frame[T any](f *sseFrame, name string, l *jsonx.Layout[T], v *T) {
	start := len(f.w.Buf)
	f.w.Raw("event: ")
	f.w.Raw(name)
	f.w.Raw("\ndata: ")
	if l.Append(&f.w, v); f.w.Err() != nil {
		f.w = jsonx.Writer{Buf: f.w.Buf[:start]}
		return
	}
	f.w.Raw("\n\n")
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
