package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
)

// discardWriter is a response that keeps nothing of the body.
type discardWriter struct{ header http.Header }

func (w discardWriter) Header() http.Header         { return w.header }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// streamed is what serveMetrics writes for the views.
func streamed(d *daemonView, proc *processView, views []runView) []byte {
	rec := httptest.NewRecorder()
	serveMetrics(rec, d, proc, views)
	return rec.Body.Bytes()
}

// TestFrozenViewsRenderAsLive: every mix of frozen and live views — the
// golden fixtures and a finished 1024-window run — streams to the bytes
// the buffered renderer writes for the same views all live, on the
// daemon's scrape and on the single-run server's, and a scrape of one
// frozen run keeps its single-run HELP.
func TestFrozenViewsRenderAsLive(t *testing.T) {
	g := wideRegistry(t, 1)
	wide := g.List()[0].srv.view()
	wide.run = `{run="r3"`
	live := []runView{fullView(`{run="r1"`), plainView(`{run="r2"`), wide}
	d := daemonView{poolTotal: 64, poolUsed: 24}
	d.runs[core.RunRunning], d.runs[core.RunCompleted] = 1, 2
	for mask := 0; mask < 1<<len(live); mask++ {
		views := make([]runView, len(live))
		for j := range live {
			views[j] = live[j]
			if mask&(1<<j) != 0 {
				views[j] = runView{run: live[j].run, frozen: freeze(&live[j])}
			}
		}
		for _, dv := range []*daemonView{&d, nil} {
			what := fmt.Sprintf("frozen mask %03b, daemon rows %t", mask, dv != nil)
			sameExposition(t, what, streamed(dv, nil, views), renderExposition(dv, nil, live))
			for j := range views {
				sameExposition(t, fmt.Sprintf("%s, run %d alone", what, j+1),
					streamed(dv, nil, views[j:j+1]), renderExposition(dv, nil, live[j:j+1]))
			}
		}
	}
	one := fullView(`{run="r1"`)
	body := string(streamed(&d, nil, []runView{{run: one.run, frozen: freeze(&one)}}))
	if want := "over the last 8 outcomes."; !strings.Contains(body, want) {
		t.Fatalf("a one-run aggregate scrape of a frozen run lost the window depth from its HELP (%q)", want)
	}
}

// smallLaunch is an 8-replica barrier launch of the given length.
func smallLaunch(t testing.TB, name string, cycles int) *config.Launch {
	t.Helper()
	l, err := config.ParseLaunch([]byte(fmt.Sprintf(`{"sim": {"name": %q, "seed": 5,
		"dimensions": [{"type": "T", "count": 8, "min": 273, "max": 373}],
		"cores_per_replica": 1, "steps_per_cycle": 2000, "cycles": %d},
		"res": {"machine": "small", "nodes": 1, "cores_per_node": 8, "pilot_cores": 8}}`, name, cycles)))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestFreezeReadsStateBeforeSnapshot: a run that ends between the
// collector snapshot of a live view and that view's status read is
// rendered live by that scrape, and frozen by the next one from a
// snapshot taken after the terminal state was read — with its last event.
func TestFreezeReadsStateBeforeSnapshot(t *testing.T) {
	r, err := NewRun(context.Background(), smallLaunch(t, "late", 2), true, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	var end sync.Once
	r.srv.status = func() RunStatus {
		end.Do(func() {
			r.Spec().Bus.PublishBatch([]core.Event{core.MDEvent{Replica: 0, Cycle: 1, Exec: 1}})
			r.mu.Lock()
			r.state = core.RunCompleted
			r.mu.Unlock()
		})
		return r.baseStatus()
	}
	get := func() []byte {
		rec := httptest.NewRecorder()
		r.Server().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.Bytes()
	}
	if first := string(get()); !strings.Contains(first, "\nrepex_md_segments_total 0\n") {
		t.Fatalf("the scrape the run ended under should render the snapshot it took first:\n%s", first)
	}
	sameExposition(t, "the scrape after the run ended", maskLive(get()),
		maskLive(renderExposition(nil, fixedProcess(), []runView{r.srv.view()})))
}

// TestStatusOfARunEndingMidView: a run that ends between the collector
// snapshot of a view and that view's status read is served terminal
// with the events it published last, not with the counters of the
// snapshot taken before it ended — by every reader of a run's status:
// the run's /status and /healthz (cmd/repex), Run.Status (the launch
// and cancel bodies), and the registry's GET /runs, GET /runs/{id}/status
// and GET /status.
func TestStatusOfARunEndingMidView(t *testing.T) {
	// late builds a run that publishes one MD segment and one exchange
	// event and ends inside its first status read, and a registry that
	// lists it as r1 without starting it.
	late := func(t *testing.T) (*Run, *Registry) {
		r, err := NewRun(context.Background(), smallLaunch(t, "late", 2), true, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		var end sync.Once
		r.srv.status = func() RunStatus {
			end.Do(func() {
				r.Spec().Bus.PublishBatch([]core.Event{
					core.MDEvent{Replica: 0, Cycle: 1, Exec: 1},
					core.ExchangeEvent{Cycle: 1},
				})
				r.mu.Lock()
				r.state = core.RunCompleted
				r.mu.Unlock()
			})
			return r.baseStatus()
		}
		g := NewRegistry(0, 0)
		r.ID = "r1"
		g.runs = append(g.runs, r)
		return r, g
	}
	get := func(t *testing.T, h http.Handler, path string, v any) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	only := func(t *testing.T, runs []RunStatus) RunStatus {
		if len(runs) != 1 {
			t.Fatalf("listed %d runs, want 1", len(runs))
		}
		return runs[0]
	}
	routes := []struct {
		name string
		read func(t *testing.T, r *Run, g *Registry) RunStatus
		// noMD marks a body without an MD segment count.
		noMD bool
	}{
		{name: "run /status", read: func(t *testing.T, r *Run, _ *Registry) (st RunStatus) {
			get(t, r.Server().Handler(), "/status", &st)
			return st
		}},
		{name: "run /healthz", noMD: true, read: func(t *testing.T, r *Run, _ *Registry) (st RunStatus) {
			get(t, r.Server().Handler(), "/healthz", &st)
			return st
		}},
		{name: "Run.Status", read: func(t *testing.T, r *Run, _ *Registry) RunStatus { return r.Status() }},
		{name: "registry /runs", read: func(t *testing.T, _ *Run, g *Registry) RunStatus {
			var list []RunStatus
			get(t, g.Handler(), "/runs", &list)
			return only(t, list)
		}},
		{name: "registry /runs/{id}/status", read: func(t *testing.T, _ *Run, g *Registry) (st RunStatus) {
			get(t, g.Handler(), "/runs/r1/status", &st)
			return st
		}},
		{name: "registry /status", read: func(t *testing.T, _ *Run, g *Registry) RunStatus {
			var ds DaemonStatus
			get(t, g.Handler(), "/status", &ds)
			return only(t, ds.Runs)
		}},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			r, g := late(t)
			st := rt.read(t, r, g)
			if st.State != "completed" || st.ExchangeEvents != 1 || (st.MDSegments != 1 && !rt.noMD) {
				t.Fatalf("%s read %s with %d MD segments and %d exchange events, want completed with 1 and 1",
					rt.name, st.State, st.MDSegments, st.ExchangeEvents)
			}
		})
	}
}

// parseSamples reads a Prometheus text body into its series' values;
// a malformed or repeated sample line is an error.
func parseSamples(body []byte) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		x, err := strconv.ParseFloat(line[sp+1:], 64)
		if sp <= 0 || err != nil {
			return nil, fmt.Errorf("malformed sample line %q", line)
		}
		if _, dup := out[line[:sp]]; dup {
			return nil, fmt.Errorf("series %q repeats", line[:sp])
		}
		out[line[:sp]] = x
	}
	return out, nil
}

// TestFreezeUnderConcurrentScrapes: two clients scrape the aggregate
// /metrics while runs of different lengths finish. Every body parses;
// in every body, a run that had finished before the scrape began reports
// the MD segments and exchange events of its Report; and each run is
// frozen exactly once.
func TestFreezeUnderConcurrentScrapes(t *testing.T) {
	g := NewRegistry(0, 0)
	g.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	var runs []*Run
	for i := 0; i < 6; i++ {
		r, err := g.Launch(smallLaunch(t, fmt.Sprintf("race-%d", i), 400*(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	var mixed atomic.Int64
	fragments := make([][]*fragment, 2)
	var wg sync.WaitGroup
	for c := range fragments {
		fragments[c] = make([]*fragment, len(runs))
		wg.Add(1)
		go func(seen []*fragment) {
			defer wg.Done()
			for last := false; !last; {
				last = true
				var ended []*Run
				for _, r := range runs {
					select {
					case <-r.Done():
						ended = append(ended, r)
					default:
						last = false
					}
				}
				rec := httptest.NewRecorder()
				g.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				samples, err := parseSamples(rec.Body.Bytes())
				if rec.Code != 200 || err != nil {
					t.Errorf("GET /metrics: %d, %v", rec.Code, err)
					return
				}
				if c := len(ended); c > 0 && c < len(runs) {
					mixed.Add(1)
				}
				for _, r := range ended {
					rep, _ := r.Result()
					segments := 0
					for _, rec := range rep.Records {
						segments += rec.MD.Tasks
					}
					run := `{run="` + r.ID + `"}`
					if got := samples["repex_md_segments_total"+run]; got != float64(segments) {
						t.Errorf("finished run %s scraped at %v MD segments, its report has %d", r.ID, got, segments)
					}
					if got := samples["repex_exchange_events_total"+run]; got != float64(rep.ExchangeEvents) {
						t.Errorf("finished run %s scraped at %v exchange events, its report has %d", r.ID, got, rep.ExchangeEvents)
					}
				}
				for i, r := range runs {
					r.mu.Lock()
					fr := r.frozen
					r.mu.Unlock()
					if seen[i] == nil {
						seen[i] = fr
					} else if fr != seen[i] {
						t.Errorf("run %s was frozen again", r.ID)
					}
				}
			}
		}(fragments[c])
	}
	wg.Wait()
	t.Logf("%d scrapes found some runs finished and some not", mixed.Load())
	for i, r := range runs {
		if fragments[0][i] == nil || fragments[0][i] != fragments[1][i] {
			t.Errorf("run %s: the two clients saw fragments %p and %p, want one", r.ID, fragments[0][i], fragments[1][i])
		}
	}
}

// TestScrapeMemoryBounded: with sixteen finished 1024-window runs and one
// live run registered, an aggregate scrape of some 5 MB allocates less
// than scrapeAllocCeiling: the finished runs are copied, the body streams
// through one chunk, and only the live run is rendered afresh.
func TestScrapeMemoryBounded(t *testing.T) {
	const scrapeAllocCeiling = 256 << 10
	g := wideRegistry(t, 16)
	body := scrape(t, g, "/metrics")
	if len(body) < 16*scrapeAllocCeiling {
		t.Fatalf("the scrape is %d bytes: too small to tell a bounded scrape from a buffered one", len(body))
	}
	w, h := discardWriter{header: http.Header{}}, g.Handler()
	const scrapes = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < scrapes; i++ {
		h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	}
	runtime.ReadMemStats(&after)
	perScrape := (after.TotalAlloc - before.TotalAlloc) / scrapes
	t.Logf("%d-byte body, %d bytes allocated per scrape", len(body), perScrape)
	if perScrape > scrapeAllocCeiling {
		t.Fatalf("%d bytes allocated per scrape of a %d-byte body, ceiling %d", perScrape, len(body), scrapeAllocCeiling)
	}
}

// BenchmarkAggregateScrape times one aggregate scrape of sixteen
// 1024-window runs into a response that discards the body: all of them
// live (rendered from their collectors) and all of them finished (copied
// from their frozen shares). The runs are the same finished runs both
// times; live ones are marked running again.
func BenchmarkAggregateScrape(b *testing.B) {
	g := wideRegistry(b, 16)
	g.runs = g.runs[:16] // only the finished runs
	for _, c := range []struct {
		name  string
		state core.RunState
	}{{"live", core.RunRunning}, {"frozen", core.RunCompleted}} {
		b.Run(c.name, func(b *testing.B) {
			for _, r := range g.runs {
				r.mu.Lock()
				r.state, r.frozen = c.state, nil
				r.mu.Unlock()
			}
			w, h := discardWriter{header: http.Header{}}, g.Handler()
			h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
			}
		})
	}
}

// A served run renders its loop clock on /metrics, one counter a phase,
// and keeps it off /status: wall clock is not run state.
func TestLoopClockServed(t *testing.T) {
	r, err := NewRun(context.Background(), smallLaunch(t, "clocked", 2), true, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Start(slog.New(slog.NewTextHandler(io.Discard, nil)))
	<-r.Done()
	get := func(path string) string {
		rec := httptest.NewRecorder()
		r.Server().Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Body.String()
	}
	body := get("/metrics")
	for _, phase := range core.LoopPhases {
		if line := fmt.Sprintf("\nrepex_loop_seconds_total{phase=%q} ", phase); !strings.Contains(body, line) {
			t.Errorf("/metrics has no%s line", line)
		}
	}
	if st := get("/status"); strings.Contains(st, "loop") {
		t.Errorf("/status carries the loop clock:\n%s", st)
	}
}
