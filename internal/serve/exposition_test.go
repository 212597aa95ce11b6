package serve

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
)

var updateExposition = flag.Bool("update", false, "rewrite testdata/metrics_*.golden from the current /metrics renderer")

// The goldens below were generated by the hand-unrolled writeMetrics
// and handleAggregateMetrics that preceded the families table; a
// mismatch means the renderer changed a byte of /metrics — fix the
// code, do not regenerate. The two regenerations since only added lines:
// the repexd_http_request_duration_seconds, repexd_sse_streams_total and
// repexd_run_panics_total rows, then the repexd_http_requests_in_flight,
// repexd_sse_subscribers and repexd_sse_dropped_events_total rows and the
// Go runtime block (a fixed sample here; masked by maskLive where the
// scrape is live).

// fullView is a run that carries every metric family: a 4x2 grid under
// feedback control (dimension 1 saturated), respacing with one applied
// refit, two pilot slots, a flight recorder, three fault kinds (one
// needing label escaping), a pair whose rolling window is still empty
// and floats on both sides of the exponent-notation thresholds. run is
// the rendered label (`{run="r1"`, or empty for the single-run server).
func fullView(run string) runView {
	return runView{
		run: run,
		stats: analysis.Stats{
			Events: 42, MDSegments: 336, MDFailures: 2,
			Acceptance: [][]analysis.PairStat{
				{{Attempted: 21, Accepted: 7}, {Attempted: 20, Accepted: 5}, {Attempted: 3000000, Accepted: 1}},
				{{Attempted: 14, Accepted: 14}},
			},
			AcceptanceWindow: [][]analysis.PairStat{
				{{Attempted: 8, Accepted: 3}, {}, {Attempted: 8, Accepted: 8}},
				{{Attempted: 7, Accepted: 1}},
			},
			WindowEvents:          8,
			RoundTrips:            5,
			MeanRoundTripEvents:   13.4,
			FullTraversalFraction: 0.625,
			MDExec: analysis.Histogram{
				Bounds: analysis.DefaultSecondsBounds,
				Counts: []uint64{0, 0, 1, 4, 0, 120, 200, 11, 0, 0, 0, 0, 2},
				Sum:    15211.0625, Count: 338,
			},
			ExchangeOverhead: analysis.Histogram{
				Bounds: analysis.DefaultSecondsBounds,
				Counts: []uint64{0, 3, 30, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0},
				Sum:    2.1e-05 * 42, Count: 42,
			},
			Preemptions: 1,
			PilotCores:  map[int]int{1: 0, 0: 16},
			BusDropped:  3,
		},
		st: RunStatus{
			State: "running", Replicas: 8, BusPublished: 1234,
			Faults: map[string]uint64{"relaunch": 3, "drop": 2, "odd \"kind\"\\\n": 1},
			Feedback: []core.FeedbackDimStatus{
				{Dim: 0, Target: 0.3, Measured: 0.375, Window: 37.5, MinReady: 3, Integral: -0.125},
				{Dim: 1, Target: 0.25, Measured: 1.0 / 7, Window: 1e-05, MinReady: 1, Integral: 3, Saturated: true},
			},
			Respace: &RespaceStatus{
				Enabled: true,
				Refits:  []int{1, 0},
				Ladders: [][]float64{{300, 321.5, 356.25, 1e+21}, {0, 1.5}},
			},
			TraceCapacity: 4096, TraceSpans: 5000, TraceDropped: 904,
		},
	}
}

// plainView is a finished run with none of the gated families: a
// different grid (11 pairs, so two-digit pair labels), no feedback, no
// respace, no recorder, no resource events, and a histogram whose count
// slice is shorter than its bounds.
func plainView(run string) runView {
	pairs := make([]analysis.PairStat, 11)
	window := make([]analysis.PairStat, 11)
	for i := range pairs {
		pairs[i] = analysis.PairStat{Attempted: uint64(100 + i), Accepted: uint64(9 * i)}
		window[i] = analysis.PairStat{Attempted: 64, Accepted: uint64(5 * i)}
	}
	return runView{
		run: run,
		stats: analysis.Stats{
			Events: 200, MDSegments: 2400,
			Acceptance:       [][]analysis.PairStat{pairs},
			AcceptanceWindow: [][]analysis.PairStat{window},
			WindowEvents:     64,
			MDExec: analysis.Histogram{
				Bounds: []float64{0.5, 2, 8}, Counts: []uint64{4, 5}, Sum: 31.5, Count: 12,
			},
		},
		st: RunStatus{State: "completed", Replicas: 2e6, BusPublished: 1e6, Faults: map[string]uint64{}},
	}
}

// fixedProcess is a Go runtime sample for the goldens: 34 GC pauses, one
// past the last bound, and floats on both sides of the exponent-notation
// thresholds.
func fixedProcess() *processView {
	return &processView{
		goroutines: 42, gomaxprocs: 2,
		heapLive: 31457280, heapGoal: 62914560,
		heapAllocs: 123456789, gcCycles: 17, gcCPU: 0.0625,
		pauses: analysis.Histogram{Bounds: gcPauseBounds, Counts: []uint64{0, 3, 20, 9, 1, 0, 0, 1},
			Sum: 1.000412, Count: 34},
		goVersion: "go1.24.0", path: "repro", version: "(devel)",
	}
}

// renderRuns is the single-run server's exposition of the given views.
func renderRuns(views []runView) []byte {
	return renderExposition(nil, fixedProcess(), views)
}

// renderDaemon is the aggregate exposition of a daemon holding one
// running and one completed run on a 64-core pool with 24 cores
// admitted, that has served two launches (one past every latency bound)
// and one scrape, is serving one more launch, opened three event streams,
// holds two open that dropped five records, and has seen one run panic.
func renderDaemon(views []runView) []byte {
	d := daemonView{poolTotal: 64, poolUsed: 24, streams: 3, panics: 1,
		subscribers: 2, sseDropped: 5}
	d.runs[core.RunRunning], d.runs[core.RunCompleted] = 1, 1
	launch, scrape := &routeClock{route: "POST /runs"}, &routeClock{route: "GET /metrics"}
	launch.observe(3 * time.Millisecond)
	launch.observe(7 * time.Second)
	launch.inflight.Add(1)
	scrape.observe(250 * time.Microsecond)
	d.routes = []*routeClock{launch, scrape}
	return renderExposition(&d, fixedProcess(), views)
}

// maskLive hides what a live scrape reads at its own instant: each line
// of the Go runtime block keeps only its name, and a request-in-flight
// sample loses its value.
func maskLive(body []byte) []byte {
	lines := strings.Split(string(body), "\n")
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "go_"):
			name, _, _ := strings.Cut(l, "{")
			name, _, _ = strings.Cut(name, " ")
			lines[i] = name + " <masked>"
		case strings.HasPrefix(l, "repexd_http_requests_in_flight{"):
			lines[i] = l[:strings.LastIndexByte(l, ' ')] + " <masked>"
		}
	}
	return []byte(strings.Join(lines, "\n"))
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateExposition {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines rendered, golden has %d", path, len(gl), len(wl))
}

func TestExpositionGoldenSingle(t *testing.T) {
	checkGolden(t, "testdata/metrics_single.golden", renderRuns([]runView{fullView("")}))
}

func TestExpositionGoldenAggregate(t *testing.T) {
	checkGolden(t, "testdata/metrics_aggregate.golden",
		renderDaemon([]runView{fullView(`{run="r1"`), plainView(`{run="r2"`)}))
}

// TestExpositionGoldenNoRuns pins the scrape of a daemon that has
// launched nothing: every ungated family is declared, none has a sample.
func TestExpositionGoldenNoRuns(t *testing.T) {
	rec := httptest.NewRecorder()
	NewRegistry(64, 0).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	checkGolden(t, "testdata/metrics_noruns.golden", maskLive(rec.Body.Bytes()))
}

// allocsPerLineCeiling bounds the per-line cost of a scrape. The
// fmt-based writer this table replaced cost 6.222 (25,970 / 4,174); the
// append-based one allocates per scrape (buffer growth, one HELP/TYPE
// header per family), not per sample — never raise it.
const allocsPerLineCeiling = 0.1

// TestExpositionAllocations bounds the allocations of one scrape of a
// fresh 1024-window run, per rendered line: /metrics grows with the
// ladder, and the daemon renders every active run's share on each scrape.
func TestExpositionAllocations(t *testing.T) {
	col := analysis.New(analysis.Config{DimSizes: []int{1024}, Replicas: 1024})
	views := []runView{{run: `{run="r1"`, stats: col.SnapshotLite(),
		st: RunStatus{State: "running", Replicas: 1024, Faults: map[string]uint64{}}}}
	lines := bytes.Count(renderRuns(views), []byte("\n"))
	if lines < 4*1023 {
		t.Fatalf("only %d lines rendered for 1023 pairs", lines)
	}
	perLine := testing.AllocsPerRun(10, func() { renderRuns(views) }) / float64(lines)
	t.Logf("%d lines, %.3f allocations per line", lines, perLine)
	if perLine > allocsPerLineCeiling {
		t.Fatalf("%.3f allocations per rendered line, ceiling %.2f", perLine, allocsPerLineCeiling)
	}
}

// TestMetricFamiliesDocumented is the docs-drift guard for the metric
// reference: every row of the families table must appear (as a
// backticked `name` cell with its type) in that section of
// docs/observability.md. Adding a family without documenting it fails
// here, naming it.
func TestMetricFamiliesDocumented(t *testing.T) {
	data, err := os.ReadFile("../../docs/observability.md")
	if err != nil {
		t.Fatalf("reading the observability guide: %v", err)
	}
	_, section, found := strings.Cut(string(data), "\n## Metric reference\n")
	if !found {
		t.Fatal("docs/observability.md has no \"Metric reference\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	for _, f := range families {
		if !strings.Contains(section, "| `"+f.name+"` | "+f.typ+" |") {
			t.Errorf("docs/observability.md \"Metric reference\" has no row for %s (%s)", f.name, f.typ)
		}
	}
}
