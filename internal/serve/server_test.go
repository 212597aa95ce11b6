package serve_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/serve"
)

// seededCollector returns a collector fed a small synthetic event
// stream: two MD completions, one relaunch and one exchange event.
func seededCollector() *analysis.Collector {
	col := analysis.New(analysis.Config{DimSizes: []int{4}, Replicas: 4})
	col.Apply(core.MDEvent{At: 10, Replica: 0, Cycle: 1, Exec: 120})
	col.Apply(core.MDEvent{At: 11, Replica: 1, Cycle: 1, Exec: 125})
	col.Apply(core.FaultEvent{At: 12, Replica: 2, Kind: core.FaultKindRelaunch, Retries: 1, Exec: 80})
	col.Apply(core.ExchangeEvent{
		At: 15, Event: 0, Dim: 0,
		Pairs: []core.PairOutcome{
			{Lo: 0, Hi: 1, ReplicaI: 0, ReplicaJ: 1, Accepted: true},
			{Lo: 2, Hi: 3, ReplicaI: 2, ReplicaJ: 3, Accepted: false},
		},
		Slots:  []int{1, 0, 2, 3},
		EXWall: 2.5,
	})
	return col
}

func testServer(t *testing.T) (*httptest.Server, *analysis.Collector) {
	t.Helper()
	col := seededCollector()
	s := serve.New(col, func() serve.RunStatus {
		return serve.RunStatus{Name: "unit", Engine: "amber", Trigger: "barrier",
			State: "running", Replicas: 4, Cores: 4, CyclesTarget: 2, BusPublished: 4}
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, col
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var b strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return []byte(b.String())
}

func TestStatusEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	var st serve.RunStatus
	if err := json.Unmarshal(get(t, ts.URL+"/status"), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "running" || st.Name != "unit" || st.Trigger != "barrier" {
		t.Fatalf("status %+v", st)
	}
	// Collector counters are merged into the status view.
	if st.ExchangeEvents != 1 || st.MDSegments != 2 {
		t.Fatalf("status counters events=%d segments=%d, want 1/2", st.ExchangeEvents, st.MDSegments)
	}
	if st.Faults[core.FaultKindRelaunch] != 1 {
		t.Fatalf("status faults %v, want one relaunch", st.Faults)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, col := testServer(t)
	var stats analysis.Stats
	if err := json.Unmarshal(get(t, ts.URL+"/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	want := col.Snapshot()
	if stats.Events != want.Events || stats.MDSegments != want.MDSegments {
		t.Fatalf("stats %+v, collector %+v", stats, want)
	}
	if stats.Acceptance[0][0].Accepted != 1 || stats.Acceptance[0][2].Attempted != 1 {
		t.Fatalf("acceptance %v", stats.Acceptance)
	}
	if stats.Slots[0] != 1 || stats.Slots[1] != 0 {
		t.Fatalf("slots %v, want post-exchange assignment", stats.Slots)
	}
}

// metricLine matches one Prometheus sample line (metric name, optional
// labels whose quoted values may hold any escaped text, float value).
var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="([^"\\]|\\.)*",?)*\})? (NaN|[+-]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)

func TestMetricsEndpointWellFormed(t *testing.T) {
	ts, _ := testServer(t)
	body := string(get(t, ts.URL+"/metrics"))
	if !strings.HasSuffix(body, "\n") {
		t.Fatal("exposition must end with a newline")
	}
	typed := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Fatalf("malformed sample line %q", line)
		}
	}
	for _, m := range []string{
		"repex_exchange_events_total", "repex_md_segments_total",
		"repex_pair_acceptance_ratio", "repex_acceptance_ratio_window",
		"repex_acceptance_window_attempts", "repex_acceptance_window_events",
		"repex_md_exec_seconds",
		"repex_exchange_wall_seconds", "repex_bus_dropped_total",
	} {
		if _, ok := typed[m]; !ok {
			t.Fatalf("metric %s missing a TYPE declaration", m)
		}
	}
	if typed["repex_acceptance_ratio_window"] != "gauge" {
		t.Fatalf("repex_acceptance_ratio_window typed %q, want gauge", typed["repex_acceptance_ratio_window"])
	}
	// The seeded collector attempted pair (0,1) once (accepted) and pair
	// (2,3) once (rejected); the rolling window must show 1.0 for pair 0,
	// and the untouched pair (1,2) must expose zero attempts but NO ratio
	// sample — an empty window has no ratio, and 0 would read as
	// collapsed acceptance.
	if !strings.Contains(body, "repex_acceptance_ratio_window{dim=\"0\",pair=\"0\"} 1\n") {
		t.Fatal("windowed acceptance ratio for pair (0,1) missing or wrong")
	}
	if !strings.Contains(body, "repex_acceptance_window_attempts{dim=\"0\",pair=\"1\"} 0\n") {
		t.Fatal("windowed attempts for the untouched pair (1,2) missing or wrong")
	}
	if strings.Contains(body, "repex_acceptance_ratio_window{dim=\"0\",pair=\"1\"}") {
		t.Fatal("empty window emitted a ratio sample for pair (1,2)")
	}
	if typed["repex_md_exec_seconds"] != "histogram" {
		t.Fatalf("repex_md_exec_seconds typed %q, want histogram", typed["repex_md_exec_seconds"])
	}

	// Histogram buckets must be cumulative and capped by the +Inf
	// bucket, which must equal _count.
	bucket := regexp.MustCompile(`^repex_md_exec_seconds_bucket\{le="([^"]+)"\} ([0-9]+)$`)
	last := int64(-1)
	infSeen := false
	var inf, count int64
	for _, line := range strings.Split(body, "\n") {
		if m := bucket.FindStringSubmatch(line); m != nil {
			v, _ := strconv.ParseInt(m[2], 10, 64)
			if v < last {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			last = v
			if m[1] == "+Inf" {
				infSeen = true
				inf = v
			}
		}
		if strings.HasPrefix(line, "repex_md_exec_seconds_count ") {
			count, _ = strconv.ParseInt(strings.Fields(line)[1], 10, 64)
		}
	}
	if !infSeen {
		t.Fatal("no +Inf bucket")
	}
	// 2 final MD results + 1 relaunched attempt.
	if inf != count || count != 3 {
		t.Fatalf("+Inf bucket %d, _count %d, want both 3", inf, count)
	}
}

// TestListen: the server Listen returns serves the handler on the bound
// port, bounds a slow client's header read at 10 s and an idle
// keep-alive at 2 min, and stops on Close.
func TestListen(t *testing.T) {
	srv, lis, err := serve.Listen("127.0.0.1:0", serve.New(nil, nil).Handler())
	if err != nil {
		t.Fatal(err)
	}
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 2*time.Minute {
		t.Errorf("header timeout %v, idle timeout %v, want 10s and 2m0s", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	resp, err := http.Get("http://" + lis.Addr().String() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nil-source /status returned %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v after Close, want http.ErrServerClosed", err)
	}
}

// TestFeedbackControllerSurfaces: a status source carrying per-dim
// feedback controller state must surface it on /status (the feedback
// block) and /metrics (the repex_feedback_* gauges, notably the
// saturation diagnostic).
func TestFeedbackControllerSurfaces(t *testing.T) {
	feedback := []core.FeedbackDimStatus{
		{Dim: 0, Target: 0.4, Measured: 0.38, Outcomes: 32, Window: 120, MinReady: 3, Integral: 0.2, Active: true},
		{Dim: 1, Target: 0.25, Measured: 0.02, Outcomes: 32, Window: 800, MinReady: 0, Integral: 1.4, Active: true, Saturated: true},
	}
	s := serve.New(seededCollector(), func() serve.RunStatus {
		return serve.RunStatus{Name: "unit", Trigger: "feedback", State: "running", Feedback: feedback}
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var st serve.RunStatus
	if err := json.Unmarshal(get(t, ts.URL+"/status"), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Feedback) != 2 || !st.Feedback[1].Saturated || st.Feedback[0].Saturated {
		t.Fatalf("/status feedback block %+v", st.Feedback)
	}
	if st.Feedback[1].Window != 800 || st.Feedback[0].Target != 0.4 {
		t.Fatalf("/status feedback values lost: %+v", st.Feedback)
	}

	body := string(get(t, ts.URL+"/metrics"))
	for _, want := range []string{
		"# TYPE repex_feedback_saturated gauge",
		`repex_feedback_saturated{dim="0"} 0`,
		`repex_feedback_saturated{dim="1"} 1`,
		`repex_feedback_target{dim="1"} 0.25`,
		`repex_feedback_window_seconds{dim="1"} 800`,
		`repex_feedback_min_ready{dim="0"} 3`,
		`repex_feedback_acceptance_measured{dim="0"} 0.38`,
		`repex_feedback_integral{dim="1"} 1.4`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// Non-feedback runs must not emit the gauges at all.
	plain := serve.New(nil, func() serve.RunStatus { return serve.RunStatus{Trigger: "barrier"} })
	tp := httptest.NewServer(plain.Handler())
	t.Cleanup(tp.Close)
	if strings.Contains(string(get(t, tp.URL+"/metrics")), "repex_feedback_") {
		t.Fatal("feedback gauges emitted without a feedback controller")
	}
}
