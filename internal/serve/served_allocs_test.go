package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// flushDiscard is a streaming response that discards its body, so an
// event stream served into it allocates nothing for the client's side.
type flushDiscard struct{ discardWriter }

func (flushDiscard) Flush() {}

// servedRunAllocs launches runs 1 024-rung window-trigger runs, one
// after another, through a registry's handler, each the way a
// repexd client drives it: POST /runs, its event stream to the done
// event, one aggregate /metrics scrape and one GET /runs/{id}/stats.
// It returns the objects the process allocated over them a completion.
func servedRunAllocs(t *testing.T, runs int) float64 {
	t.Helper()
	g := NewRegistry(0, 0)
	g.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	h := g.Handler()
	serve := func(method, path, body string) {
		w := flushDiscard{discardWriter{header: http.Header{}}}
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	completions := 0
	for i := 0; i < runs; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/runs", strings.NewReader(fmt.Sprintf(
			`{"sim":{"name":"served-%d","engine":"amber","atoms":2881,`+
				`"dimensions":[{"type":"T","count":1024,"min":273,"max":373}],"trigger":"window",`+
				`"async_window_sec":100,"cores_per_replica":1,"steps_per_cycle":6000,"cycles":8,"seed":%d},`+
				`"res":{"machine":"supermic","pilot_cores":1024}}`, i, i+1))))
		var st RunStatus
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
			t.Fatalf("launch %d: %d %s", i, rec.Code, rec.Body)
		}
		serve(http.MethodGet, "/runs/"+st.ID+"/events", "")
		serve(http.MethodGet, "/metrics", "")
		serve(http.MethodGet, "/runs/"+st.ID+"/stats", "")
		run, _ := g.Get(st.ID)
		rep, err := run.Result()
		if err != nil || run.State() != core.RunCompleted {
			t.Fatalf("run %s ended %s: %v", st.ID, run.State(), err)
		}
		for _, r := range rep.Records {
			completions += r.MD.Tasks
		}
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-mallocs) / float64(completions)
}

// TestServedRunAllocations bounds what a served run allocates a
// completion, all of the process counted: the run itself, its collector
// and observers, and the four requests a client makes of it (the
// repexd_http_2c workload's cycle, one client at a time). The least of
// three passes of four runs is taken; the process's one-off costs are
// paid by a warm-up pass first. It read 0.1339-0.1349 when a pair
// window's storage was one allocation a ladder pair, the per-run Server
// built a route table it never used, and /stats and the event stream's
// frames went through encoding/json; 0.0621-0.0644 since, and
// 0.0554-0.0571 once slot rows and pair outcomes were carved from
// per-run slabs, the bus ring swapped buffers with its drain and a
// /stats read copied its rows into one array a type. The bound leaves
// some 5 % for the toolchain and the collector's timing.
func TestServedRunAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates beside the run")
	}
	servedRunAllocs(t, 1)
	got := servedRunAllocs(t, 4)
	for range 2 {
		got = min(got, servedRunAllocs(t, 4))
	}
	t.Logf("a served 1 024-rung run allocates %.4f objects a completion", got)
	const bound = 0.060
	if got > bound {
		t.Errorf("a served 1 024-rung run allocates %.4f objects a completion, want at most %.4f", got, bound)
	}
}
