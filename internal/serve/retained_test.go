package serve_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestFinishedRunRetainedHeap bounds what a finished served run keeps:
// its simulation, report, collector, recorder and status, but neither
// the bus records its collector drained last nor the drain buffer that
// held them, nor pilot units carved for tasks it never had in flight.
// Sixteen 1 024-replica runs finish one after another in one registry,
// and the live heap they add is divided among them.
func TestFinishedRunRetainedHeap(t *testing.T) {
	if simcheck {
		t.Skip("under simcheck a run keeps a unit for every submission")
	}
	const runs, replicas = 16, 1024
	reg := serve.NewRegistry(replicas, 0)
	reg.SetTraceEvents(1024)
	defer reg.CancelAll()
	h := reg.Handler()
	res := `{"machine": "small", "nodes": 64, "cores_per_node": 16, "pilot_cores": 1024}`

	base := heapAfterGC()
	for i := 0; i < runs; i++ {
		rec := httptest.NewRecorder()
		body := launchBody(simBody(fmt.Sprintf("retain-%d", i), replicas, 2, int64(i+1)), res, "")
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/runs", strings.NewReader(body)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("launch %d: %d %s", i, rec.Code, rec.Body)
		}
		if !reg.Wait(30 * time.Second) {
			t.Fatalf("run %d did not finish", i)
		}
	}
	for _, run := range reg.List() {
		if st := run.State(); st.String() != "completed" {
			t.Fatalf("run %s ended %s", run.ID, st)
		}
	}
	perRun := (float64(heapAfterGC()) - float64(base)) / runs
	runtime.KeepAlive(reg)
	t.Logf("retained heap per finished %d-replica run: %.0f KB", replicas, perRun/1024)
	// A finished run keeps 1 220-1 308 KB (1 371-1 380 KB while its bus
	// batch and the pair outcomes' last chunk outlived the run; 1 522 KB
	// with that chunk alone kept), so a run that keeps ~10 % more fails.
	// Leaving its last records on the bus, keeping the drain buffer after
	// the final sync, and doubling unit chunks (a second 1 024-unit chunk
	// for a peak a few units past 1 024) each added 150-400 KB.
	if limit := 1360.0 * (1 << 10); perRun > limit {
		t.Errorf("a finished run retains %.0f KB of heap, want at most %.0f KB", perRun/1024, limit/1024)
	}
}
