package serve

import (
	"math"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// fold puts each runtime bucket under the first bound at or above its
// upper edge — [0, 2µs) under 10µs, since it may hold 1.5µs — the open
// ends included, and sums lower edges.
func TestFoldRuntimeHistogram(t *testing.T) {
	rh := &metrics.Float64Histogram{
		Buckets: []float64{math.Inf(-1), 0, 2e-6, 5e-6, 1e-5, 3e-3, 2, math.Inf(1)},
		Counts:  []uint64{1, 4, 0, 2, 3, 1, 5},
	}
	h := analysis.NewHistogram(gcPauseBounds)
	fold(&h, rh)
	// Bounds 1e-6 1e-5 1e-4 1e-3 1e-2 0.1 1, then +Inf.
	want := []uint64{1, 4 + 2, 0, 0, 3, 0, 0, 1 + 5}
	for i := range want {
		if h.Counts[i] != want[i] {
			t.Fatalf("counts %v, want %v", h.Counts, want)
		}
	}
	if h.Count != 16 {
		t.Fatalf("count %d, want 16", h.Count)
	}
	// The -Inf bucket counts at its upper edge, 0.
	if sum := 0 + 4*0 + 2*5e-6 + 3*1e-5 + 1*3e-3 + 5*2; math.Abs(h.Sum-sum) > 1e-12 {
		t.Fatalf("sum %g, want %g", h.Sum, sum)
	}
}

// readProcess reads this process: its GOMAXPROCS, goroutines, a heap goal
// above the live heap, a pause count that matches its buckets, and an
// allocation counter that moves when this test allocates. The runtime
// counts allocations a span at a time, so the test asks for most of
// them, not all.
func TestReadProcess(t *testing.T) {
	p := readProcess()
	if p.gomaxprocs != uint64(runtime.GOMAXPROCS(0)) || p.goroutines == 0 || p.goVersion != runtime.Version() {
		t.Fatalf("gomaxprocs %d goroutines %d go %q", p.gomaxprocs, p.goroutines, p.goVersion)
	}
	runtime.GC()
	p = readProcess()
	if p.gcCycles == 0 || p.heapLive == 0 || p.heapGoal < p.heapLive || p.pauses.Count == 0 {
		t.Fatalf("after a GC: cycles %d live %d goal %d pauses %d", p.gcCycles, p.heapLive, p.heapGoal, p.pauses.Count)
	}
	var n uint64
	for _, c := range p.pauses.Counts {
		n += c
	}
	if n != p.pauses.Count {
		t.Fatalf("pause buckets hold %d, count %d", n, p.pauses.Count)
	}
	keep := make([]*[64]byte, 10000)
	for i := range keep {
		keep[i] = new([64]byte)
	}
	if after := readProcess(); after.heapAllocs < p.heapAllocs+9000 {
		t.Fatalf("allocations went %d → %d over 10000 objects", p.heapAllocs, after.heapAllocs)
	}
	runtime.KeepAlive(keep)
}

// The single-run server's /metrics carries the runtime block after the
// run's rows.
func TestSingleRunServerRuntimeBlock(t *testing.T) {
	rec := httptest.NewRecorder()
	New(nil, nil).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	run := strings.Index(body, "\nrepex_bus_dropped_total ")
	block := strings.Index(body, "\ngo_gc_heap_allocs_objects_total ")
	if run < 0 || block < run || strings.Contains(body, "repexd_") {
		t.Fatalf("single-run scrape without the runtime block after the run's rows:\n%s", body)
	}
}
