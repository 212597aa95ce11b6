package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/serve"
)

// flushSignal is a streaming response the handler can flush; attached
// closes at the first flush, which is when an SSE handler has subscribed
// and sent its headers. The body is discarded.
type flushSignal struct {
	header   http.Header
	once     sync.Once
	attached chan struct{}
}

func (w *flushSignal) Header() http.Header         { return w.header }
func (w *flushSignal) WriteHeader(int)             {}
func (w *flushSignal) Write(p []byte) (int, error) { return len(p), nil }
func (w *flushSignal) Flush()                      { w.once.Do(func() { close(w.attached) }) }

// resWalltime8 is resBody8 with a walltime no soak run reaches: each
// pilot's watchdog stays parked for the whole run.
const resWalltime8 = `{"machine": "small", "nodes": 1, "cores_per_node": 8, "pilot_cores": 8, "walltime_sec": 1e9}`

// heapAfterGC is the live heap once everything unreachable is collected.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRegistrySoak drives one registry through its handler for a few
// hundred launch / SSE attach-and-drop / PATCH /pool / DELETE cycles, two
// runs alive at a time, an aggregate scrape every fourth cycle, and then
// checks what a long-lived daemon must
// conserve: every run terminal, no pool core still reserved, the
// goroutine count back where it started, and the run list and the heap
// no larger at the end than half-way through.
//
// Every eighth run's engine panics in its third round, with its pilot's
// walltime watchdog parked: the run ends failed, and its kernel's
// parked processes must be unwound (sim.Env.Close), or each such run
// leaves a goroutine holding its whole simulation.
//
// The registry remembers 256 terminal runs (serve's retainedRuns), so
// the 300 measured cycles come after as many warm-up cycles of the same
// shape: the list is then at its bound at cycle 150 and at cycle 300, and
// the two heap readings compare like with like. Each run gets a small
// flight recorder, or 256 default-sized ones would be most of the heap.
func TestRegistrySoak(t *testing.T) {
	const retained = 256
	warm, cycles := retained, 300
	if testing.Short() {
		warm, cycles = 0, 40
	}
	before := runtime.NumGoroutine()
	reg := serve.NewRegistry(24, 0)
	reg.SetTraceEvents(1024)
	defer reg.CancelAll() // a failed cycle must not leave its runs spinning
	h := reg.Handler()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}

	// attach opens an event stream on a run and returns once the handler
	// has subscribed: ended closes when the handler returns, drop is the
	// client going away.
	attach := func(id string) (ended chan struct{}, drop context.CancelFunc) {
		ctx, drop := context.WithCancel(context.Background())
		w := &flushSignal{header: http.Header{}, attached: make(chan struct{})}
		ended = make(chan struct{})
		go func() {
			defer close(ended)
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/runs/"+id+"/events", nil).WithContext(ctx))
		}()
		<-w.attached
		return ended, drop
	}

	prev := ""
	// The stream an odd cycle left attached, and its request's cancel.
	var open chan struct{}
	var closeOpen context.CancelFunc
	// retire cancels the previous cycle's run, waits until the registry
	// has handed back its cores (it does so just after the run ends; the
	// next launch needs them) and until the stream left on it has ended
	// with it.
	retire := func() {
		if prev == "" {
			return
		}
		if rec := do(http.MethodDelete, "/runs/"+prev, ""); rec.Code != http.StatusAccepted {
			t.Fatalf("DELETE %s: %d", prev, rec.Code)
		}
		for deadline := time.Now().Add(30 * time.Second); reg.Pool().Used() > 8; {
			if time.Now().After(deadline) {
				t.Fatalf("run %s still holds its cores after DELETE", prev)
			}
			time.Sleep(100 * time.Microsecond)
		}
		if open != nil {
			<-open
			closeOpen()
			open = nil
		}
	}
	var heapHalfway uint64
	var doomed []*serve.Run
	for i := 0; i < warm+cycles; i++ {
		if i == warm+cycles/2 {
			heapHalfway = heapAfterGC()
		}
		// Every eighth run is short enough to finish before its DELETE.
		runCycles := 20000
		if i%8 == 7 {
			runCycles = 2
		}
		sim := simBody(fmt.Sprintf("soak-%d", i), 8, runCycles, int64(i+1))
		var st serve.RunStatus
		if i%8 == 3 {
			l, err := config.ParseLaunch([]byte(launchBody(sim, resWalltime8, "")))
			if err != nil {
				t.Fatal(err)
			}
			run, err := reg.LaunchDoomed(l)
			if err != nil {
				t.Fatalf("cycle %d: launch: %v", i, err)
			}
			// It must reach its third round before the next cycle's
			// DELETE cancels it.
			select {
			case <-run.Done():
			case <-time.After(30 * time.Second):
				t.Fatalf("cycle %d: run %s with a panicking engine never ended", i, run.ID)
			}
			st.ID = run.ID
			doomed = append(doomed, run)
		} else {
			rec := do(http.MethodPost, "/runs", launchBody(sim, resBody8, ""))
			if rec.Code != http.StatusCreated {
				t.Fatalf("cycle %d: launch: %d %s", i, rec.Code, rec.Body)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
		}

		// Attach an event stream; even cycles drop it while the run is
		// alive, odd ones leave it to end with the run's done event.
		ended, drop := attach(st.ID)
		if i%2 == 0 {
			drop()
			<-ended
		}

		// Two 8-core runs are alive at most, so both totals admit the
		// next launch.
		total := 16 + 8*(i%2)
		if rec := do(http.MethodPatch, "/pool", fmt.Sprintf(`{"total_cores": %d}`, total)); rec.Code != http.StatusOK {
			t.Fatalf("cycle %d: PATCH /pool: %d %s", i, rec.Code, rec.Body)
		}

		retire()
		prev = st.ID
		if i%2 == 1 {
			open, closeOpen = ended, drop
		}
		// Every fourth cycle scrapes the aggregate /metrics, which keeps
		// each finished run's share from then on.
		if i%4 == 0 {
			if rec := do(http.MethodGet, "/metrics", ""); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `run="`+st.ID+`"`) {
				t.Fatalf("cycle %d: GET /metrics: %d, %d bytes without run %s", i, rec.Code, rec.Body.Len(), st.ID)
			}
		}
		// This cycle's run and, until its cores came back, the one before.
		if n := len(reg.List()); n > retained+2 {
			t.Fatalf("cycle %d: %d runs listed, want at most %d terminal + 2 active", i, n, retained)
		}
	}
	retire()
	if !reg.Wait(30 * time.Second) {
		t.Fatal("registry did not drain")
	}

	for _, run := range reg.List() {
		if !run.State().Terminal() {
			t.Errorf("run %s ended the soak %s", run.ID, run.State())
		}
	}
	for _, run := range doomed {
		if _, err := run.Result(); run.State().String() != "failed" || !strings.Contains(fmt.Sprint(err), "engine blew up") {
			t.Errorf("run %s with a panicking engine ended %s: %v", run.ID, run.State(), err)
		}
	}
	if line := fmt.Sprintf("\nrepexd_run_panics_total %d\n", len(doomed)); !strings.Contains(do(http.MethodGet, "/metrics", "").Body.String(), line) {
		t.Errorf("the aggregate scrape has no line %q", strings.TrimSpace(line))
	}
	if want := fmt.Sprintf("r%d", warm+cycles); prev != want {
		t.Errorf("last run is %s, want %s: ids count launches, evicted or not", prev, want)
	}
	if warm > 0 {
		if rec := do(http.MethodGet, "/runs/r1", ""); rec.Code != http.StatusNotFound {
			t.Errorf("GET /runs/r1 after its eviction: %d, want 404", rec.Code)
		}
		end := heapAfterGC()
		t.Logf("heap %d KB at cycle %d, %d KB at cycle %d", heapHalfway>>10, cycles/2, end>>10, cycles)
		if float64(end) > 1.1*float64(heapHalfway) {
			t.Errorf("heap %d KB at cycle %d, %d KB at cycle %d: more than 10%% growth with the run list at its bound",
				heapHalfway>>10, cycles/2, end>>10, cycles)
		}
		// The 256 retained runs and the rest read 44-66 MB; carving a
		// cancelled run's slot rows for its whole schedule at its first
		// exchange event read 425-483 MB.
		const limit = 160 << 20
		if end > limit {
			t.Errorf("heap %d KB at cycle %d with %d runs retained, want at most %d KB", end>>10, cycles, retained, limit>>10)
		}
	}
	if used := reg.Pool().Used(); used != 0 {
		t.Errorf("pool has %d cores reserved after the drain", used)
	}
	// The last streams and waiters unwind just after done closes.
	const slack = 4
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+slack && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before+slack {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the soak, %d after %d cycles\n%s",
			before, now, cycles, buf[:runtime.Stack(buf, true)])
	}
}
