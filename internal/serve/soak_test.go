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

// TestRegistrySoak drives one registry through its handler for a few
// hundred launch / SSE attach-and-drop / PATCH /pool / DELETE cycles, two
// runs alive at a time, and then checks what a long-lived daemon must
// conserve: every run terminal, no pool core still reserved, and the
// goroutine count back where it started.
func TestRegistrySoak(t *testing.T) {
	cycles := 200
	if testing.Short() {
		cycles = 40
	}
	before := runtime.NumGoroutine()
	reg := serve.NewRegistry(24, 0)
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
	for i := 0; i < cycles; i++ {
		// Every eighth run is short enough to finish before its DELETE.
		runCycles := 20000
		if i%8 == 7 {
			runCycles = 2
		}
		rec := do(http.MethodPost, "/runs",
			launchBody(simBody(fmt.Sprintf("soak-%d", i), 8, runCycles, int64(i+1)), resBody8, ""))
		if rec.Code != http.StatusCreated {
			t.Fatalf("cycle %d: launch: %d %s", i, rec.Code, rec.Body)
		}
		var st serve.RunStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
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
