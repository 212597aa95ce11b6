package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/config"
)

// wideLaunch is a 1024-window barrier T-REMD launch that finishes in two
// cycles: one run's share of a scrape is some 300 KB.
func wideLaunch(t testing.TB, seed int) *config.Launch {
	t.Helper()
	l, err := config.ParseLaunch([]byte(fmt.Sprintf(`{"sim": {"name": "wide-%d", "seed": %d,
		"dimensions": [{"type": "T", "count": 1024, "min": 273, "max": 373}],
		"cores_per_replica": 1, "steps_per_cycle": 2000, "cycles": 2},
		"res": {"machine": "supermic", "pilot_cores": 1024}}`, seed, seed)))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// wideRegistry holds finished wide runs, launched and awaited one by one,
// then one wide run that is listed but never started: a live run whose
// view holds still.
func wideRegistry(t testing.TB, finished int) *Registry {
	t.Helper()
	g := NewRegistry(0, 0)
	g.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	for i := 1; i <= finished; i++ {
		r, err := g.Launch(wideLaunch(t, i))
		if err != nil {
			t.Fatal(err)
		}
		<-r.Done()
	}
	r, err := NewRun(context.Background(), wideLaunch(t, finished+1), true, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	g.nextID++
	r.ID = fmt.Sprintf("r%d", g.nextID)
	r.srv.SetRunLabel(r.ID)
	g.runs = append(g.runs, r)
	g.mu.Unlock()
	return g
}

// scrape serves one GET through the registry's handler.
func scrape(t testing.TB, g *Registry, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 || !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("GET %s: %d, Content-Type %q", path, rec.Code, rec.Header().Get("Content-Type"))
	}
	return rec.Body.Bytes()
}

// sameExposition fails at the first line where got and want differ.
func sameExposition(t testing.TB, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs\n got: %s\nwant: %s", what, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d bytes in %d lines, want %d bytes in %d lines", what, len(got), len(gl), len(want), len(wl))
}

// TestStreamedScrapeEqualsBuffered: what the registry's handler serves on
// GET /metrics and GET /runs/{id}/metrics is, byte for byte,
// renderExposition of the same runs' views. Two finished runs and one
// live run, 1024 windows each: the aggregate body is some thirty times
// 32 KiB, so a streamed scrape writes it in many pieces that end
// mid-family and mid-run. Each aggregate scrape is served twice: the
// second one finds every finished run already scraped once.
func TestStreamedScrapeEqualsBuffered(t *testing.T) {
	g := wideRegistry(t, 2)
	runs := g.List()
	views := make([]runView, len(runs))
	for i, r := range runs {
		views[i] = r.srv.view()
	}
	for i := 0; i < 2; i++ {
		d := g.daemon(runs)
		want := renderExposition(&d, fixedProcess(), views)
		if len(want) < 16*32<<10 {
			t.Fatalf("the aggregate exposition is %d bytes: too small to span many chunks", len(want))
		}
		sameExposition(t, fmt.Sprintf("aggregate scrape %d", i+1), maskLive(scrape(t, g, "/metrics")), maskLive(want))
	}
	for i, r := range runs {
		sameExposition(t, "GET /runs/"+r.ID+"/metrics", scrape(t, g, "/runs/"+r.ID+"/metrics"),
			renderExposition(nil, nil, views[i:i+1]))
	}
}
