package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// otherEvent is a bus event of no type the stream names: it carries the
// closed set's marker through an embedded MDEvent.
type otherEvent struct{ core.MDEvent }

// write writes one bus event's frame to w, as a stream would alone.
func (f *sseFrame) write(w io.Writer, ev core.Event) {
	f.add(ev)
	f.send(w)
}

// TestSSEFrames: one stream's frame writes each bus event as
// "event: <name>\ndata: <json.Marshal of the event>\n\n", named by its
// concrete type, and nothing for an event JSON cannot encode.
func TestSSEFrames(t *testing.T) {
	events := []struct {
		name string
		ev   core.Event
	}{
		{"md", core.MDEvent{At: 1.5, Replica: 3, Cycle: 2, Exec: 0.25}},
		{"md", core.MDEvent{At: 2, Replica: 4, Cycle: 1, Exec: 1e-7, Failed: true}},
		{"exchange", core.ExchangeEvent{At: 2.5, Event: 7, Cycle: 3, Dim: 1,
			Pairs: []core.PairOutcome{{Lo: 0, Hi: 1, ReplicaI: 2, ReplicaJ: 0, Accepted: true}, {Lo: 2, Hi: 4, ReplicaI: 1, ReplicaJ: 3}},
			Slots: []int{1, 2, 0, 4, 3}, MDWall: 3000000, EXWall: 2.1e-05}},
		{"exchange", core.ExchangeEvent{}},
		{"fault", core.FaultEvent{At: 3, Replica: 1, Kind: "odd <kind> & \"quote\"", Retries: 2, Exec: 0.5}},
		{"respace", core.RespaceEvent{At: 4, Event: 9, Dim: 0, Refit: 1, Old: []float64{300, 310}, New: []float64{300, 305.5}}},
		{"resource", core.ResourceEvent{At: 5, Pilot: 1, Kind: "preempt", Cores: 8, Delta: -8, Notice: 120}},
		{"", core.MDEvent{Exec: math.NaN()}},
		{"event", otherEvent{core.MDEvent{At: 6}}},
	}
	var got, want bytes.Buffer
	var f sseFrame
	for _, e := range events {
		f.write(&got, e.ev)
		if data, err := json.Marshal(e.ev); err == nil {
			fmt.Fprintf(&want, "event: %s\ndata: %s\n\n", e.name, data)
		}
	}
	sameExposition(t, "event stream", got.Bytes(), want.Bytes())
	// A warm frame allocates nothing, under the race detector too: its
	// layout writes into the stream's one buffer. (A fault kind that
	// needs escaping is quoted by encoding/json, which allocates.)
	for _, e := range events[:7] {
		if e.name == "fault" {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { f.write(io.Discard, e.ev) }); n > 0 {
			t.Errorf("%s frame: %.1f allocations, want 0", e.name, n)
		}
	}
}

// TestEventStreamRows: an open event stream counts in
// repexd_sse_subscribers until its client leaves, and the records its
// ring drops reach repexd_sse_dropped_events_total at its next drain.
func TestEventStreamRows(t *testing.T) {
	g := NewRegistry(0, 0)
	g.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	r, err := NewRun(context.Background(), smallLaunch(t, "idle", 1), true, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.ID = "r1"
	g.runs = append(g.runs, r) // listed, never started: only this test publishes
	scrapeRow := func(name string) string {
		for _, l := range strings.Split(string(scrape(t, g, "/metrics")), "\n") {
			if v, ok := strings.CutPrefix(l, name+" "); ok {
				return v
			}
		}
		return ""
	}
	await := func(name, want string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); scrapeRow(name) != want; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s reads %q, want %s", name, scrapeRow(name), want)
			}
		}
	}
	ctx, leave := context.WithCancel(context.Background())
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		req := httptest.NewRequest("GET", "/runs/r1/events", nil).WithContext(ctx)
		g.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	await("repexd_sse_subscribers", "1")
	// One batch takes the ring's lock once: 4096 records stay, 904 drop,
	// however the stream's drains interleave.
	batch := make([]core.Event, 5000)
	for i := range batch {
		batch[i] = core.MDEvent{Replica: i % 8, Cycle: 1 + i/8}
	}
	r.Spec().Bus.PublishBatch(batch)
	await("repexd_sse_dropped_events_total", "904")
	leave()
	<-streamed
	await("repexd_sse_subscribers", "0")
	await("repexd_sse_dropped_events_total", "904")
}

// TestFrameLayoutsMatchFields holds each frame's layout to its event's
// fields, the keys encoding/json writes for a struct without tags: a
// field added, renamed or moved in one place only fails here.
func TestFrameLayoutsMatchFields(t *testing.T) {
	for _, err := range []error{
		mdLayout.CheckTags(),
		pairOutcomeLayout.CheckTags(),
		exchangeLayout.CheckTags(),
		faultLayout.CheckTags(),
		respaceLayout.CheckTags(),
		resourceLayout.CheckTags(),
	} {
		if err != nil {
			t.Error(err)
		}
	}
}
