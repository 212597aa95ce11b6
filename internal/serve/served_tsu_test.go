package serve

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/config"
)

// servedTSULaunch is a small TSU-shaped run: a 3 x 2 x 3 temperature x
// salt x umbrella grid (single-point tasks on every salt exchange,
// restraints swapped on every umbrella one) under a window trigger, a
// core per replica, with injected faults relaunched. Its ladders are
// close enough that every dimension accepts swaps, so its event stream
// carries every kind of MD, exchange, fault and resource record, and
// every salt exchange runs single-point tasks.
const servedTSULaunch = `{"sim": {"name": "served-tsu", "engine": "amber", "atoms": 2881,
	"dimensions": [
		{"type": "T", "values": [300, 304, 308]},
		{"type": "S", "values": [0.1, 0.12]},
		{"type": "U", "values": [0, 12, 24], "torsion": "phi"}],
	"trigger": "window", "async_window_sec": 40, "fault_policy": "relaunch",
	"cores_per_replica": 1, "steps_per_cycle": 2000, "cycles": 6, "seed": 11},
	"res": {"machine": "small", "nodes": 3, "cores_per_node": 8, "pilot_cores": 18,
	"failure_prob": 0.08, "seed": 3}}`

// TestServedTSUGolden pins what a served run hands out: the bytes of its
// event stream from the first record to "done", its /stats body, its
// collector's EncodeState bytes and its report's fingerprint. The stream
// attaches before the run starts, so it holds every record the run
// published. The golden was generated before MD records travelled the bus
// by value and before the exchange phase reused its specs, units and
// parameter arrays; never regenerate it.
func TestServedTSUGolden(t *testing.T) {
	l, err := config.ParseLaunch([]byte(servedTSULaunch))
	if err != nil {
		t.Fatal(err)
	}
	g := NewRegistry(0, 0)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	g.SetLogger(quiet)
	r, err := NewRun(context.Background(), l, true, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	g.nextID++
	r.ID = fmt.Sprintf("r%d", g.nextID)
	r.srv.SetRunLabel(r.ID)
	g.runs = append(g.runs, r)
	g.mu.Unlock()

	stream := httptest.NewRecorder()
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		g.Handler().ServeHTTP(stream, httptest.NewRequest("GET", "/runs/"+r.ID+"/events", nil))
	}()
	for g.streams.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	r.Start(quiet)
	<-streamed

	stats := httptest.NewRecorder()
	g.Handler().ServeHTTP(stats, httptest.NewRequest("GET", "/runs/"+r.ID+"/stats", nil))
	state, err := r.Collector().EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	got = fmt.Appendf(got, "### report\nfingerprint %016x rows %d events %d relaunches %d dropped %d end %016x\n",
		rep.SlotFingerprint, rep.SlotRows, rep.ExchangeEvents, rep.Relaunches, rep.Dropped, math.Float64bits(rep.End))
	got = fmt.Appendf(got, "### events\n%s", stream.Body.Bytes())
	got = fmt.Appendf(got, "### stats\n%s", stats.Body.Bytes())
	got = fmt.Appendf(got, "### state\n%s\n", state)
	checkGolden(t, "testdata/served_tsu.golden", got)
}
