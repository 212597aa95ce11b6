package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
)

// respaceSmallLaunch is the committed respace walkthrough as one launch
// body: configs/respace_small.json on configs/small_cluster_16.json.
func respaceSmallLaunch(t *testing.T) *config.Launch {
	t.Helper()
	sim, err := os.ReadFile("../../configs/respace_small.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := os.ReadFile("../../configs/small_cluster_16.json")
	if err != nil {
		t.Fatal(err)
	}
	l, err := config.ParseLaunch(fmt.Appendf(nil, `{"sim": %s, "res": %s}`, sim, res))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestServedRespaceGolden pins what a served refitting run reports about
// its refits: the /status respace block, the repex_respacings_total and
// repex_ladder_value lines of its /metrics, and its SSE respace frames.
// The golden was written by the code that kept a refit counter beside
// the refit history and a respace event beside the refit record; a refit
// ordinal off by one, a ladder that is not the last record's New or a
// count that disagrees with the history shows up here. Never regenerate
// it.
func TestServedRespaceGolden(t *testing.T) {
	g := NewRegistry(0, 0)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	g.SetLogger(quiet)
	r, err := NewRun(context.Background(), respaceSmallLaunch(t), true, false, 0)
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

	status := httptest.NewRecorder()
	g.Handler().ServeHTTP(status, httptest.NewRequest("GET", "/runs/"+r.ID+"/status", nil))
	var st struct {
		Respace json.RawMessage `json:"respace"`
	}
	if err := json.Unmarshal(status.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Respace) == 0 {
		t.Fatal("/status carries no respace block")
	}
	metrics := httptest.NewRecorder()
	g.Handler().ServeHTTP(metrics, httptest.NewRequest("GET", "/runs/"+r.ID+"/metrics", nil))

	got := fmt.Appendf(nil, "### status respace\n%s\n### metrics\n", st.Respace)
	for _, line := range strings.Split(metrics.Body.String(), "\n") {
		if strings.Contains(line, "repex_respacings_total") || strings.Contains(line, "repex_ladder_value") {
			got = fmt.Appendf(got, "%s\n", line)
		}
	}
	got = fmt.Appendf(got, "### events\n")
	frames := 0
	for _, frame := range bytes.SplitAfter(stream.Body.Bytes(), []byte("\n\n")) {
		if bytes.HasPrefix(frame, []byte("event: respace\n")) {
			got = append(got, frame...)
			frames++
		}
	}
	if frames == 0 {
		t.Fatal("the run published no respace frame")
	}
	checkGolden(t, "testdata/served_respace.golden", got)
}

// TestRespaceStatusNeverTorn polls Run.Status while feedback runs refit
// and holds every read to the refit record: the per-dimension refit
// counts add up to the history's length, and each dimension's ladder is
// the New of its last record, or its configured ladder when it has none.
// A refit that published its ladder and its record in two critical
// sections fails it on some runs (4 in 10 under -race on two vCPUs: the
// window between the sections is a few instructions wide); under -race
// it also checks that status reads touch nothing a refit writes.
func TestRespaceStatusNeverTorn(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	reads, refitting := 0, 0
	for i := 0; i < 32; i++ {
		l := respaceSmallLaunch(t)
		original := make([][]float64, len(l.Sim.Dimensions))
		for d, dim := range l.Sim.Dimensions {
			original[d] = append([]float64(nil), dim.Values...)
		}
		r, err := NewRun(context.Background(), l, true, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		r.Start(quiet)
		for done := false; !done; {
			select {
			case <-r.Done():
				done = true
			default:
			}
			rs := r.Status().Respace
			if rs == nil || rs.Refits == nil {
				continue
			}
			reads++
			if len(rs.History) > 0 {
				refitting++
			}
			if err := checkRespaceStatus(rs, original); err != nil {
				t.Fatalf("run %d, read %d: %v", i, reads, err)
			}
		}
		if _, err := r.Result(); err != nil {
			t.Fatal(err)
		}
	}
	if refitting == 0 {
		t.Fatalf("none of %d reads saw a refit", reads)
	}
}

// checkRespaceStatus is TestRespaceStatusNeverTorn's invariant.
func checkRespaceStatus(rs *RespaceStatus, original [][]float64) error {
	total := 0
	for _, n := range rs.Refits {
		total += n
	}
	if total != len(rs.History) {
		return fmt.Errorf("refits %v add up to %d, history has %d records", rs.Refits, total, len(rs.History))
	}
	for d, ladder := range rs.Ladders {
		want := original[d]
		for _, rec := range rs.History {
			if rec.Dim == d {
				want = rec.New
			}
		}
		if !slices.Equal(ladder, want) {
			return fmt.Errorf("dimension %d ladder %v, its refit record says %v", d, ladder, want)
		}
	}
	return nil
}
