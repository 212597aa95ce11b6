package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestNewDefaultCapacity(t *testing.T) {
	if c := New(0).Capacity(); c != DefaultCapacity {
		t.Fatalf("New(0) capacity %d, want %d", c, DefaultCapacity)
	}
	if c := New(-3).Capacity(); c != DefaultCapacity {
		t.Fatalf("New(-3) capacity %d, want %d", c, DefaultCapacity)
	}
	if c := New(7).Capacity(); c != 7 {
		t.Fatalf("New(7) capacity %d, want 7", c)
	}
}

// TestRingDropOldest is the bounded-recorder contract: a full ring
// evicts the oldest span per new record, counts every eviction, and
// Snapshot returns the retained window oldest-first.
func TestRingDropOldest(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Record(Span{Kind: KindMD, Event: i})
	}
	if got := r.Recorded(); got != 10 {
		t.Fatalf("recorded %d, want 10", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("dropped %d, want 6", got)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot %d spans, want 4", len(snap))
	}
	for i, sp := range snap {
		if sp.Event != 6+i {
			t.Fatalf("snapshot[%d].Event = %d, want %d (oldest-first tail)", i, sp.Event, 6+i)
		}
	}
}

// TestNilRecorderSafe: every method no-ops on a nil receiver, so call
// sites record unconditionally without tracer-presence branches.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(Span{Kind: KindExchange})
	if r.Snapshot() != nil || r.Capacity() != 0 || r.Recorded() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	if _, err := r.ExportJSON(); err != nil {
		t.Fatalf("nil recorder export: %v", err)
	}
}

// sampleSpans covers every kind, including a failed MD segment and a
// saturated controller decision.
func sampleSpans() []Span {
	return []Span{
		{Kind: KindMD, Start: 0, Dur: 10, Replica: 0, Dim: 0, Pilot: 0, Event: 0, Retries: 0},
		{Kind: KindMD, Start: 0, Dur: 12, Replica: 1, Dim: 0, Pilot: 1, Event: 0, Retries: 2, Label: "failed"},
		{Kind: KindFault, Start: 5, Replica: 1, Retries: 1, Label: "relaunch"},
		{Kind: KindSPE, Start: 12, Dur: 3, Dim: 1, Event: 0, Pairs: 8},
		{Kind: KindPairs, Start: 15, Dim: 1, Event: 0, Pairs: 4, Accepted: 2},
		{Kind: KindExchange, Start: 12, Dur: 3.5, Dim: 1, Event: 0, Pairs: 4, Accepted: 2},
		{Kind: KindController, Start: 15.5, Dim: 1, Event: 0, Pairs: 4, Window: 30, Measured: 0.5, MinReady: 2, Label: "saturated"},
		{Kind: KindCheckpoint, Start: 15.5, Event: 1},
	}
}

// TestExportChromeTraceValidity: the export is a loadable Chrome
// trace-event JSON object — every event is a complete ("X") or metadata
// ("M") event with non-negative timestamps, MD spans appear on both the
// replica and the executing pilot's track, and every referenced track
// carries thread_name metadata.
func TestExportChromeTraceValidity(t *testing.T) {
	data, err := Export(sampleSpans())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q, want ms", doc.DisplayTimeUnit)
	}
	named := map[[2]int]bool{} // tracks with thread_name metadata
	used := map[[2]int]bool{}  // tracks referenced by X events
	var mdTracks [][2]int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				named[[2]int{ev.Pid, ev.Tid}] = true
			}
		case "X":
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Fatalf("event %q has negative ts/dur: %v/%v", ev.Name, ev.Ts, ev.Dur)
			}
			used[[2]int{ev.Pid, ev.Tid}] = true
			if ev.Name == "md" || ev.Name == "md (failed)" {
				mdTracks = append(mdTracks, [2]int{ev.Pid, ev.Tid})
			}
		default:
			t.Fatalf("unexpected phase %q (only complete and metadata events are emitted)", ev.Ph)
		}
	}
	for track := range used {
		if !named[track] {
			t.Fatalf("track pid=%d tid=%d has events but no thread_name metadata", track[0], track[1])
		}
	}
	// Each MD span is emitted twice: replica track (pid 2) and pilot
	// track (pid 3). sampleSpans has two MD spans -> four events.
	if len(mdTracks) != 4 {
		t.Fatalf("%d md events, want 4 (2 spans x replica+pilot track)", len(mdTracks))
	}
	pids := map[int]int{}
	for _, tr := range mdTracks {
		pids[tr[0]]++
	}
	if pids[pidReplicas] != 2 || pids[pidPilots] != 2 {
		t.Fatalf("md events per pid = %v, want 2 on replicas (pid %d) and 2 on pilots (pid %d)",
			pids, pidReplicas, pidPilots)
	}
	// Virtual seconds surface as microseconds.
	wantTs := 12 * usPerSecond
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "spe" && ev.Ts == wantTs {
			found = true
		}
	}
	if !found {
		t.Fatalf("spe span at 12s not exported at ts=%v us", wantTs)
	}
}

// TestExportDeterministic: the same span slice always renders the same
// bytes (metadata is sorted, maps marshal with sorted keys), so golden
// comparisons and repeated scrapes are stable.
func TestExportDeterministic(t *testing.T) {
	a, err := Export(sampleSpans())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Export(sampleSpans())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two exports of the same spans differ")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindMD: "md", KindExchange: "exchange", KindSPE: "spe",
		KindPairs: "pairs", KindCheckpoint: "checkpoint",
		KindController: "controller", KindFault: "fault", Kind(99): "kind(99)",
	} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// The ring keeps spans compacted, labels by index: a snapshot returns
// every recorded span field for field, labels included, before and after
// the ring wraps.
func TestSnapshotReturnsRecordedSpans(t *testing.T) {
	spans := sampleSpans()
	r := New(len(spans))
	for _, sp := range spans {
		r.Record(sp)
	}
	if got := r.Snapshot(); !reflect.DeepEqual(got, spans) {
		t.Fatalf("snapshot %+v, want %+v", got, spans)
	}
	r.Record(spans[1])
	if got, want := r.Snapshot(), append(spans[1:len(spans):len(spans)], spans[1]); !reflect.DeepEqual(got, want) {
		t.Fatalf("after wrapping: snapshot %+v, want %+v", got, want)
	}
}
