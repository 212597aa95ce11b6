package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// pinnedStates returns the collector states embedded in the pinned
// format-2 checkpoints of internal/core/testdata (written by the
// reflection encoder, never regenerated), keyed by file name.
func pinnedStates(t testing.TB) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range []string{"snapshot_v2_tsu.json", "snapshot_v2_feedback_respaced.json"} {
		data, err := os.ReadFile(filepath.Join("..", "core", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var sn struct {
			Analysis json.RawMessage `json:"analysis"`
		}
		if err := json.Unmarshal(data, &sn); err != nil || len(sn.Analysis) == 0 {
			t.Fatalf("%s: no analysis state (err %v)", name, err)
		}
		out[name] = sn.Analysis
	}
	return out
}

// collectorFor builds a fresh collector of the shape a reference-decoded
// state was written by.
func collectorFor(ref *state) *Collector {
	cfg := Config{Replicas: len(ref.Walks)}
	for _, pairs := range ref.Pairs {
		cfg.DimSizes = append(cfg.DimSizes, len(pairs)+1)
	}
	return New(cfg)
}

// TestPinnedStateRoundTrip: Restore reads a pinned state to the value
// encoding/json reads, and EncodeState writes bytes encoding/json reads
// back to that value.
func TestPinnedStateRoundTrip(t *testing.T) {
	for name, raw := range pinnedStates(t) {
		var ref state
		if err := json.Unmarshal(raw, &ref); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		col := collectorFor(&ref)
		if err := col.Restore(raw); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(col.st, ref) {
			t.Fatalf("%s: Restore disagrees with encoding/json:\n got %+v\nwant %+v", name, col.st, ref)
		}
		enc, err := col.EncodeState()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var back state
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%s: encoding/json cannot read EncodeState's output: %v", name, err)
		}
		if !reflect.DeepEqual(back, ref) {
			t.Fatalf("%s: EncodeState changed the value encoding/json reads:\n got %+v\nwant %+v", name, back, ref)
		}
	}
}
