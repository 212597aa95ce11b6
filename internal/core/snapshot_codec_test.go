package core_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

func readPinned(t testing.TB, file string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEncodeChangesOnlyWhiteSpace: re-encoding a pinned file gives, once
// both are compacted, the bytes the reflection encoder wrote — same
// keys in the same order, same number text — on one line per replica
// and per slot-history row.
func TestEncodeChangesOnlyWhiteSpace(t *testing.T) {
	for _, pr := range pinnedRuns() {
		file := readPinned(t, pr.file)
		sn, err := core.DecodeSnapshot(file)
		if err != nil {
			t.Fatal(err)
		}
		enc := mustEncode(t, sn)
		var want, got bytes.Buffer
		if err := json.Compact(&want, file); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&got, enc); err != nil {
			t.Fatalf("%s: Encode wrote invalid JSON: %v", pr.file, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: Encode differs from the pinned file in more than white space:\n got %s\nwant %s",
				pr.file, got.Bytes(), want.Bytes())
		}
		lines := strings.Split(string(enc), "\n")
		isLine := func(s string) bool {
			for _, l := range lines {
				if l == s || l == s+"," {
					return true
				}
			}
			return false
		}
		for _, row := range sn.SlotHistory {
			if text, _ := json.Marshal(row); !isLine(string(text)) {
				t.Errorf("%s: slot-history row %s is not on a line of its own", pr.file, text)
			}
		}
		if n := strings.Count(string(enc), "\n{\"id\":"); n != len(sn.Replicas) {
			t.Errorf("%s: %d lines open a replica, the snapshot has %d", pr.file, n, len(sn.Replicas))
		}
		if again := mustEncode(t, sn); !bytes.Equal(again, enc) {
			t.Errorf("%s: two encodings of one value differ", pr.file)
		}
	}
}

func TestEncodeRejects(t *testing.T) {
	base, err := core.DecodeSnapshot(readPinned(t, "snapshot_v2_feedback_respaced.json"))
	if err != nil {
		t.Fatal(err)
	}
	for name, spoil := range map[string]func(sn *core.Snapshot){
		"NaN energy":           func(sn *core.Snapshot) { sn.Replicas[3].Energy = math.NaN() },
		"infinite coordinate":  func(sn *core.Snapshot) { sn.Replicas[0].Synth = []float64{0, math.Inf(-1)} },
		"infinite ladder rung": func(sn *core.Snapshot) { sn.DimValues = [][]float64{{273, math.Inf(1)}} },
		"truncated analysis":   func(sn *core.Snapshot) { sn.Analysis = sn.Analysis[:len(sn.Analysis)/2] },
		"analysis not JSON":    func(sn *core.Snapshot) { sn.Analysis = json.RawMessage(`{"events":1}}`) },
		"trigger data not JSON": func(sn *core.Snapshot) {
			sn.TriggerData = json.RawMessage(`{"dims":[}`)
		},
	} {
		sn := *base
		sn.Replicas = append([]core.ReplicaState(nil), base.Replicas...)
		spoil(&sn)
		if data, err := sn.Encode(); err == nil {
			t.Errorf("%s: Encode wrote %d bytes", name, len(data))
		}
	}
	if _, err := base.Encode(); err != nil {
		t.Fatalf("the unspoiled snapshot: %v", err)
	}
}

func TestDecodeSnapshotRejects(t *testing.T) {
	file := string(readPinned(t, "snapshot_v2_history_tail.json"))
	replace := func(old, new string) string {
		if !strings.Contains(file, old) {
			t.Fatalf("pinned file has no %q", old)
		}
		return strings.Replace(file, old, new, 1)
	}
	for name, in := range map[string]string{
		"truncated":            file[:len(file)/2],
		"truncated at the end": strings.TrimRight(file, "} \n"),
		"trailing bytes":       file + "{}",
		"trailing garbage":     file + "x",
		"fraction":             replace(`"events": 4`, `"events": 4.0`),
		"exponent":             replace(`"events": 4`, `"events": 4e0`),
		"overflow":             replace(`"rng_draws": `, `"rng_draws": 9223372036854775808`),
		"negative fingerprint": replace(`"slot_fingerprint": `, `"slot_fingerprint": -`),
		"duplicate key":        replace(`"events": 4`, `"events": 4, "events": 4`),
		"duplicate in replica": replace(`"slot": `, `"slot": 0, "slot": `),
		"string for a number":  replace(`"events": 4`, `"events": "4"`),
		"null for a number":    replace(`"events": 4`, `"events": null`),
		"object for an array":  replace(`"replicas": [`, `"replicas": {}, "x": [`),
		"empty":                "",
		"not an object":        "[]",
	} {
		if sn, err := core.DecodeSnapshot([]byte(in)); err == nil {
			t.Errorf("%s: decoded to %+v", name, sn)
		}
	}
	// Unknown keys are skipped, wherever they are.
	in := replace(`"events": 4`, `"events": 4, "later_build": {"a": [1, {"b": null}]}`)
	in = strings.Replace(in, `"slot": `, `"temperature": 1e3, "slot": `, 1)
	got, err := core.DecodeSnapshot([]byte(in))
	if err != nil {
		t.Fatalf("unknown keys: %v", err)
	}
	if want, _ := core.DecodeSnapshot([]byte(file)); !reflect.DeepEqual(got, want) {
		t.Fatalf("unknown keys changed the value:\n got %+v\nwant %+v", got, want)
	}
}

// foldsKeys reports input on which encoding/json may match a key this
// build's reader does not: it folds case (including U+017F and U+212A
// onto s and k) and the reader compares bytes. Escapes can spell either.
func foldsKeys(data []byte) bool {
	return bytes.ContainsFunc(data, func(r rune) bool { return r >= 0x80 || 'A' <= r && r <= 'Z' || r == '\\' })
}

// FuzzDecodeSnapshot: the decoder never panics; whatever it accepts,
// encoding/json accepts and reads to the same value; and an accepted
// value encodes to bytes that decode and encode to themselves, which
// encoding/json reads to that same value again.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, pr := range pinnedRuns() {
		file := readPinned(f, pr.file)
		f.Add(file)
		sn, err := core.DecodeSnapshot(file)
		if err != nil {
			f.Fatal(err)
		}
		enc, err := sn.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte(`{"version":2,"replicas":[null,{"synth":[]}],"slot_history":[null,[]],"trigger_data":null,"dim_values":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sn, err := core.DecodeSnapshot(data)
		if err != nil {
			return
		}
		if !foldsKeys(data) {
			var ref core.Snapshot
			if err := json.Unmarshal(data, &ref); err != nil {
				t.Fatalf("decoded what encoding/json rejects: %v", err)
			}
			if !reflect.DeepEqual(sn, &ref) {
				t.Fatalf("decoded\n%+v\nencoding/json\n%+v", sn, &ref)
			}
		}
		enc, err := sn.Encode()
		if err != nil {
			t.Fatalf("a decoded snapshot does not encode: %v", err)
		}
		again, err := core.DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("Encode's output does not decode: %v\n%s", err, enc)
		}
		if enc2, err := again.Encode(); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("encoding is not a fixed point (err %v):\n%s\n%s", err, enc, enc2)
		}
		var ref core.Snapshot
		if err := json.Unmarshal(enc, &ref); err != nil || !reflect.DeepEqual(again, &ref) {
			t.Fatalf("encoding/json reads Encode's output to another value (err %v):\n%+v\n%+v", err, again, &ref)
		}
	})
}
