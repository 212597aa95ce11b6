package analysis

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// pinnedShapes are the collector shapes of the two pinned states.
var pinnedShapes = []Config{
	{DimSizes: []int{3, 2, 2}, Replicas: 12},
	{DimSizes: []int{8}, Replicas: 8},
}

func TestRestoreRejectsMalformedState(t *testing.T) {
	good := string(pinnedStates(t)["snapshot_v2_tsu.json"])
	replace := func(old, new string) string {
		if !strings.Contains(good, old) {
			t.Fatalf("pinned state has no %q", old)
		}
		return strings.Replace(good, old, new, 1)
	}
	for name, in := range map[string]string{
		"truncated":          good[:len(good)/2],
		"trailing bytes":     good + "{}",
		"fraction":           replace(`"events": 4`, `"events": 4.5`),
		"exponent":           replace(`"md_segments": `, `"md_segments": 1e`),
		"overflow":           replace(`"attempted": `, `"attempted": 18446744073709551616`),
		"negative count":     replace(`"attempted": `, `"attempted": -`),
		"duplicate key":      replace(`"events": 4`, `"events": 4, "events": 4`),
		"duplicate in walk":  replace(`"start_at": `, `"start_at": 0, "start_at": `),
		"walk off the grid":  replace(`"slot": `, `"slot": 12, "x": `),
		"another grid":       replace(`"pairs": [`, `"pairs": [[], `),
		"null":               "null",
		"empty":              "",
		"string for a count": replace(`"events": 4`, `"events": "4"`),
	} {
		col := New(pinnedShapes[0])
		col.Apply(core.MDEvent{Exec: 1})
		before := col.st
		if err := col.Restore([]byte(in)); err == nil {
			t.Errorf("%s: state accepted", name)
		}
		if !reflect.DeepEqual(col.st, before) {
			t.Errorf("%s: the rejected state changed the collector", name)
		}
	}
	col := New(pinnedShapes[0])
	if err := col.Restore([]byte(replace(`"events": 4`, `"events": 4, "later_build": [{"a": null}]`))); err != nil {
		t.Errorf("unknown key: %v", err)
	}
	col.st.ExchangeOvh.Sum = math.Inf(1)
	if _, err := col.EncodeState(); err == nil {
		t.Error("EncodeState wrote an infinite histogram sum")
	}
}

// TestEncodeStateIsSortedAndLined: fault kinds come out in sorted order
// whatever the map's iteration order, every walk has a line of its own,
// and the bytes differ from encoding/json's only in white space.
func TestEncodeStateIsSortedAndLined(t *testing.T) {
	col := New(pinnedShapes[0])
	if err := col.Restore(pinnedStates(t)["snapshot_v2_tsu.json"]); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{core.FaultKindRelaunch, core.FaultKindDrop, "zz \"quoted\"", core.FaultKindResourceLost} {
		col.Apply(core.FaultEvent{Kind: kind, Exec: 1})
	}
	enc, err := col.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(enc, []byte("\n{\"slot\":")); n != len(col.st.Walks) {
		t.Errorf("%d lines open a walk, the state has %d", n, len(col.st.Walks))
	}
	ref, err := json.Marshal(&col.st)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref) {
		t.Errorf("EncodeState differs from encoding/json in more than white space:\n got %s\nwant %s", got.Bytes(), ref)
	}
}

// foldsKeys: see the function of the same name in internal/core's
// snapshot_codec_test.go.
func foldsKeys(data []byte) bool {
	return bytes.ContainsFunc(data, func(r rune) bool { return r >= 0x80 || 'A' <= r && r <= 'Z' || r == '\\' })
}

// FuzzCollectorRestore: Restore never panics; a state it accepts,
// encoding/json reads to the same value; the restored collector takes
// the next exchange, MD and fault events; and its state encodes to bytes
// that restore and encode to themselves.
func FuzzCollectorRestore(f *testing.F) {
	for _, raw := range pinnedStates(f) {
		f.Add(raw)
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			f.Fatal(err)
		}
		f.Add(compact.Bytes())
	}
	f.Add([]byte(`{"pairs":[[{},{}],[{}],[{}]],"pair_windows":[[{},{"outcomes":[true],"n":1,"accepted":1}],[{}],[{}]],` +
		`"walks":[{},{},{},{},{},{},{},{},{},{},{},{"trace":[]}],"md_exec":{"bounds":[1,2,3],"counts":[]},"exchange_overhead":{"counts":[0]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, shape := range pinnedShapes {
			col := New(shape)
			if col.Restore(data) != nil {
				continue
			}
			if !foldsKeys(data) {
				var ref state
				if err := json.Unmarshal(data, &ref); err != nil {
					t.Fatalf("restored what encoding/json rejects: %v", err)
				}
				if got, _ := decodeState(data); !reflect.DeepEqual(got, ref) {
					t.Fatalf("decoded\n%+v\nencoding/json\n%+v", got, ref)
				}
			}
			slots := make([]int, shape.Replicas)
			for i := range slots {
				slots[i] = shape.Replicas - 1 - i
			}
			for dim, n := range shape.DimSizes {
				ev := core.ExchangeEvent{Dim: dim, Slots: slots, EXWall: 45}
				for lo := 0; lo+1 < n; lo++ {
					ev.Pairs = append(ev.Pairs, core.PairOutcome{Lo: lo, Hi: lo + 1, Accepted: lo%2 == 0})
				}
				col.Apply(ev)
			}
			col.Apply(core.MDEvent{Exec: 140})
			col.Apply(core.FaultEvent{Kind: core.FaultKindRelaunch, Exec: 0.5})
			enc, err := col.EncodeState()
			if err != nil {
				// Two finite sums can add up to an infinite one.
				if math.IsInf(col.st.MDExec.Sum, 0) || math.IsInf(col.st.ExchangeOvh.Sum, 0) {
					continue
				}
				t.Fatalf("a restored state does not encode: %v", err)
			}
			again := New(shape)
			if err := again.Restore(enc); err != nil {
				t.Fatalf("EncodeState's output does not restore: %v\n%s", err, enc)
			}
			if enc2, err := again.EncodeState(); err != nil || !bytes.Equal(enc2, enc) {
				t.Fatalf("encoding is not a fixed point (err %v):\n%s\n%s", err, enc, enc2)
			}
			var ref state
			if err := json.Unmarshal(enc, &ref); err != nil || !reflect.DeepEqual(again.st, ref) {
				t.Fatalf("encoding/json reads EncodeState's output to another value (err %v):\n%+v\n%+v", err, again.st, ref)
			}
		}
	})
}
