package repex

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

// TestSnapshotCodecAllocs bounds the allocations of the four checkpoint
// codec operations on BenchmarkSnapshotCodec's fixture. Allocations are
// the noise-free cost of a codec: a closure or an interface box made
// per record would multiply them, and with them the allocations a
// completion of a checkpointing run pays. The encoders' bounds are the
// counts of the codec that wrote each record's fields by hand; the
// decoders' are their counts once rows were counted before they were
// read (30 and 35, go1.24.0), plus a tenth. Never raise them to let a
// change through.
func TestSnapshotCodecAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector moves allocation counts")
	}
	sn, col := codecFixture(64)
	stateData, err := col.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	sn.Analysis = stateData
	data, err := sn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	fresh := analysis.New(analysis.Config{DimSizes: []int{16, 8, 8}, Replicas: len(sn.Replicas)})
	for _, leg := range []struct {
		name string
		max  float64
		op   func() error
	}{
		{"Snapshot.Encode", 11, func() error { _, err := sn.Encode(); return err }},
		{"DecodeSnapshot", 33, func() error { _, err := core.DecodeSnapshot(data); return err }},
		{"Collector.EncodeState", 2, func() error { _, err := col.EncodeState(); return err }},
		{"Collector.Restore", 38, func() error { return fresh.Restore(stateData) }},
	} {
		var opErr error
		got := testing.AllocsPerRun(5, func() {
			if err := leg.op(); err != nil {
				opErr = err
			}
		})
		if opErr != nil {
			t.Fatalf("%s: %v", leg.name, opErr)
		}
		if got > leg.max {
			t.Errorf("%s: %v allocations a call, want at most %v", leg.name, got, leg.max)
		}
	}
}

// TestSnapshotCodecBytes bounds the bytes the two checkpoint decoders
// allocate by what they return, at BenchmarkSnapshotCodec's fixture and
// at 4 096 replicas × 256 events: DecodeSnapshot allocates, and the
// decoded snapshot keeps after a GC, at most 1.3× the bytes of its
// values; Collector.Restore allocates at most 1.3× what the restored
// collector keeps, and it keeps at most 1.3× the bytes of its values
// (unexported ones included). Rows grown by append on one shared
// backing array, which each row pins, allocate and keep three times as
// much. The decoded snapshot re-encodes to the file it was read from.
func TestSnapshotCodecBytes(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector moves allocation counts")
	}
	for _, c := range []struct {
		shape  []int
		events int
	}{
		{[]int{16, 8, 8}, 64},
		{[]int{16, 16, 16}, 256},
	} {
		data, stateData := codecFiles(t, c.shape, c.events)
		replicas := c.shape[0] * c.shape[1] * c.shape[2]
		var got *core.Snapshot
		alloc, kept := heapCost(func() {
			var err error
			if got, err = core.DecodeSnapshot(data); err != nil {
				t.Fatal(err)
			}
		})
		values := valueBytes(reflect.ValueOf(got))
		t.Logf("%d replicas × %d events: DecodeSnapshot allocates %.0f bytes and keeps %.0f for %.0f bytes of values",
			replicas, c.events, alloc, kept, values)
		if alloc > 1.3*values || kept > 1.3*values {
			t.Errorf("%d replicas × %d events: DecodeSnapshot allocates %.0f bytes and keeps %.0f, want at most 1.3 × %.0f",
				replicas, c.events, alloc, kept, values)
		}
		if enc, err := got.Encode(); err != nil || !bytes.Equal(enc, data) {
			t.Errorf("%d replicas × %d events: the decoded snapshot re-encodes to other bytes (err %v)", replicas, c.events, err)
		}
		got = nil

		var fresh *analysis.Collector
		restore := 0.0
		_, kept = heapCost(func() {
			fresh = analysis.New(analysis.Config{DimSizes: c.shape, Replicas: replicas})
			restore, _ = heapCost(func() {
				if err := fresh.Restore(stateData); err != nil {
					t.Fatal(err)
				}
			})
		})
		// The inputs live on through both measurements: one that died
		// within one would count against what it keeps.
		runtime.KeepAlive(fresh)
		runtime.KeepAlive(data)
		runtime.KeepAlive(stateData)
		values = valueBytes(reflect.ValueOf(fresh))
		t.Logf("%d replicas × %d events: Collector.Restore allocates %.0f bytes, the collector keeps %.0f for %.0f bytes of values",
			replicas, c.events, restore, kept, values)
		if restore > 1.3*kept || kept > 1.3*values {
			t.Errorf("%d replicas × %d events: Collector.Restore allocates %.0f bytes and the collector keeps %.0f, want at most 1.3 × %.0f and 1.3 × %.0f",
				replicas, c.events, restore, kept, kept, values)
		}
	}
}

// codecFiles returns codecFixtureOf's checkpoint, with the collector
// state attached, and that state, and keeps nothing else of the fixture.
func codecFiles(t *testing.T, shape []int, events int) (snapshot, state []byte) {
	sn, col := codecFixtureOf(shape, events)
	state, err := col.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	sn.Analysis = state
	if snapshot, err = sn.Encode(); err != nil {
		t.Fatal(err)
	}
	return snapshot, state
}

// heapCost runs op and returns the bytes it allocated and the growth of
// the live heap, both sides of op after a GC, with what op keeps alive.
func heapCost(op func()) (alloc, kept float64) {
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	op()
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	return float64(m1.TotalAlloc - m0.TotalAlloc), float64(m2.HeapAlloc) - float64(m0.HeapAlloc)
}

// valueBytes is the size of v and of everything its pointers, slices,
// strings and maps reach, each slice and string counted at its length.
func valueBytes(v reflect.Value) float64 {
	return float64(v.Type().Size()) + reachedBytes(v)
}

func reachedBytes(v reflect.Value) float64 {
	n := 0.0
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			n = valueBytes(v.Elem())
		}
	case reflect.String:
		n = float64(v.Len())
	case reflect.Slice:
		n = float64(v.Len()) * float64(v.Type().Elem().Size())
		for i := 0; i < v.Len() && !scalarKind(v.Type().Elem().Kind()); i++ {
			n += reachedBytes(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += reachedBytes(v.Field(i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			n += valueBytes(it.Key()) + valueBytes(it.Value())
		}
	}
	return n
}

func scalarKind(k reflect.Kind) bool {
	return k >= reflect.Bool && k <= reflect.Complex128
}
