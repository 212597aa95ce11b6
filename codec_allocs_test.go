package repex

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

// TestSnapshotCodecAllocs bounds the allocations of the four checkpoint
// codec operations on BenchmarkSnapshotCodec's fixture. Allocations are
// the noise-free cost of a codec: a closure or an interface box made
// per record would multiply them, and with them the allocations a
// completion of a checkpointing run pays. The bounds are the counts of
// the codec that wrote each record's fields by hand (go1.24.0); never
// raise them to let a change through.
func TestSnapshotCodecAllocs(t *testing.T) {
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
		{"DecodeSnapshot", 74, func() error { _, err := core.DecodeSnapshot(data); return err }},
		{"Collector.EncodeState", 2, func() error { _, err := col.EncodeState(); return err }},
		{"Collector.Restore", 87, func() error { return fresh.Restore(stateData) }},
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
