package serve

import (
	"net/http"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

// wideStats is the /stats payload of a 4 096-replica run 64 exchange
// events in: every pair attempted, every trace full, a few faults.
func wideStats() analysis.Stats {
	const replicas, events = 4096, 64
	col := analysis.New(analysis.Config{DimSizes: []int{replicas}, Replicas: replicas})
	slots := make([]int, replicas)
	for e := 0; e < events; e++ {
		ex := core.ExchangeEvent{Event: e, Cycle: e, Slots: make([]int, replicas), EXWall: 0.25 + float64(e)/64}
		for lo := e % 2; lo+1 < replicas; lo += 2 {
			accepted := (lo/2+e)%3 != 0
			ex.Pairs = append(ex.Pairs, core.PairOutcome{Lo: lo, Hi: lo + 1, Accepted: accepted})
			if accepted {
				slots[lo], slots[lo+1] = slots[lo+1], slots[lo]
			}
		}
		if e == 0 {
			for i := range slots {
				slots[i] = i
			}
		}
		copy(ex.Slots, slots)
		col.Apply(ex)
		col.Apply(core.MDEvent{Replica: e, Cycle: e, Exec: 139.6 + float64(e)})
		col.Apply(core.FaultEvent{Replica: e, Kind: core.FaultKindRelaunch, Exec: 12.5})
	}
	return col.Snapshot()
}

// BenchmarkRunStats writes one 4 096-replica /stats body into a
// response that discards it: through the Stats layout and jsonx.Indent
// (what /stats serves), and through encoding/json's reflection and
// indent pass (writeJSON, the reference). bench_gate.sh bounds the
// layout's share of the reference's time in BENCH_serve.json.
func BenchmarkRunStats(b *testing.B) {
	st := wideStats()
	w := discardWriter{header: http.Header{}}
	for _, c := range []struct {
		name  string
		write func()
	}{
		{"layout", func() { writeStats(w, &st) }},
		{"reflect", func() { writeJSON(w, st) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.write()
			}
		})
	}
}
