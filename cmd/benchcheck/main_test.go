package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// sampleStream mimics real `go test -json -bench` output, including
// the encoder's habit of splitting one benchmark result line across
// two output events (name+tab first, values after).
const sampleStream = `{"Action":"start","Package":"repro"}
{"Action":"output","Package":"repro","Output":"goos: linux\n"}
{"Action":"output","Package":"repro","Test":"BenchmarkDispatcher/64/barrier","Output":"BenchmarkDispatcher/64/barrier-8 \t"}
{"Action":"output","Package":"repro","Output":"      10\t  52000 ns/op\t  11000 ns/completion\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkDispatcher/64/barrier-8 \t      10\t  53000 ns/op\t  12000 ns/completion\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkDispatcher/64/barrier-8 \t"}
{"Action":"output","Package":"repro","Output":"      10\t  51000 ns/op\t  10000 ns/completion\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkDispatcherBus/64/window-8 \t      10\t  60000 ns/op\t  13000 ns/completion\n"}
{"Action":"output","Package":"repro","Output":"PASS\n"}
{"Action":"pass","Package":"repro"}
`

func parse(t *testing.T, stream, metric string) map[string][]float64 {
	t.Helper()
	got, err := parseBench(strings.NewReader(stream), metric)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestParseBenchExtractsMetricPerBenchmark(t *testing.T) {
	got := parse(t, sampleStream, "ns/completion")
	vs := got["BenchmarkDispatcher/64/barrier"]
	if len(vs) != 3 {
		t.Fatalf("parsed %d repetitions, want 3 (got %v)", len(vs), got)
	}
	if m := median(vs); m != 11000 {
		t.Fatalf("median %v, want 11000", m)
	}
	if len(got["BenchmarkDispatcherBus/64/window"]) != 1 {
		t.Fatalf("bus benchmark missing: %v", got)
	}
	// The GOMAXPROCS suffix must be stripped so baselines survive
	// runner core-count changes.
	for name := range got {
		if strings.HasSuffix(name, "-8") {
			t.Fatalf("GOMAXPROCS suffix kept in %q", name)
		}
	}
	if ops := parse(t, sampleStream, "ns/op"); median(ops["BenchmarkDispatcher/64/barrier"]) != 52000 {
		t.Fatalf("ns/op extraction broken: %v", ops)
	}
}

func TestGateFailsOnRegressionAndMissing(t *testing.T) {
	base := &Baseline{
		Metric:    "ns/completion",
		Threshold: 0.15,
		Benchmarks: map[string]float64{
			"BenchmarkDispatcher/64/barrier":   10000, // current median 11000: +10%, passes
			"BenchmarkDispatcherBus/64/window": 10000, // current 13000: +30%, fails
			"BenchmarkDispatcher/256/barrier":  9000,  // absent from the run: fails
		},
	}
	cur := parse(t, sampleStream, "ns/completion")
	const missing = "BenchmarkDispatcher/256/barrier"
	_, regressed, failed := gate(base, cur, base.Threshold)
	if len(regressed) != 1 || regressed[0] != "BenchmarkDispatcherBus/64/window" {
		t.Fatalf("regressed %v, want the +30%% benchmark as the advisory result", regressed)
	}
	if len(failed) != 1 || failed[0] != missing {
		t.Fatalf("failed %v, want only the missing benchmark to block", failed)
	}

	// Same data under a generous threshold: only the missing benchmark
	// is left.
	_, regressed, failed = gate(base, cur, 10)
	if len(regressed) != 0 || len(failed) != 1 || failed[0] != missing {
		t.Fatalf("regressed %v failed %v, want only the missing benchmark", regressed, failed)
	}

	// Inverted (negative) threshold: everything present must regress —
	// the synthetic-regression check for the CI gate itself.
	_, regressed, failed = gate(base, cur, -1)
	if len(regressed) != 2 || len(failed) != 1 {
		t.Fatalf("inverted threshold: regressed %v failed %v, want both present ones and the missing one", regressed, failed)
	}
}

func TestMedianEvenCount(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median %v, want 2.5", m)
	}
}

// TestWriteDiff: refreshing a baseline prints what moved, sorted by
// name, flagging benchmarks that appeared or vanished; a first -write
// (no previous baseline) prints nothing.
func TestWriteDiff(t *testing.T) {
	old := map[string]float64{
		"BenchmarkDispatcher/64/barrier":  10000,
		"BenchmarkDispatcher/256/barrier": 12000,
		"BenchmarkGone":                   5,
	}
	fresh := map[string]float64{
		"BenchmarkDispatcher/64/barrier":  11000,
		"BenchmarkDispatcher/256/barrier": 12000,
		"BenchmarkAdded":                  7,
	}
	lines := writeDiff(old, fresh)
	if len(lines) != 4 {
		t.Fatalf("got %d diff lines, want 4: %v", len(lines), lines)
	}
	wantOrder := []string{"BenchmarkAdded", "BenchmarkDispatcher/256/barrier",
		"BenchmarkDispatcher/64/barrier", "BenchmarkGone"}
	for i, name := range wantOrder {
		if !strings.Contains(lines[i], name) {
			t.Fatalf("line %d = %q, want %s (sorted order)", i, lines[i], name)
		}
	}
	if !strings.Contains(lines[0], "(new)") {
		t.Errorf("added benchmark not flagged: %q", lines[0])
	}
	if !strings.Contains(lines[2], "+10.0%") {
		t.Errorf("changed benchmark missing delta: %q", lines[2])
	}
	if !strings.Contains(lines[3], "(removed)") {
		t.Errorf("removed benchmark not flagged: %q", lines[3])
	}
	if got := writeDiff(nil, fresh); got != nil {
		t.Errorf("first write should print no diff, got %v", got)
	}
}

// ratioStream is a synthetic run where the bus benchmark costs 4% over
// the bare dispatcher at 64 replicas (passes a 1.05 gate) and 30% over
// at 256 (fails it).
const ratioStream = `{"Action":"output","Package":"repro","Output":"BenchmarkDispatcher/64/window-8 \t      10\t  52000 ns/op\t  10000 ns/completion\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkDispatcher/64/window-8 \t      10\t  52000 ns/op\t  10200 ns/completion\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkDispatcher/64/window-8 \t      10\t  52000 ns/op\t  9800 ns/completion\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkDispatcherBus/64/window-8 \t      10\t  60000 ns/op\t  10400 ns/completion\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkDispatcher/256/window-8 \t      10\t  52000 ns/op\t  10000 ns/completion\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkDispatcherBus/256/window-8 \t      10\t  60000 ns/op\t  13000 ns/completion\n"}
`

// TestRatioGate: the machine-independent companion gate bounds
// median(num)/median(den), fails on breach or on members missing from
// the run, and rides through gate() alongside the absolute medians.
func TestRatioGate(t *testing.T) {
	cur := parse(t, ratioStream, "ns/completion")

	base := &Baseline{Ratios: []PairGate{
		{Num: "BenchmarkDispatcherBus/64/window", Den: "BenchmarkDispatcher/64/window", Max: 1.05},
	}}
	report, _, failed := gate(base, cur, 0.15)
	if len(failed) != 0 {
		t.Fatalf("4%% bus overhead failed the 1.05 ratio gate: %v", report)
	}

	base.Ratios = append(base.Ratios,
		PairGate{Num: "BenchmarkDispatcherBus/256/window", Den: "BenchmarkDispatcher/256/window", Max: 1.05})
	_, _, failed = gate(base, cur, 0.15)
	if len(failed) != 1 || !strings.Contains(failed[0], "256") {
		t.Fatalf("30%% bus overhead passed the 1.05 ratio gate: failed=%v", failed)
	}

	// A tighter bound flips the passing pair too: the gate really reads
	// the measured ratio (10400/10000 = 1.04).
	base.Ratios[0].Max = 1.03
	_, _, failed = gate(base, cur, 0.15)
	if len(failed) != 2 {
		t.Fatalf("1.03 bound kept the 1.04 ratio: failed=%v", failed)
	}

	// Members missing from the run fail, like missing benchmarks.
	base.Ratios = []PairGate{{Num: "BenchmarkNope", Den: "BenchmarkDispatcher/64/window", Max: 1.05}}
	_, _, failed = gate(base, cur, 0.15)
	if len(failed) != 1 {
		t.Fatalf("missing ratio member passed: failed=%v", failed)
	}
}

// TestDeltaGate: max_delta bounds median(num)-median(den) in the
// baseline's metric, inclusively; it combines with max on one gate, and
// a gate with no bound at all fails instead of passing vacuously.
func TestDeltaGate(t *testing.T) {
	cur := parse(t, ratioStream, "ns/completion")
	// 64: bus 10400 over dispatcher 10000 = +400. 256: 13000 - 10000 = +3000.
	base := &Baseline{Ratios: []PairGate{
		{Num: "BenchmarkDispatcherBus/64/window", Den: "BenchmarkDispatcher/64/window", MaxDelta: 400},
	}}
	report, _, failed := gate(base, cur, 0.15)
	if len(failed) != 0 {
		t.Fatalf("+400 failed a max_delta of 400 (inclusive): %v", report)
	}
	if !strings.Contains(strings.Join(report, "\n"), "delta") {
		t.Fatalf("report does not show the measured delta: %v", report)
	}

	base.Ratios[0].MaxDelta = 399
	if _, _, failed = gate(base, cur, 0.15); len(failed) != 1 {
		t.Fatalf("+400 passed a max_delta of 399: failed=%v", failed)
	}

	// Both bounds on one gate are checked independently: ratio 1.3 passes
	// max 1.5, delta +3000 fails max_delta 2000.
	base.Ratios = []PairGate{{Num: "BenchmarkDispatcherBus/256/window", Den: "BenchmarkDispatcher/256/window", Max: 1.5, MaxDelta: 2000}}
	if _, _, failed = gate(base, cur, 0.15); len(failed) != 1 || !strings.Contains(failed[0], " - ") {
		t.Fatalf("want only the delta half to fail: failed=%v", failed)
	}

	// A numerator cheaper than its denominator has a negative delta and
	// passes any positive bound.
	base.Ratios = []PairGate{{Num: "BenchmarkDispatcher/64/window", Den: "BenchmarkDispatcherBus/64/window", MaxDelta: 1}}
	if _, _, failed = gate(base, cur, 0.15); len(failed) != 0 {
		t.Fatalf("negative delta failed: %v", failed)
	}

	base.Ratios = []PairGate{{Num: "BenchmarkDispatcherBus/64/window", Den: "BenchmarkDispatcher/64/window"}}
	if _, _, failed = gate(base, cur, 0.15); len(failed) != 1 {
		t.Fatalf("gate without a bound passed: failed=%v", failed)
	}
}

// TestPairGatesRoundTripJSON: both gate forms survive the marshal a
// -write performs when it carries them into the fresh baseline.
func TestPairGatesRoundTripJSON(t *testing.T) {
	in := Baseline{Metric: "ns/completion", Ratios: []PairGate{
		{Num: "a", Den: "b", Max: 2},
		{Num: "c", Den: "d", MaxDelta: 1500},
	}}
	data, err := json.Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"max_delta":1500`) || strings.Contains(string(data), `"max_delta":0`) {
		t.Fatalf("unexpected encoding: %s", data)
	}
	var out Baseline
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Ratios) != 2 || out.Ratios[0] != in.Ratios[0] || out.Ratios[1] != in.Ratios[1] {
		t.Fatalf("round trip changed the gates: %+v", out.Ratios)
	}
}
