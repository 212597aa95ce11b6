package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	cases := []struct {
		in   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 75, 4},
		{[]float64{1, 2, 3, 4, 5}, 90, 4.6},
		{[]float64{5, 1}, 100, 5},
	}
	for _, c := range cases {
		if got := percentile(c.in, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.in, c.p, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// The tail percentile is the highest one with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{8, 50}, {39, 50}, {40, 75}, {60, 75}, {100, 90}, {200, 95}, {1000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if spread([]float64{3}) != 0 || spread(nil) != 0 {
		t.Error("spread of fewer than two samples must be 0")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c, c, c * 1.01} }
	wide := func(c float64) []float64 { return []float64{c * 0.5, c * 0.8, c, c * 1.2, c * 1.5} }
	cases := []struct {
		name       string
		def        metricDef
		base, cand []float64
		want       string
	}{
		{"same", lower, tight(100), tight(100), verdictOK},
		{"within bound", lower, tight(100), tight(109), verdictOK},
		{"slower than bound", lower, tight(100), tight(115), verdictRegressed},
		{"faster", lower, tight(100), tight(50), verdictOK},
		{"rate fell", higher, tight(100), tight(85), verdictRegressed},
		{"rate rose", higher, tight(100), tight(130), verdictOK},
		{"noisy baseline", lower, wide(100), tight(100), verdictUnresolved},
		{"noisy but every run better", lower, wide(100), tight(40), verdictOK},
		{"noisy rate, every run better", higher, wide(100), tight(200), verdictOK},
		{"no samples", lower, nil, tight(1), verdictUnresolved},
	}
	for _, c := range cases {
		if got := verdict(c.def, c.base, c.cand); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	if w := worsening(higher, 100, 80); math.Abs(w-0.2) > 1e-12 {
		t.Errorf("worsening(higher, 100, 80) = %v, want 0.2", w)
	}
	if w := worsening(lower, 100, 80); math.Abs(w+0.2) > 1e-12 {
		t.Errorf("worsening(lower, 100, 80) = %v, want -0.2", w)
	}
}

// A wall-clock metric reports its best unit, the others their median.
func TestEstimate(t *testing.T) {
	v := []float64{4, 9, 1, 7, 5}
	for _, c := range []struct {
		def  metricDef
		want float64
	}{
		{metricDef{Better: "lower"}, 5},
		{metricDef{Better: "lower", Best: true}, 1},
		{metricDef{Better: "higher", Best: true}, 9},
	} {
		if got := c.def.estimate(v); got != c.want {
			t.Errorf("%+v: estimate = %v, want %v", c.def, got, c.want)
		}
	}
	if got := (metricDef{Best: true}).estimate(nil); got != 0 {
		t.Errorf("estimate of no samples = %v, want 0", got)
	}
}

// BENCHMARK.json at the repo root must declare exactly the workloads
// and metrics the code reports, with the same units, directions and
// bounds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, code has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, code has %q / %q",
				i, decl.Workloads[i].Name, decl.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, code has %d", kind, len(got), len(want))
		}
		for i := range want {
			want[i].Best = false // not part of the declaration
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, code has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, append([]metricDef(nil), endToEnd...))
	same("per_layer", decl.PerLayer, append([]metricDef(nil), perLayer...))
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// golden.json pins both committed seeds for every workload.
func TestGoldenCoversCommittedSeeds(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []string{"1", "2"} {
		for _, w := range workloads {
			if len(g[seed][w.Name]) == 0 {
				t.Errorf("golden.json has no entry for seed %s workload %s", seed, w.Name)
			}
		}
	}
}
