package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"time"
)

// Repetition counts are constants of the benchmark, identical on both
// sides of any comparison.
const (
	// setupReps is how many times a run sets up (inputs plus one cold
	// unit); setup_s is their median.
	setupReps = 3
	// minUnits is the least number of timed units per pass, whatever the
	// time budget.
	minUnits = 3
)

// goldenJSON pins the simulated statistics of the committed seeds:
// seed -> workload -> run -> statistics. Regenerate with -write-golden.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile map[string]map[string]map[string]simStats

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// passResult is one pass (untraced or traced) over one workload.
type passResult struct {
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Errors lists every failed output check.
	Errors []string `json:"errors,omitempty"`
	// Units is the number of timed units behind the medians.
	Units int `json:"units"`
	// Metrics maps metric name to its reported value; Samples keeps the
	// per-unit values behind each end-to-end value, for -compare.
	Metrics map[string]float64   `json:"metrics"`
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Outputs are the simulated statistics every unit reproduced.
	Outputs map[string]simStats `json:"outputs"`

	spans *spanLog
}

// checker compares every unit's outputs to the first unit's and, for a
// committed seed at full size, to the golden file.
type checker struct {
	res    *passResult
	golden map[string]simStats // nil: seed or size not pinned
}

func newChecker(res *passResult, w workload, seed int64, sz sizes) (*checker, error) {
	c := &checker{res: res}
	if sz != fullSizes() {
		return c, nil
	}
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	c.golden = g[fmt.Sprint(seed)][w.Name]
	return c, nil
}

func (c *checker) fail(format string, args ...any) {
	c.res.Correct = false
	c.res.Failed++
	c.res.Errors = append(c.res.Errors, fmt.Sprintf(format, args...))
}

// absorb counts a unit's operations and checks its outputs.
func (c *checker) absorb(what string, u unitResult) {
	c.res.Attempted += u.Attempted
	c.res.Failed += u.Failed
	if u.Failed > 0 {
		c.res.Correct = false
		c.res.Errors = append(c.res.Errors, fmt.Sprintf("%s: %d of %d operations failed", what, u.Failed, u.Attempted))
	}
	if c.res.Outputs == nil {
		c.res.Outputs = u.Outputs
		if c.golden != nil && !reflect.DeepEqual(u.Outputs, c.golden) {
			c.fail("%s: outputs differ from golden.json:\n got  %s\n want %s", what, jsonString(u.Outputs), jsonString(c.golden))
		}
		return
	}
	if !reflect.DeepEqual(u.Outputs, c.res.Outputs) {
		c.fail("%s: outputs differ from the first unit's:\n got  %s\n want %s", what, jsonString(u.Outputs), jsonString(c.res.Outputs))
	}
}

func jsonString(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return string(b)
}

func newPassResult(w workload, defs []metricDef) *passResult {
	res := &passResult{Workload: w.Name, Correct: true, Metrics: map[string]float64{}}
	for _, d := range defs {
		res.Metrics[d.Name] = 0
	}
	return res
}

// timedUnit runs one unit from a collected heap and returns it with the
// number of heap objects it allocated.
func timedUnit(unit unitFunc, tr *tracer) (unitResult, uint64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u, err := unit(tr)
	runtime.ReadMemStats(&m1)
	return u, m1.Mallocs - m0.Mallocs, err
}

// measureUntraced is the end-to-end pass: set up setupReps times, then
// repeat the unit for the given time and report each metric's estimate
// over the units (see metricDef.Best).
func measureUntraced(w workload, seed int64, seconds float64, sz sizes) (*passResult, error) {
	res := newPassResult(w, endToEnd)
	res.Samples = map[string][]float64{}
	chk, err := newChecker(res, w, seed, sz)
	if err != nil {
		return nil, err
	}
	var unit unitFunc
	for k := 0; k < setupReps; k++ {
		runtime.GC()
		t0 := time.Now()
		if unit, err = w.prepare(seed, sz); err != nil {
			return nil, err
		}
		cold, err := unit(nil)
		if err != nil {
			return nil, fmt.Errorf("%s: cold unit: %w", w.Name, err)
		}
		res.Samples["setup_s"] = append(res.Samples["setup_s"], time.Since(t0).Seconds())
		chk.absorb(fmt.Sprintf("cold unit %d", k), cold)
	}
	start := time.Now()
	for res.Units < minUnits || time.Since(start).Seconds() < seconds {
		u, mallocs, err := timedUnit(unit, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: unit %d: %w", w.Name, res.Units, err)
		}
		chk.absorb(fmt.Sprintf("unit %d", res.Units), u)
		n := float64(u.Completions)
		res.Samples["completions_per_s"] = append(res.Samples["completions_per_s"], n/u.Wall.Seconds())
		res.Samples["allocs_per_completion"] = append(res.Samples["allocs_per_completion"], float64(mallocs)/n)
		res.Samples["utilization"] = append(res.Samples["utilization"], u.Utilization)
		res.Samples["run_ms_p50"] = append(res.Samples["run_ms_p50"], median(u.RunMs))
		res.Samples["run_ms"] = append(res.Samples["run_ms"], u.RunMs...)
		res.Units++
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = d.estimate(res.Samples[d.Name])
	}
	return res, nil
}

// measureTraced is the per-layer pass: the same inputs, with plain and
// wrapped units alternating for half the time budget (their ratio is the
// tracing overhead), then the isolated probes unless the caller already
// has their values. With wantSpans one further wrapped unit records
// every call as a span.
func measureTraced(w workload, seed int64, seconds float64, sz sizes, probeValues map[string]float64, wantSpans bool) (*passResult, error) {
	res := newPassResult(w, perLayer)
	chk, err := newChecker(res, w, seed, sz)
	if err != nil {
		return nil, err
	}
	unit, err := w.prepare(seed, sz)
	if err != nil {
		return nil, err
	}
	cold, err := unit(nil)
	if err != nil {
		return nil, fmt.Errorf("%s: cold unit: %w", w.Name, err)
	}
	chk.absorb("cold unit", cold)

	var plain, traced []float64
	layers := map[string][]float64{}
	start := time.Now()
	for res.Units < minUnits || time.Since(start).Seconds() < seconds/2 {
		p, _, err := timedUnit(unit, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: plain unit %d: %w", w.Name, res.Units, err)
		}
		chk.absorb(fmt.Sprintf("plain unit %d", res.Units), p)
		plain = append(plain, p.Wall.Seconds())

		t, _, err := timedUnit(unit, &tracer{})
		if err != nil {
			return nil, fmt.Errorf("%s: traced unit %d: %w", w.Name, res.Units, err)
		}
		chk.absorb(fmt.Sprintf("traced unit %d", res.Units), t)
		traced = append(traced, t.Wall.Seconds())
		for name, v := range t.Layer {
			layers[name] = append(layers[name], v)
		}
		res.Units++
	}
	for name, v := range layers {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("%s reported undeclared per-layer metric %q", w.Name, name)
		}
		res.Metrics[name] = median(v)
	}
	// Fastest against fastest, for the reason metricDef.Best gives.
	res.Metrics["bench.trace_overhead_frac"] = sorted(traced)[0]/sorted(plain)[0] - 1

	if probeValues == nil {
		if probeValues, err = runProbes(seconds/2, sz); err != nil {
			return nil, err
		}
	}
	for name, v := range probeValues {
		res.Metrics[name] = v
	}
	if wantSpans {
		tr := &tracer{log: newSpanLog()}
		u, err := unit(tr)
		if err != nil {
			return nil, fmt.Errorf("%s: span unit: %w", w.Name, err)
		}
		chk.absorb("span unit", u)
		res.spans = tr.log
	}
	return res, nil
}

// runProbes runs every isolated probe, sharing the time budget equally.
func runProbes(seconds float64, sz sizes) (map[string]float64, error) {
	fx, err := newProbeFixture(sz)
	if err != nil {
		return nil, err
	}
	ps := probes(sz, fx)
	budget := time.Duration(seconds / float64(len(ps)) * float64(time.Second))
	out := make(map[string]float64, len(ps))
	for _, p := range ps {
		runtime.GC()
		v, err := p.run(budget)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		out[p.name] = v
	}
	return out, nil
}
