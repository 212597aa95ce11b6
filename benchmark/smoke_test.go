package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSeconds keeps every pass at its minimum unit count.
const smokeSeconds = "0.02"

// driverResult is the one-line object of driver mode.
type driverResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runDriver(t *testing.T, args ...string) driverResult {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr, tinySizes()); code != 0 {
		t.Fatalf("run %v: exit %d\nstderr: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res driverResult
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last stdout line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("run %v: correct=%v attempted=%d failed=%d\nstderr: %s", args, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return res
}

// Driver mode, tracing off: every workload reports exactly the
// end-to-end metrics, none of them zero.
func TestDriverUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := runDriver(t, "--workload", w.Name, "--seed", "3", "--seconds", smokeSeconds, "--trace", "0")
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", d.Name, m, ok, d.Unit)
				}
			}
		})
	}
}

// Driver mode, tracing on: every workload reports exactly the per-layer
// metrics; the layers a workload exercises are non-zero and the layers
// it bypasses read zero, which is the interaction table made visible.
func TestDriverTraced(t *testing.T) {
	virtual := []string{"pilot.runtime_busy_s", "pilot.runtime_calls", "pilot.runtime_share", "engines.busy_s",
		"core.trigger_calls", "core.self_s", "pilot.units_done", "cluster.files_staged", "core.exchange_events", "sim.virtual_makespan_s"}
	expect := map[string]struct{ nonzero, zero []string }{
		"virt_t4096_barrier": {virtual, []string{"localexec.runtime_busy_s", "md.steps", "core.bus_published", "serve.sse_events", "ckpt.write_ms"}},
		"virt_tsu1024_window_ckpt": {append([]string{"core.snapshot_encode_ms", "core.snapshot_bytes", "core.snapshot_decode_ms",
			"core.resume_new_ms", "ckpt.write_ms", "ckpt.load_ms", "analysis.encode_state_ms", "analysis.restore_ms",
			"analysis.sync_busy_s", "analysis.events_ingested", "core.bus_published", "trace.spans_recorded", "trace.export_ms",
			"engines.cross_energy_s"}, virtual...), []string{"localexec.runtime_busy_s", "md.steps", "serve.sse_events"}},
		"local_tu16_real": {[]string{"localexec.runtime_busy_s", "engines.busy_s", "engines.cross_energy_s", "md.task_run_s",
			"md.steps", "md.ns_per_atom_step", "core.self_s", "core.exchange_events"},
			[]string{"pilot.runtime_busy_s", "pilot.units_done", "cluster.files_staged", "serve.sse_events", "ckpt.write_ms"}},
		"repexd_http_2c": {[]string{"serve.launch_ms_p50", "serve.launch_to_done_ms_p75", "serve.stats_ms_p50", "serve.scrape_ms_p50",
			"serve.scrape_ms_p90", "serve.metrics_bytes", "serve.sse_events", "serve.sse_bytes"},
			[]string{"serve.http_errors", "pilot.runtime_busy_s", "md.steps", "ckpt.write_ms"}},
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := runDriver(t, "--workload", w.Name, "--seed", "3", "--seconds", smokeSeconds, "--trace", "1")
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			probesStart := 0
			for i, d := range perLayer {
				if d.Name == "sim.events_per_s" {
					probesStart = i
				}
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s = %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
				}
			}
			for _, d := range perLayer[probesStart:] {
				if !(res.Metrics[d.Name].Value > 0) {
					t.Errorf("probe %s = %v, want a positive value", d.Name, res.Metrics[d.Name].Value)
				}
			}
			for _, name := range expect[w.Name].nonzero {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("%s = %v, want a positive value on this workload", name, res.Metrics[name].Value)
				}
			}
			for _, name := range expect[w.Name].zero {
				if res.Metrics[name].Value != 0 {
					t.Errorf("%s = %v, want 0 on this workload", name, res.Metrics[name].Value)
				}
			}
		})
	}
}

// On the virtual and the real workload the children plus the core's
// self time add up to the core span, and that plus the harness to the
// unit: the decomposition loses nothing.
func TestLayerTimesAddUp(t *testing.T) {
	for _, name := range []string{"virt_t4096_barrier", "virt_tsu1024_window_ckpt", "local_tu16_real"} {
		w, _ := findWorkload(name)
		unit, err := w.prepare(4, tinySizes())
		if err != nil {
			t.Fatal(err)
		}
		tr := &tracer{}
		u, err := unit(tr)
		if err != nil {
			t.Fatal(err)
		}
		l := u.Layer
		sum := l["pilot.runtime_busy_s"] + l["localexec.runtime_busy_s"] + l["engines.busy_s"] + l["core.trigger_busy_s"] +
			tr.callback.seconds() + l["core.self_s"] + l["bench.harness_s"] +
			(l["ckpt.load_ms"]+l["core.snapshot_decode_ms"]+l["analysis.restore_ms"])/1e3 + l["analysis.sync_busy_s"]
		if wall := u.Wall.Seconds(); sum < 0.99*wall || sum > 1.01*wall {
			t.Errorf("%s: layers sum to %.6fs, unit wall is %.6fs", name, sum, wall)
		}
		if l["core.self_s"] < 0 || l["bench.harness_s"] < 0 {
			t.Errorf("%s: negative remainder: self %v, harness %v", name, l["core.self_s"], l["bench.harness_s"])
		}
	}
}

// The one command: both passes over every workload, every metric
// printed by name, results.json and trace.json written; then -compare
// of the results against themselves and against a doctored copy.
func TestFullRunAndCompare(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-seed", "5", "-seconds", smokeSeconds, "-out", dir}, &stdout, &stderr, tinySizes()); code != 0 {
		t.Fatalf("full run: exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if n := strings.Count(stdout.String(), "  "+d.Name+" "); n < 1 {
			t.Errorf("full run never printed %s", d.Name)
		}
	}
	resultsPath := filepath.Join(dir, "results.json")
	data, err := os.ReadFile(resultsPath)
	if err != nil {
		t.Fatal(err)
	}
	var file resultsFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	h := file.Header
	if h.GoVersion == "" || h.GOMAXPROCS != 2 || h.NumCPU < 2 || h.Seed != 5 || h.Commit == "" || h.CPUModel == "" {
		t.Errorf("incomplete header: %+v", h)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("results.json has %d workloads, want %d", len(file.Workloads), len(workloads))
	}
	for _, w := range file.Workloads {
		if !w.EndToEnd.Correct || !w.PerLayer.Correct || len(w.EndToEnd.Samples["completions_per_s"]) < minUnits {
			t.Errorf("%s: untraced correct=%v traced correct=%v samples=%v", w.Name, w.EndToEnd.Correct, w.PerLayer.Correct, w.EndToEnd.Samples)
		}
		if jsonString(w.EndToEnd.Outputs) != jsonString(w.PerLayer.Outputs) {
			t.Errorf("%s: traced outputs differ from untraced", w.Name)
		}
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	data, err = os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace.json is not valid JSON: %v", err)
	}
	pids := map[int]bool{}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.Pid] = true
			names[ev.Name] = true
		}
	}
	if len(pids) != len(workloads) {
		t.Errorf("trace.json has spans of %d workloads, want %d", len(pids), len(workloads))
	}
	for _, want := range []string{"unit", "core", "rt.AwaitNext", "engine.MDTask", "trigger.Decide", "snapshot_hook", "md.task_run", "POST /runs", "GET /metrics"} {
		if !names[want] {
			t.Errorf("trace.json has no %q span", want)
		}
	}

	// The same results on both sides can never regress.
	stdout.Reset()
	if code := run([]string{"-compare", resultsPath, resultsPath}, &stdout, &stderr, tinySizes()); code != 0 {
		t.Errorf("-compare of a file with itself: exit %d\n%s", code, stdout.String())
	}
	if got := strings.Count(stdout.String(), "\n"); got != 1+len(workloads)*len(endToEnd) {
		t.Errorf("-compare printed %d lines, want a header and %d rows:\n%s", got, len(workloads)*len(endToEnd), stdout.String())
	}
	// A candidate with tight samples and half the throughput regresses.
	cand := file
	cand.Workloads = append([]workloadResult(nil), file.Workloads...)
	base, slow := *file.Workloads[0].EndToEnd, *file.Workloads[0].EndToEnd
	base.Samples = map[string][]float64{"completions_per_s": {1000, 1001, 1002}}
	base.Metrics = map[string]float64{"completions_per_s": 1001}
	slow.Samples = map[string][]float64{"completions_per_s": {500, 501, 502}}
	slow.Metrics = map[string]float64{"completions_per_s": 501}
	file.Workloads[0].EndToEnd, cand.Workloads[0].EndToEnd = &base, &slow
	basePath, candPath := filepath.Join(dir, "base.json"), filepath.Join(dir, "cand.json")
	if err := os.WriteFile(basePath, []byte(jsonString(file)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(candPath, []byte(jsonString(cand)), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := run([]string{"-compare", basePath, candPath}, &stdout, &stderr, tinySizes()); code != 1 {
		t.Errorf("-compare with halved throughput: exit %d, want 1\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), verdictRegressed) {
		t.Errorf("-compare output names no regression:\n%s", stdout.String())
	}
	if code := run([]string{"-compare", basePath}, &stdout, &stderr, tinySizes()); code != 1 {
		t.Errorf("-compare with one path: exit %d, want 1", code)
	}
	if code := run([]string{"-compare", basePath, filepath.Join(dir, "missing.json")}, &stdout, &stderr, tinySizes()); code != 1 {
		t.Errorf("-compare with a missing file: exit %d, want 1", code)
	}
}

// -write-golden output has the shape the checker reads, and a pass
// whose outputs contradict the golden statistics is reported incorrect.
func TestGoldenRoundTripAndMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-write-golden", path}, &stdout, &stderr, tinySizes()); code != 0 {
		t.Fatalf("-write-golden: exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	w := workloads[0]
	unit, err := w.prepare(2, tinySizes())
	if err != nil {
		t.Fatal(err)
	}
	u, err := unit(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := g["2"][w.Name]
	if jsonString(u.Outputs) != jsonString(want) || want["run"].Completions == 0 {
		t.Errorf("seed 2 unit outputs %s, regenerated golden %s", jsonString(u.Outputs), jsonString(want))
	}

	res := newPassResult(w, endToEnd)
	chk := &checker{res: res, golden: want}
	chk.absorb("matching", u)
	if !res.Correct || res.Failed != 0 {
		t.Errorf("matching outputs judged incorrect: %v", res.Errors)
	}
	other := u
	other.Outputs = map[string]simStats{"run": {Fingerprint: "0000000000000000"}}
	chk.absorb("different", other)
	if res.Correct || res.Failed != 1 || len(res.Errors) != 1 {
		t.Errorf("repetition mismatch not caught: correct=%v failed=%d errors=%v", res.Correct, res.Failed, res.Errors)
	}
	res2 := newPassResult(w, endToEnd)
	(&checker{res: res2, golden: other.Outputs}).absorb("golden", u)
	if res2.Correct || res2.Failed != 1 {
		t.Errorf("golden mismatch not caught: correct=%v failed=%d", res2.Correct, res2.Failed)
	}
	dropped := u
	dropped.Failed = 2
	res3 := newPassResult(w, endToEnd)
	(&checker{res: res3}).absorb("dropped", dropped)
	if res3.Correct || res3.Failed != 2 {
		t.Errorf("failed operations not counted: correct=%v failed=%d", res3.Correct, res3.Failed)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no_such_workload"},
		{"--seconds"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr, tinySizes()); code == 0 || stdout.Len() != 0 {
			t.Errorf("run %v: exit %d with stdout %q, want a failure and no result", args, code, stdout.String())
		}
	}
}

// The exposition check accepts what the server writes and rejects
// malformed lines and missing runs.
func TestCheckExposition(t *testing.T) {
	good := "# HELP x y\n# TYPE x gauge\nrepexd_runs{state=\"completed\"} 2\nrepex_md_segments_total{run=\"r1\"} 8192\nrepex_h_bucket{run=\"r2\",le=\"+Inf\"} 3\nrepexd_pool_cores_used 0\n"
	if err := checkExposition([]byte(good), []string{"r1", "r2"}); err != nil {
		t.Errorf("well-formed exposition rejected: %v", err)
	}
	for name, body := range map[string]string{
		"missing run": "a{run=\"r1\"} 1\n",
		"no value":    "a{run=\"r1\"}\n" + good,
		"bad value":   "a{run=\"r1\"} many\n" + good,
		"open labels": "a{run=\"r1\" 1\n" + good,
	} {
		if err := checkExposition([]byte(body), []string{"r1", "r2"}); err == nil {
			t.Errorf("%s: malformed exposition accepted", name)
		}
	}
}
