// Command benchmark is the repo's performance benchmark: four
// end-to-end workloads measured with tracing off, and a traced pass
// that decomposes the same workloads layer by layer from outside the
// program. See README.md in this directory.
//
// Driver mode runs one pass over one workload and prints one JSON object
// as the last line of standard output:
//
//	bash benchmark/run.sh --workload virt_t4096_barrier --seed 1 --seconds 20 --trace 0
//
// Without --workload it runs both passes over every workload, prints
// every metric by name and writes results.json and trace.json to -out.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullSizes())) }

// run is main with its environment passed in; sz is fullSizes except in
// tests, which shrink the workloads.
func run(args []string, stdout, stderr io.Writer, sz sizes) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name        = fs.String("workload", "", "run one pass over this workload and print one JSON result line (driver mode)")
		seed        = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs (1 and 2 are pinned by golden.json)")
		seconds     = fs.Float64("seconds", 20, "how long each pass measures")
		traced      = fs.Int("trace", 0, "driver mode: 0 measures the end-to-end metrics, 1 the per-layer metrics")
		out         = fs.String("out", "benchmark/out", "full mode: directory for results.json and trace.json")
		compare     = fs.Bool("compare", false, "compare two results.json files (baseline, candidate) and exit 1 on a regression")
		writeGolden = fs.String("write-golden", "", "regenerate the golden file at this path (benchmark/golden.json) for seeds 1 and 2")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two results.json paths, baseline then candidate"))
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	// The load shape is fixed: two processors, and never more generator
	// goroutines than that. One core cannot show the two-client and
	// two-worker workloads.
	if runtime.NumCPU() < 2 {
		return fail(fmt.Errorf("need at least 2 CPUs, have %d", runtime.NumCPU()))
	}
	runtime.GOMAXPROCS(2)

	switch {
	case *writeGolden != "":
		if err := regenerateGolden(*writeGolden, sz); err != nil {
			return fail(err)
		}
		return 0
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		var res *passResult
		var err error
		defs := endToEnd
		if *traced == 0 {
			res, err = measureUntraced(w, *seed, *seconds, sz)
		} else {
			defs = perLayer
			res, err = measureTraced(w, *seed, *seconds, sz, nil, false)
		}
		if err != nil {
			return fail(err)
		}
		for _, e := range res.Errors {
			fmt.Fprintln(stderr, "benchmark: check failed:", e)
		}
		fmt.Fprintln(stdout, driverLine(res, defs))
		return 0
	default:
		ok, err := fullRun(stdout, *seed, *seconds, *out, sz)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
}

// driverLine renders a pass as the one-line JSON object the driver
// reads: exactly the keys correct, attempted, failed and metrics.
func driverLine(res *passResult, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	return jsonString(line)
}

// ---------------------------------------------------------------------------
// Full mode

// resultsFile is the schema of results.json.
type resultsFile struct {
	Header    header           `json:"header"`
	Workloads []workloadResult `json:"workloads"`
}

type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	LoadAvg    string  `json:"loadavg_at_start"`
	Started    string  `json:"started"`
}

type workloadResult struct {
	Name     string      `json:"name"`
	Why      string      `json:"why"`
	EndToEnd *passResult `json:"end_to_end"`
	PerLayer *passResult `json:"per_layer"`
}

func readHeader(seed int64, seconds float64) header {
	h := header{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.TrimSpace(string(data))
	}
	return h
}

// fullRun is the one command: the untraced pass over every workload,
// then the traced pass with the probes run once, every metric printed by
// name with its unit, results.json and trace.json written. It reports
// whether every check passed.
func fullRun(stdout io.Writer, seed int64, seconds float64, outDir string, sz sizes) (bool, error) {
	file := resultsFile{Header: readHeader(seed, seconds)}
	fmt.Fprintf(stdout, "commit %s  %s  GOMAXPROCS=%d nproc=%d  cpu %q  seed %d  load %s\n",
		file.Header.Commit, file.Header.GoVersion, file.Header.GOMAXPROCS, file.Header.NumCPU,
		file.Header.CPUModel, seed, file.Header.LoadAvg)
	ok := true
	for _, w := range workloads {
		res, err := measureUntraced(w, seed, seconds, sz)
		if err != nil {
			return false, err
		}
		printPass(stdout, "end to end, tracing off", res, endToEnd)
		file.Workloads = append(file.Workloads, workloadResult{Name: w.Name, Why: w.Why, EndToEnd: res})
		ok = ok && res.Correct
	}
	probeValues, err := runProbes(seconds/2, sz)
	if err != nil {
		return false, err
	}
	for i, w := range workloads {
		res, err := measureTraced(w, seed, seconds, sz, probeValues, true)
		if err != nil {
			return false, err
		}
		printPass(stdout, "per layer, traced", res, perLayer)
		file.Workloads[i].PerLayer = res
		ok = ok && res.Correct && sameOutputs(stdout, file.Workloads[i])
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "results.json"), append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	if err := writeTrace(filepath.Join(outDir, "trace.json"), file.Workloads); err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "\nwrote %s and %s\n", filepath.Join(outDir, "results.json"), filepath.Join(outDir, "trace.json"))
	if !ok {
		fmt.Fprintln(stdout, "FAILED: at least one output check did not pass")
	}
	return ok, nil
}

// sameOutputs checks that the traced pass reproduced the untraced
// pass's simulated statistics.
func sameOutputs(stdout io.Writer, w workloadResult) bool {
	a, b := jsonString(w.EndToEnd.Outputs), jsonString(w.PerLayer.Outputs)
	if a != b {
		fmt.Fprintf(stdout, "  check failed: traced outputs differ from untraced:\n   untraced %s\n   traced   %s\n", a, b)
	}
	return a == b
}

func printPass(stdout io.Writer, title string, res *passResult, defs []metricDef) {
	fmt.Fprintf(stdout, "\n== %s: %s (%d units, attempted %d, failed %d, correct %v)\n",
		res.Workload, title, res.Units, res.Attempted, res.Failed, res.Correct)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		n := ""
		if s := res.Samples[d.Name]; len(s) > 0 {
			n = fmt.Sprintf("n=%d spread=%.1f%%", len(s), 100*spread(s))
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", d.Name, res.Metrics[d.Name], d.Unit, n)
	}
	// Pooled over every unit, the run latencies also support a tail.
	if s := res.Samples["run_ms"]; len(s) > 0 {
		p := tailPercentile(len(s))
		fmt.Fprintf(tw, "  run_ms p%.0f (all units)\t%.6g\tms\tn=%d\n", p, percentile(s, p), len(s))
	}
	tw.Flush()
	for _, e := range res.Errors {
		fmt.Fprintln(stdout, "  check failed:", e)
	}
}

// writeTrace writes the span logs of the traced pass as Chrome
// trace-event JSON: one process per workload, one thread per track.
func writeTrace(path string, results []workloadResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	event := func(format string, args ...any) {
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "\n"+format, args...)
	}
	tracks := map[int]string{trackUnit: "unit", trackCore: "core (dispatcher goroutine)", trackWorkers: "workers"}
	for pid, r := range results {
		log := r.PerLayer.spans
		if log == nil {
			continue
		}
		event(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q,"spans_dropped":%d}}`, pid+1, r.Name, log.dropped)
		seen := map[int]bool{}
		for _, sp := range log.spans {
			if !seen[sp.track] {
				seen[sp.track] = true
				label, ok := tracks[sp.track]
				if !ok {
					label = fmt.Sprintf("http client %d", sp.track-trackClient0)
				}
				event(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`, pid+1, sp.track, label)
			}
			event(`{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d}`,
				sp.name, float64(sp.start)/1e3, float64(sp.dur)/1e3, pid+1, sp.track)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// -compare

// compareFiles prints one row per (end-to-end metric, workload) with
// both medians, the candidate/baseline ratio, the bound and the verdict,
// and reports whether any row regressed.
func compareFiles(stdout io.Writer, basePath, candPath string) (regressed bool, err error) {
	load := func(path string) (map[string]*passResult, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultsFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		m := map[string]*passResult{}
		for _, w := range f.Workloads {
			m[w.Name] = w.EndToEnd
		}
		return m, nil
	}
	base, err := load(basePath)
	if err != nil {
		return false, err
	}
	cand, err := load(candPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbaseline\tcandidate\tcand/base\tbound\tverdict")
	for _, w := range workloads {
		b, c := base[w.Name], cand[w.Name]
		for _, d := range endToEnd {
			v := verdictUnresolved
			var bm, cm float64
			if b != nil && c != nil {
				bm, cm = b.Metrics[d.Name], c.Metrics[d.Name]
				v = verdict(d, b.Samples[d.Name], c.Samples[d.Name])
			}
			ratio := 0.0
			if bm != 0 {
				ratio = cm / bm
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f of %.6g\t%s, within %.0f%%\t%s\n",
				w.Name, d.Name, bm, d.Unit, cm, d.Unit, ratio, bm, d.Better, 100*d.Bound, v)
			regressed = regressed || v == verdictRegressed
		}
		if b != nil && c != nil && (b.Failed > 0 || c.Failed > 0) {
			v := verdictOK
			if c.Failed > b.Failed {
				v, regressed = verdictRegressed, true
			}
			fmt.Fprintf(tw, "%s\tfailed\t%d of %d\t%d of %d\t\tany increase\t%s\n", w.Name,
				b.Failed, b.Attempted, c.Failed, c.Attempted, v)
		}
	}
	return regressed, tw.Flush()
}

// ---------------------------------------------------------------------------
// -write-golden

// regenerateGolden runs one unit of every workload for the committed
// seeds and writes their simulated statistics to path.
func regenerateGolden(path string, sz sizes) error {
	g := goldenFile{}
	for _, seed := range []int64{1, 2} {
		g[fmt.Sprint(seed)] = map[string]map[string]simStats{}
		for _, w := range workloads {
			unit, err := w.prepare(seed, sz)
			if err != nil {
				return err
			}
			u, err := unit(nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			if u.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", w.Name, seed, u.Failed, u.Attempted)
			}
			g[fmt.Sprint(seed)][w.Name] = u.Outputs
		}
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
