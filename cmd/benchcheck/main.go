// Command benchcheck is the CI perf-regression gate for the dispatcher
// benchmarks: it parses `go test -json -bench` output, extracts a
// per-benchmark metric (default ns/completion, the dispatcher's
// per-event cost), takes the median over the -count repetitions and
// compares it against a committed baseline file.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkDispatcher$|BenchmarkDispatcherBus$' \
//	    -benchtime 10x -count 5 -json . > BENCH_dispatcher.json
//	benchcheck -baseline BENCH_baseline.json -bench BENCH_dispatcher.json
//
// The exit status tells a blocking result from an advisory one. Exit 1:
// a pair gate (below) is breached, or a benchmark the baseline names is
// missing from the run — both compare the run with itself and hold on
// any host. Exit 3: nothing of that kind, but some baseline benchmark's
// median regressed by more than the threshold (default 15%) — absolute
// ns are specific to the machine and its load that day, so a caller on
// a shared host reports this and goes on (scripts/ci/bench_gate.sh
// does). Intentional regressions update the baseline in the same change:
//
//	benchcheck -bench BENCH_dispatcher.json -write BENCH_baseline.json
//
// Baselines are machine-specific: regenerate with -write when the CI
// runner class changes. The GOMAXPROCS suffix (-8) is stripped from
// benchmark names so a baseline survives runner core-count changes.
//
// Alongside the absolute-ns medians, the baseline may carry pair gates
// over two benchmarks from the same run ("ratios": [{"num": ..., "den":
// ..., "max": 2}, {"num": ..., "den": ..., "max_delta": 1500}]). "max"
// bounds the ratio of the medians and is machine-independent: it
// survives runner upgrades without baseline churn (4096 replicas may
// cost at most 2x per completion what 256 do, on any hardware).
// "max_delta" bounds the difference of the medians, in the baseline's
// metric: the form for "B is A plus a fixed cost" (the observability bus
// over the bare dispatcher), where a ratio would silently loosen or
// tighten whenever A itself gets faster or slower. Pair gates are
// carried over verbatim by -write.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed reference: median metric value per
// benchmark, plus the metric and threshold they were captured for.
type Baseline struct {
	// Metric is the benchmark unit gated on (e.g. "ns/completion").
	Metric string `json:"metric"`
	// Threshold is the relative regression of a median that is reported
	// (0.15 = +15%).
	Threshold float64 `json:"threshold"`
	// Benchmarks maps benchmark name (GOMAXPROCS suffix stripped) to
	// the median metric value.
	Benchmarks map[string]float64 `json:"benchmarks"`
	// Ratios are companion gates over pairs of benchmarks measured in
	// the same run: unlike the absolute medians above (runner-class
	// specific, churned by hardware changes) they compare the run with
	// itself. -write carries them over verbatim.
	Ratios []PairGate `json:"ratios,omitempty"`
}

// PairGate bounds one benchmark against another from the same run, by
// ratio (Max), by difference (MaxDelta), or both; a gate with neither
// bound fails, so a typo cannot pass silently.
type PairGate struct {
	// Num and Den are benchmark names (GOMAXPROCS suffix stripped).
	Num string `json:"num"`
	Den string `json:"den"`
	// Max is the exclusive upper bound on median(Num)/median(Den) (e.g.
	// 2: the numerator may cost less than twice the denominator).
	Max float64 `json:"max,omitempty"`
	// MaxDelta is the inclusive upper bound on median(Num)-median(Den),
	// in the baseline's metric (e.g. 1500 ns/completion).
	MaxDelta float64 `json:"max_delta,omitempty"`
}

// testEvent is the subset of `go test -json` events we consume.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// gomaxprocsSuffix strips the trailing -N goroutine-count suffix Go
// appends to benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-[0-9]+$`)

// parseBench extracts, for every benchmark result line in a
// `go test -json` stream, the values reported under the given metric
// unit, keyed by benchmark name. `-count N` yields N values per name.
//
// The -json encoder splits one benchmark result line across several
// output events (the name in one, the values in the next), so the text
// stream is reassembled per package before line parsing. Plain (non
// -json) benchmark logs pass through the same path.
func parseBench(r io.Reader, metric string) (map[string][]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pkgs []string
	streams := map[string]*strings.Builder{}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			// Tolerate a plain benchmark log (non -json runs) too.
			ev = testEvent{Action: "output", Output: string(line) + "\n"}
		}
		if ev.Action != "output" {
			continue
		}
		b := streams[ev.Package]
		if b == nil {
			b = &strings.Builder{}
			streams[ev.Package] = b
			pkgs = append(pkgs, ev.Package)
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	out := map[string][]float64{}
	for _, pkg := range pkgs {
		for _, text := range strings.Split(streams[pkg].String(), "\n") {
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "Benchmark") {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) < 3 {
				continue
			}
			name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
			// Result fields after the iteration count come in value/unit
			// pairs: "123.4 ns/op 567.8 ns/completion ...".
			for i := 2; i+1 < len(fields); i += 2 {
				if fields[i+1] != metric {
					continue
				}
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("benchcheck: %s: bad %s value %q", name, metric, fields[i])
				}
				out[name] = append(out[name], v)
			}
		}
	}
	return out, nil
}

// median returns the median of vs (which must be non-empty).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gate compares current medians against the baseline and returns the
// per-benchmark report lines, the names whose median breached the
// threshold (advisory) and the names that failed outright: benchmarks
// present in the baseline but missing from the run — a silently skipped
// benchmark is not a pass — and breached pair gates.
func gate(base *Baseline, cur map[string][]float64, threshold float64) (report, regressed, failed []string) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ref := base.Benchmarks[name]
		vs, ok := cur[name]
		if !ok || len(vs) == 0 {
			report = append(report, fmt.Sprintf("FAIL %-44s baseline %.1f, missing from this run", name, ref))
			failed = append(failed, name)
			continue
		}
		med := median(vs)
		delta := (med - ref) / ref
		verdict := "ok  "
		if delta > threshold {
			verdict = "WARN"
			regressed = append(regressed, name)
		}
		report = append(report, fmt.Sprintf("%s %-44s baseline %10.1f  median %10.1f  (%+.1f%%, n=%d)",
			verdict, name, ref, med, 100*delta, len(vs)))
	}
	var extra []string
	for name := range cur {
		if _, ok := base.Benchmarks[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		report = append(report, fmt.Sprintf("note %-44s median %10.1f (not in baseline; add with -write)",
			name, median(cur[name])))
	}
	rr, rf := gateRatios(base.Ratios, cur)
	return append(report, rr...), regressed, append(failed, rf...)
}

// gateRatios checks the pair gates against the run's medians. A gate
// whose members are missing from the run fails, like a missing absolute
// benchmark: a silently unmeasured pair is not a pass.
func gateRatios(gates []PairGate, cur map[string][]float64) (report []string, failed []string) {
	for _, g := range gates {
		label := g.Num + "/" + g.Den
		num, okN := cur[g.Num]
		den, okD := cur[g.Den]
		if !okN || !okD || len(num) == 0 || len(den) == 0 {
			report = append(report, fmt.Sprintf("FAIL %-44s pair gate member missing from this run", label))
			failed = append(failed, label)
			continue
		}
		if g.Max == 0 && g.MaxDelta == 0 {
			report = append(report, fmt.Sprintf("FAIL %-44s pair gate has neither max nor max_delta", label))
			failed = append(failed, label)
			continue
		}
		n, d := median(num), median(den)
		if g.Max != 0 {
			verdict := "ok  "
			if n/d >= g.Max {
				verdict = "FAIL"
				failed = append(failed, label)
			}
			report = append(report, fmt.Sprintf("%s %-44s ratio %6.3f  (bound < %.3f)", verdict, label, n/d, g.Max))
		}
		if g.MaxDelta != 0 {
			label := g.Num + " - " + g.Den
			verdict := "ok  "
			if n-d > g.MaxDelta {
				verdict = "FAIL"
				failed = append(failed, label)
			}
			report = append(report, fmt.Sprintf("%s %-44s delta %+9.1f  (bound <= %.1f)", verdict, label, n-d, g.MaxDelta))
		}
	}
	return report, failed
}

// writeDiff renders the old→new median changes a -write is about to
// commit, sorted by benchmark name, so a baseline refresh shows at a
// glance what moved (and what appeared or vanished) instead of being a
// silent file overwrite. Returns nil when there was no previous
// baseline to diff against.
func writeDiff(old, fresh map[string]float64) []string {
	if len(old) == 0 {
		return nil
	}
	names := make([]string, 0, len(old)+len(fresh))
	for name := range old {
		names = append(names, name)
	}
	for name := range fresh {
		if _, ok := old[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	lines := make([]string, 0, len(names))
	for _, name := range names {
		ov, hasOld := old[name]
		nv, hasNew := fresh[name]
		switch {
		case !hasOld:
			lines = append(lines, fmt.Sprintf("  +  %-44s %31.1f (new)", name, nv))
		case !hasNew:
			lines = append(lines, fmt.Sprintf("  -  %-44s %10.1f (removed)", name, ov))
		default:
			lines = append(lines, fmt.Sprintf("     %-44s %10.1f -> %10.1f  (%+.1f%%)",
				name, ov, nv, 100*(nv-ov)/ov))
		}
	}
	return lines
}

func run() error {
	baselinePath := flag.String("baseline", "", "committed baseline JSON to gate against")
	benchPath := flag.String("bench", "", "go test -json benchmark output (required; - for stdin)")
	metric := flag.String("metric", "ns/completion", "benchmark unit to gate on")
	threshold := flag.Float64("threshold", 0, "relative regression of a median that is reported (0 uses the baseline's, default 0.15)")
	writePath := flag.String("write", "", "write a fresh baseline to this path instead of gating")
	flag.Parse()
	if *benchPath == "" || (*baselinePath == "" && *writePath == "") {
		flag.Usage()
		os.Exit(2)
	}

	in := io.Reader(os.Stdin)
	if *benchPath != "-" {
		f, err := os.Open(*benchPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	cur, err := parseBench(in, *metric)
	if err != nil {
		return err
	}
	if len(cur) == 0 {
		return fmt.Errorf("benchcheck: no %q samples found in %s", *metric, *benchPath)
	}

	if *writePath != "" {
		th := *threshold
		if th == 0 {
			th = 0.15
		}
		base := Baseline{Metric: *metric, Threshold: th, Benchmarks: map[string]float64{}}
		for name, vs := range cur {
			base.Benchmarks[name] = median(vs)
		}
		// Regenerating absolute medians (machine-specific) must not drop
		// the pair gates: carry them over from the baseline being
		// replaced.
		var prev Baseline
		if old, err := os.ReadFile(*writePath); err == nil {
			if json.Unmarshal(old, &prev) == nil {
				base.Ratios = prev.Ratios
			}
		}
		data, err := json.MarshalIndent(&base, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*writePath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		for _, line := range writeDiff(prev.Benchmarks, base.Benchmarks) {
			fmt.Println(line)
		}
		fmt.Printf("wrote %s: %d benchmarks, metric %s, threshold %.0f%%\n",
			*writePath, len(base.Benchmarks), *metric, 100*th)
		return nil
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("benchcheck: parsing baseline %s: %v", *baselinePath, err)
	}
	if base.Metric != "" && base.Metric != *metric {
		return fmt.Errorf("benchcheck: baseline gates %q, run parsed %q", base.Metric, *metric)
	}
	th := *threshold
	if th == 0 {
		th = base.Threshold
	}
	if th == 0 {
		th = 0.15
	}

	report, regressed, failed := gate(&base, cur, th)
	for _, line := range report {
		fmt.Println(line)
	}
	if len(failed) > 0 {
		return fmt.Errorf("benchcheck: %d gate(s) failed: %s", len(failed), strings.Join(failed, ", "))
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%w: %d benchmark(s) beyond %.0f%%: %s (update %s with -write if intentional)",
			errRegressed, len(regressed), 100*th, strings.Join(regressed, ", "), *baselinePath)
	}
	fmt.Printf("benchcheck: %d benchmarks within %.0f%% of baseline\n", len(base.Benchmarks), 100*th)
	return nil
}

// errRegressed is the advisory outcome: only absolute medians moved.
var errRegressed = errors.New("benchcheck: medians regressed, advisory")

func main() {
	err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	switch {
	case errors.Is(err, errRegressed):
		os.Exit(3)
	case err != nil:
		os.Exit(1)
	}
}
