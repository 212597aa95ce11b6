// Command experiments regenerates every table and figure of the paper's
// evaluation section. Use -fig to select one artefact, -quick for the
// reduced sweeps.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "artefact: 4,5,6,7,8,9,10,11,12,13,table1 or all")
	quick := flag.Bool("quick", false, "reduced replica counts and cycles")
	flag.Parse()
	if err := run(os.Stdout, *fig, *quick); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run writes the artefact fig names, or every one for "all", to w.
func run(w io.Writer, fig string, q bool) error {
	type artefact struct {
		name string
		run  func() (*bench.Table, error)
	}
	artefacts := []artefact{
		{"4", func() (*bench.Table, error) {
			opts := bench.DefaultValidationOptions()
			if q {
				opts.TWindows, opts.UWindows, opts.StepsPerCycle, opts.Cycles = 2, 4, 150, 2
			}
			res, tbl, err := bench.Fig4Validation(opts)
			if err == nil {
				for i, f := range res.Surfaces {
					fmt.Fprintf(w, "-- T = %.0f K --\n%s\n", res.Temperatures[i], f.Render(""))
				}
			}
			return tbl, err
		}},
		{"5", func() (*bench.Table, error) { _, t, err := bench.Fig5Overheads(q); return t, err }},
		{"6", func() (*bench.Table, error) { _, t, err := bench.Fig6Weak1D(q); return t, err }},
		{"7", func() (*bench.Table, error) { _, t, err := bench.Fig7Efficiency1D(q); return t, err }},
		{"8", func() (*bench.Table, error) { _, t, err := bench.Fig8NAMD(q); return t, err }},
		{"9", func() (*bench.Table, error) { _, t, err := bench.Fig9WeakTSU(q); return t, err }},
		{"10", func() (*bench.Table, error) { _, t, err := bench.Fig10StrongTSU(q); return t, err }},
		{"11", func() (*bench.Table, error) { _, t, err := bench.Fig11EfficiencyTSU(q); return t, err }},
		{"12", func() (*bench.Table, error) { _, t, err := bench.Fig12MultiCore(q); return t, err }},
		{"13", func() (*bench.Table, error) { _, t, err := bench.Fig13Utilization(q); return t, err }},
		{"table1", func() (*bench.Table, error) { return bench.Table1Comparison(), nil }},
	}
	ran := false
	for _, a := range artefacts {
		if fig != "all" && fig != a.name {
			continue
		}
		ran = true
		tbl, err := a.run()
		if err != nil {
			return fmt.Errorf("artefact %s: %v", a.name, err)
		}
		fmt.Fprintln(w, tbl.String())
	}
	if !ran {
		return fmt.Errorf("unknown artefact %q", fig)
	}
	return nil
}
