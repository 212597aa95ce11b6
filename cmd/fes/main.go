// Command fes regenerates the paper's Figure 4 end to end: a 3D
// T×U(φ)×U(ψ) replica-exchange simulation of alanine dipeptide with the
// real Go MD engine, followed by WHAM free-energy surfaces at each
// temperature, rendered as ASCII contour maps.
//
// Usage:
//
//	fes                      # reduced default protocol
//	fes -t 6 -u 8 -steps 20000 -cycles 90   # the paper's full protocol
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	tw := flag.Int("t", 3, "temperature windows (paper: 6)")
	uw := flag.Int("u", 6, "umbrella windows per torsion (paper: 8)")
	steps := flag.Int("steps", 400, "MD steps per cycle (paper: 20000)")
	cycles := flag.Int("cycles", 3, "cycles (paper: 90)")
	bins := flag.Int("bins", 24, "FES grid bins per axis")
	workers := flag.Int("workers", 0, "local worker cores (0 = all)")
	seed := flag.Int64("seed", 7, "RNG seed")
	flag.Parse()

	opts := bench.ValidationOptions{
		TWindows:      *tw,
		UWindows:      *uw,
		StepsPerCycle: *steps,
		Cycles:        *cycles,
		Bins:          *bins,
		Workers:       *workers,
		Seed:          *seed,
	}
	res, tbl, err := bench.Fig4Validation(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fes:", err)
		os.Exit(1)
	}
	fmt.Println(tbl.String())
	for i, f := range res.Surfaces {
		fmt.Printf("-- free energy surface at T = %.0f K (x: phi, y: psi; '?' unsampled) --\n",
			res.Temperatures[i])
		fmt.Println(f.Render(""))
	}
}
