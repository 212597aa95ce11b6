// ladder_respace: acting on the saturation diagnostic. A deliberately
// mis-spaced temperature ladder — seven rungs crowded into 273–291 K
// and one 82 K cliff to 373 K — cannot hold any acceptance target: the
// crowded pairs accept nearly everything, the cliff pair nearly
// nothing, and no exchange-window length changes that. The feedback
// trigger's controller detects this (saturation), and with
// Spec.Respace armed the run re-fits the ladder from the measured
// per-pair acceptance profile and continues on the new grid.
//
// The program runs the same workload twice: first with the diagnostic
// only (the run ends saturated, still mis-spaced), then with respacing
// enabled — the RespaceEvent on the bus carries the old and new rungs,
// and the closing per-pair table shows the acceptance profile
// flattened around the controller's target.
package main

import (
	"fmt"
	"log"

	repex "repro"
	"repro/internal/analysis"
)

// misSpaced is the broken ladder: gaps of 3 K, then a cliff.
func misSpaced() []float64 {
	return []float64{273, 276, 279, 282, 285, 288, 291, 373}
}

const target = 0.35

// run executes the workload, with or without respacing, and returns
// the trigger (controller status), the final statistics, and every
// RespaceEvent the run published.
func run(withRespace bool) (*repex.FeedbackTrigger, analysis.Stats, []repex.RespaceEvent) {
	tr := repex.NewFeedbackTrigger(45)
	tr.Target = target
	tr.WindowEvents = 12
	spec := &repex.Spec{
		Name:            "ladder-respace",
		Dims:            []repex.Dimension{{Type: repex.Temperature, Values: misSpaced()}},
		Trigger:         tr,
		CoresPerReplica: 1,
		StepsPerCycle:   2000,
		Cycles:          40,
		Seed:            17,
	}
	spec.Bus = repex.NewBus()
	// The collector's windows are as deep as the controller's, so the
	// planner refits from the acceptance the controller steers on.
	cfg := analysis.ConfigFromSpec(spec)
	cfg.WindowEvents = tr.WindowEvents
	col := analysis.New(cfg)
	col.Attach(spec.Bus, analysis.RunBuffer(spec))
	sub := spec.Bus.Subscribe(4096)
	if withRespace {
		// AfterSteps counts consecutive saturated controller steps
		// before the grid moves; the planner is the same collector the
		// statistics below come from.
		spec.Respace = &repex.RespaceSpec{
			AfterSteps: 8,
			MaxRefits:  2,
			Planner:    col,
		}
	}
	machine := repex.Small(2, 8)
	if _, err := repex.RunVirtual(spec, machine, 16, repex.AmberSander, 2881, spec.Seed); err != nil {
		log.Fatal(err)
	}
	var refits []repex.RespaceEvent
	for _, rec := range sub.Drain(nil) {
		if re, ok := rec.Other.(repex.RespaceEvent); ok {
			refits = append(refits, re)
		}
	}
	return tr, col.Snapshot(), refits
}

// pairTable prints each neighbour pair's rolling acceptance against
// its rung gap.
func pairTable(values []float64, pairs []analysis.PairStat) {
	for i, ps := range pairs {
		bar := ""
		for n := 0; n < int(ps.Ratio()*40); n++ {
			bar += "#"
		}
		fmt.Printf("  %5.1fK - %5.1fK (gap %5.1fK)  %5.1f%%  %s\n",
			values[i], values[i+1], values[i+1]-values[i], 100*ps.Ratio(), bar)
	}
}

func main() {
	fmt.Println("mis-spaced ladder, diagnostic only:")
	tr, stats, _ := run(false)
	pairTable(misSpaced(), stats.AcceptanceWindow[0])
	for _, ds := range tr.ControllerStatus() {
		fmt.Printf("  controller: target %.2f, measured %.2f, saturated=%v\n",
			ds.Target, ds.Measured, ds.Saturated)
	}

	fmt.Println("\nsame ladder with respace enabled:")
	tr, stats, refits := run(true)
	if len(refits) == 0 {
		log.Fatal("expected at least one refit")
	}
	for _, re := range refits {
		fmt.Printf("  refit %d at event %d:\n    old %7.1f\n    new %7.1f\n",
			re.Refit, re.Event, re.Old, re.New)
	}
	final := refits[len(refits)-1].New
	fmt.Println("  per-pair rolling acceptance on the re-fitted grid:")
	pairTable(final, stats.AcceptanceWindow[0])
	for _, ds := range tr.ControllerStatus() {
		fmt.Printf("  controller: target %.2f, measured %.2f, saturated=%v\n",
			ds.Target, ds.Measured, ds.Saturated)
	}

	fmt.Println("\nthe cliff pair's near-zero acceptance held the whole difficulty")
	fmt.Println("budget; equal-difficulty re-fitting subdivides it and spreads the")
	fmt.Println("crowded rungs, letting the controller reach its set point")
}
