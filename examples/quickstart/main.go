// Quickstart: a 1D temperature replica-exchange simulation of alanine
// dipeptide with the real Go MD engine, run locally. This is the
// smallest complete use of the public API: build a Spec, run it, read
// the report, and read how well replicas mixed from a collector on the
// run's event bus.
package main

import (
	"fmt"
	"log"
	"runtime"

	repex "repro"
	"repro/internal/analysis"
)

func main() {
	spec := &repex.Spec{
		Name: "quickstart-t-remd",
		// 8 temperature windows in geometric progression, the standard
		// T-REMD ladder.
		Dims: []repex.Dimension{{
			Type:   repex.Temperature,
			Values: repex.GeometricTemperatures(280, 360, 8),
		}},
		Trigger:         repex.NewBarrierTrigger(),
		CoresPerReplica: 1,
		StepsPerCycle:   300, // MD steps between exchange attempts
		Cycles:          4,
		Seed:            42,
	}
	spec.Bus = repex.NewBus()
	col := analysis.New(analysis.ConfigFromSpec(spec))
	col.Attach(spec.Bus, analysis.RunBuffer(spec))

	report, err := repex.RunLocal(spec, runtime.NumCPU(), 42)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(report.String())
	fmt.Printf("temperature-exchange acceptance: %.1f%%\n",
		100*report.AcceptanceRatioByDim(0))
	for _, rec := range report.Records {
		fmt.Printf("cycle %d: %d/%d exchanges accepted\n",
			rec.Cycle, rec.Accepted, rec.Attempted)
	}

	// Ladder mixing: round trips bottom -> top -> bottom (or the
	// reverse) by the same replica, as cmd/repex reports them.
	stats := col.Snapshot()
	fmt.Printf("mixing: %d round trips (mean %.1f events), %.0f%% of replicas traversed the full ladder\n",
		stats.RoundTrips, stats.MeanRoundTripEvents, 100*stats.FullTraversalFraction)
}
