// Quickstart: a 1D temperature replica-exchange simulation of alanine
// dipeptide with the real Go MD engine, run locally. This is the
// smallest complete use of the public API: build a Spec, run it, read
// the report.
package main

import (
	"fmt"
	"log"
	"runtime"

	repex "repro"
	"repro/internal/stats"
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

	// Mixing diagnostics: how well replicas traverse the ladder.
	mix, err := stats.AnalyzeMixing(report.SlotHistory, report.Replicas)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ladder mixing: %d round trips, %.0f%% of slots visited, mean displacement %.2f slots/cycle\n",
		mix.RoundTrips, 100*mix.VisitedFraction, mix.MeanDisplacement)
}
