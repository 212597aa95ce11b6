// feedback_trigger: closed-loop acceptance control. The same jittery
// T-REMD workload runs under four exchange-trigger policies — the
// synchronous barrier, the fixed real-time window, the MD-dispersion
// adaptive window, and the acceptance-targeting feedback controller —
// and the achieved neighbour-pair acceptance ratios are compared.
//
// The feedback policy consumes the same per-pair statistics the
// observability layer exposes on /stats and /metrics: the dispatcher
// feeds it every exchange event's outcomes, it keeps a rolling window
// of the last N true-neighbour decisions, and proportional control
// widens/narrows its exchange window to hold the target ratio. This
// turns the online statistics of the analysis subsystem from passive
// reporting into an actuator.
package main

import (
	"fmt"
	"log"

	repex "repro"
	"repro/internal/analysis"
)

func main() {
	const target = 0.5

	run := func(name string, trigger repex.Trigger) (*repex.Report, analysis.Stats) {
		spec := &repex.Spec{
			Name:            "feedback-" + name,
			Dims:            []repex.Dimension{{Type: repex.Temperature, Values: repex.GeometricTemperatures(273, 373, 12)}},
			Trigger:         trigger,
			CoresPerReplica: 1,
			StepsPerCycle:   6000,
			Cycles:          30,
			Seed:            7,
		}
		spec.Bus = repex.NewBus()
		col := analysis.New(analysis.ConfigFromSpec(spec))
		col.Attach(spec.Bus, analysis.RunBuffer(spec))
		machine := repex.SuperMIC()
		machine.ExecJitter = 0.08
		report, err := repex.RunVirtual(spec, machine, 12, repex.AmberSander, 2881, 7)
		if err != nil {
			log.Fatal(err)
		}
		return report, col.Snapshot()
	}

	feedback := repex.NewFeedbackTrigger(100)
	feedback.Target = target

	fmt.Printf("same workload, four triggers; feedback targets %.0f%% acceptance\n\n", 100*target)
	fmt.Printf("%-10s %7s %12s %12s %10s\n", "trigger", "events", "cumulative", "rolling", "makespan")
	for _, tc := range []struct {
		name    string
		trigger repex.Trigger
	}{
		{"barrier", repex.NewBarrierTrigger()},
		{"window", repex.NewWindowTrigger(100, 0)},
		{"adaptive", repex.NewAdaptiveTrigger(100)},
		{"feedback", feedback},
	} {
		report, stats := run(tc.name, tc.trigger)
		fmt.Printf("%-10s %7d %11.1f%% %11.1f%% %9.0fs\n",
			tc.name, report.ExchangeEvents,
			100*analysis.WeightedRatio(stats.Acceptance[0]),
			100*analysis.WeightedRatio(stats.AcceptanceWindow[0]),
			report.Makespan())
	}

	ctl := feedback.ControllerStatus()[0]
	fmt.Printf("\nfeedback controller: measured %.1f%% over its last %d outcomes, ", 100*ctl.Measured, ctl.Outcomes)
	fmt.Printf("exchange window settled at %.1fs\n", ctl.Window)
	fmt.Println("\nbarrier/window/adaptive schedule exchanges blind to the quantity REMD")
	fmt.Println("is judged by; the feedback policy closes the loop on the acceptance")
	fmt.Println("ratio itself, holding it near the target without retuning the window")
	fmt.Println("by hand. The rolling column is the last-N-outcomes view the /stats")
	fmt.Println("and /metrics endpoints export (repex_acceptance_ratio_window).")

	// Part 2: shared vs per-dimension control on a 2-dim T×U grid. The
	// temperature ladder's natural acceptance sits far above the
	// umbrella ladder's, so one blended controller cannot satisfy both;
	// per-dimension PI control steers each ladder's own (window,
	// MinReady) pair against its own set point.
	perDimTargets := []float64{0.35, 0.18}
	fmt.Printf("\n--- 2-dim T×U grid: shared vs per-dimension control ---\n")
	runTU := func(name string, tr *repex.FeedbackTrigger) {
		spec := &repex.Spec{
			Name: "feedback-tu-" + name,
			Dims: []repex.Dimension{
				{Type: repex.Temperature, Values: repex.GeometricTemperatures(273, 373, 8)},
				{Type: repex.Umbrella, Values: repex.UniformWindows(8), Torsion: "phi", K: repex.UmbrellaK002},
			},
			Trigger:         tr,
			CoresPerReplica: 1,
			StepsPerCycle:   6000,
			Cycles:          60,
			Seed:            42,
		}
		spec.Bus = repex.NewBus()
		col := analysis.New(analysis.ConfigFromSpec(spec))
		col.Attach(spec.Bus, analysis.RunBuffer(spec))
		machine := repex.SuperMIC()
		machine.ExecJitter = 0.08
		if _, err := repex.RunVirtual(spec, machine, 64, repex.AmberSander, 2881, 42); err != nil {
			log.Fatal(err)
		}
		stats := col.Snapshot()
		fmt.Printf("%s control:\n", name)
		for _, ds := range tr.ControllerStatus() {
			sat := ""
			if ds.Saturated {
				sat = "  SATURATED (ladder spacing?)"
			}
			fmt.Printf("  dim %d: target %.2f, rolling %.3f, window %.0fs, min-ready %d%s\n",
				ds.Dim, ds.Target, analysis.WeightedRatio(stats.AcceptanceWindow[ds.Dim]),
				ds.Window, ds.MinReady, sat)
		}
	}

	shared := repex.NewFeedbackTrigger(100)
	shared.Target = 0.3 // one blended set point for both ladders
	shared.WindowEvents = 32
	runTU("shared", shared)

	perDim := repex.NewFeedbackTrigger(100)
	perDim.Targets = perDimTargets
	perDim.WindowEvents = 32
	runTU("per-dim", perDim)

	fmt.Println("\nunder shared control both dimensions chase one set point with")
	fmt.Println("independent windows but a single target; per-dimension targets let")
	fmt.Println("the T ladder run hot while the U ladder holds its own, and a ladder")
	fmt.Println("that cannot reach its target raises the saturation diagnostic")
	fmt.Println("(repex_feedback_saturated{dim} on /metrics) instead of parking.")
}
