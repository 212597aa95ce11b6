// async_adaptive: the asynchronous RE family under adverse conditions —
// more replicas than cores (Execution Mode II) on a small commodity
// cluster, with fault injection and the relaunch policy. This is the
// scenario the paper motivates in §2.1: heterogeneous performance,
// failures, and fluctuating resources, where the global barrier of
// synchronous REMD would stall everything.
//
// The same workload runs under four exchange-trigger policies — the
// synchronous barrier, the fixed real-time window, the ready-count
// criterion, and the adaptive window that tracks MD-time dispersion —
// showing that a pattern is just a swappable policy on the same
// event-driven dispatcher.
package main

import (
	"fmt"
	"log"

	repex "repro"
)

func main() {
	run := func(name string, trigger repex.Trigger) *repex.Report {
		spec := &repex.Spec{
			Name:            "async-adaptive-" + name,
			Dims:            []repex.Dimension{{Type: repex.Temperature, Values: repex.GeometricTemperatures(273, 373, 48)}},
			Trigger:         trigger,
			CoresPerReplica: 1,
			StepsPerCycle:   6000,
			Cycles:          4,
			FaultPolicy:     repex.FaultRelaunch,
			Seed:            13,
		}
		// A small 2-node cluster: 16 cores for 48 replicas -> Mode II,
		// with a 2% per-task failure probability.
		machine := repex.Small(2, 8)
		machine.FailureProb = 0.02
		report, err := repex.RunVirtual(spec, machine, 16, repex.AmberSander, 2881, 13)
		if err != nil {
			log.Fatal(err)
		}
		return report
	}

	for _, tc := range []struct {
		name    string
		trigger repex.Trigger
	}{
		{"barrier", repex.NewBarrierTrigger()},
		{"window", repex.NewWindowTrigger(90, 0)},
		{"count", repex.NewCountTrigger(8)},
		{"adaptive", repex.NewAdaptiveTrigger(90)},
	} {
		report := run(tc.name, tc.trigger)
		fmt.Print(report.String())
		fmt.Printf("  exchange events: %d, relaunched tasks: %d, dropped replicas: %d\n\n",
			report.ExchangeEvents, report.Relaunches, report.Dropped)
	}
	fmt.Println("48 replicas ran on 16 cores (Execution Mode II) under four exchange")
	fmt.Println("triggers: the replica count is decoupled from the allocation, injected")
	fmt.Println("task failures were absorbed by relaunching, and each trigger criterion")
	fmt.Println("is a small policy plugged into the same event-driven dispatcher.")
}
