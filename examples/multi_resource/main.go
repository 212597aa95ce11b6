// multi_resource: one REMD simulation spread across two HPC machines at
// once — the paper's §5 extension ("RepEx can be extended to use
// multiple HPC resources simultaneously for a single REMD simulation").
//
// A 96-replica T-REMD workload runs first on a single 48-core pilot on
// SuperMIC (Execution Mode II), then on that pilot *plus* a 48-core
// pilot on Stampede as a second routing slot of the same pilot.Runtime
// (pilot.NewMultiRuntime): the aggregate allocation reaches Mode I and
// the cycle time drops accordingly.
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/pilot"
	"repro/internal/sim"
)

func spec() *core.Spec {
	return &core.Spec{
		Name:            "multi-resource-t-remd",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 96)}},
		Trigger:         core.NewBarrierTrigger(),
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          3,
		Seed:            17,
	}
}

// run executes the workload on the given number of machines (1 or 2).
func run(machines int) *core.Report {
	env := sim.NewEnv()
	supermic := cluster.MustNew(env, cluster.SuperMIC(), 1)
	stampede := cluster.MustNew(env, cluster.Stampede(), 2)
	plA, err := pilot.Launch(supermic, pilot.Description{Cores: 48})
	if err != nil {
		log.Fatal(err)
	}
	pilots := []*pilot.Pilot{plA}
	if machines == 2 {
		plB, err := pilot.Launch(stampede, pilot.Description{Cores: 48})
		if err != nil {
			log.Fatal(err)
		}
		pilots = append(pilots, plB)
	}
	eng := engines.NewAmberVirtual(2881, 3)
	var report *core.Report
	env.Go("emm", func(p *sim.Proc) {
		rt, err := pilot.NewMultiRuntime(p, pilots...)
		if err != nil {
			log.Fatal(err)
		}
		simu, err := core.New(spec(), eng, rt)
		if err != nil {
			log.Fatal(err)
		}
		report, err = simu.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  tasks routed per pilot: %v\n", rt.Routed())
	})
	env.Run()
	return report
}

func main() {
	fmt.Println("-- 96 replicas on one 48-core SuperMIC pilot (Mode II) --")
	one := run(1)
	fmt.Print(one.String())

	fmt.Println()
	fmt.Println("-- same workload on SuperMIC (48) + Stampede (48) combined --")
	two := run(2)
	fmt.Print(two.String())

	fmt.Printf("\ncombining two machines cut the average cycle time %.0f s -> %.0f s (%.1fx)\n",
		one.AvgCycleTime(), two.AvgCycleTime(), one.AvgCycleTime()/two.AvgCycleTime())
}
