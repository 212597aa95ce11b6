// tsu_remd: the paper's headline capability — a three-dimensional
// TSU-REMD simulation (temperature × salt concentration × umbrella
// sampling) with 6x4x8 = 192 replicas, executed in virtual time on a
// model of the SuperMIC supercomputer through the pilot-job runtime.
//
// The run demonstrates:
//   - multi-dimensional exchange with arbitrary ordering (here T, S, U),
//   - the per-dimension cost asymmetry (salt exchange needs extra
//     single-point-energy tasks and dominates the exchange time),
//   - the Eq. 1 cycle-time decomposition the paper reports.
package main

import (
	"fmt"
	"log"

	repex "repro"
)

func main() {
	spec := &repex.Spec{
		Name: "tsu-192",
		Dims: []repex.Dimension{
			{Type: repex.Temperature, Values: repex.GeometricTemperatures(273, 373, 6)},
			{Type: repex.Salt, Values: []float64{0.05, 0.15, 0.45, 1.35}},
			{Type: repex.Umbrella, Values: repex.UniformWindows(8), Torsion: "phi", K: repex.UmbrellaK002},
		},
		Trigger:         repex.NewBarrierTrigger(),
		CoresPerReplica: 1,
		StepsPerCycle:   6000, // the paper's exchange attempt interval
		Cycles:          4,
		Seed:            7,
	}

	// Execution Mode I: one core per replica, all concurrent.
	report, err := repex.RunVirtual(spec, repex.SuperMIC(), spec.Replicas(),
		repex.AmberSander, 2881, 7)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(report.String())
	d := report.Decompose()
	fmt.Printf("\nEq.1 decomposition (per cycle):\n")
	fmt.Printf("  T_MD        = %8.1f s\n", d.TMD)
	fmt.Printf("  T_EX        = %8.1f s\n", d.TEX)
	fmt.Printf("  T_data      = %8.2f s\n", d.TData)
	fmt.Printf("  T_RepEx-over= %8.2f s\n", d.TRepEx)
	fmt.Printf("  T_RP-over   = %8.2f s\n", d.TRP)

	fmt.Printf("\nper-dimension exchange cost (the S dimension dominates):\n")
	for dim, name := range []string{"temperature", "salt", "umbrella"} {
		_, tex := report.DimDecompose(dim)
		fmt.Printf("  %-12s %8.1f s   acceptance %.1f%%\n",
			name, tex, 100*report.AcceptanceRatioByDim(dim))
	}
}
