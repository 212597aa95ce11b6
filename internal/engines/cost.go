// Package engines provides the MD-engine adapters of the RepEx
// reproduction: the Application Management Module (AMM) layer of the
// paper's architecture. Each adapter translates replicas into task
// specs, generates and parses engine-style input/output files, and
// supplies energies for exchange decisions.
//
// Two families exist:
//
//   - Virtual engines drive the virtual-time pilot backend with cost
//     models calibrated to the timings reported in the paper (sander,
//     pmemd.MPI, NAMD 2.10) and synthesize exchange statistics; they
//     power all performance experiments.
//   - Real engines run the internal/md force field for real; they power
//     the validation (Figure 4) and the examples.
package engines

import (
	"math"

	"repro/internal/exchange"
)

// Calibration constants, in reference-machine seconds (Stampede speed
// factor 1.0). Sources: §4.2 "the time to perform 6000 time-steps is
// nearly identical ... 139.6 seconds" on SuperMIC (speed 1.18) for 2881
// atoms with sander, giving 164.7 s reference = SanderSecsPerAtomStep *
// 2881 * 6000; §4.4 M-REMD MD times ~495 s per 3-dimension cycle on
// Stampede (165 s per sub-cycle) — consistent with the same constant.
const (
	// SanderSecsPerAtomStep is the serial sander cost.
	SanderSecsPerAtomStep = 9.53e-6
	// PmemdSpeedup is pmemd's serial speed advantage over sander.
	PmemdSpeedup = 2.5
	// PmemdParallelFraction is the Amdahl parallel fraction of
	// pmemd.MPI for the paper's 64366-atom system.
	PmemdParallelFraction = 0.98
	// NAMDSecsPerAtomStep calibrates NAMD 2.10: ~230 s for 4000 steps
	// of 2881 atoms on SuperMIC (Figure 8 upper panel).
	NAMDSecsPerAtomStep = 2.35e-5
	// SPESecsPerAtom is the cost of one Amber single-point energy task
	// (group-file run) including program startup; ~25 s at 2881 atoms.
	// Every cost model's single-point tasks take it.
	SPESecsPerAtom = 8.68e-3
	// SPEWidth is the core width of one single-point task: "at least as
	// many CPU cores as there are potential exchange partners" — the
	// replica itself plus up to three neighbour states in the group
	// file.
	SPEWidth = 4
)

// CostModel predicts reference-machine task durations and staging
// volumes for one MD engine executable.
type CostModel struct {
	// Name of the modelled executable ("sander", "pmemd.MPI", "namd2").
	Name string
	// MDSeconds returns the duration of an MD segment.
	MDSeconds func(natoms, steps, cores int) float64
	// ExchangeSeconds returns the duration of the single
	// exchange-computation task for a dimension type over n replicas.
	ExchangeSeconds func(t exchange.Type, n int) float64
	// Staging volumes per MD task, by exchange type: the paper's
	// Figure 5 shows data time ordered T < U < S because the file sets
	// differ per exchange type (restraint files for U, group files for
	// S).
	MDInFiles  func(t exchange.Type) int
	MDOutFiles func(t exchange.Type) int
	// MDFileBytes is the approximate payload per staged file.
	MDFileBytes int64
}

// SanderModel returns the cost model of Amber's serial sander executable.
func SanderModel() CostModel {
	return CostModel{
		Name: "sander",
		MDSeconds: func(natoms, steps, cores int) float64 {
			// sander is serial: extra cores do not speed it up.
			return SanderSecsPerAtomStep * float64(natoms) * float64(steps)
		},
		ExchangeSeconds: exchangeSecondsAmber,
		MDInFiles:       amberInFiles,
		MDOutFiles:      amberOutFiles,
		MDFileBytes:     16 << 10,
	}
}

// PmemdModel returns the cost model of pmemd.MPI, Amber's parallel
// engine used for multi-core replicas (it cannot run on a single core,
// which the adapter enforces).
func PmemdModel() CostModel {
	return CostModel{
		Name: "pmemd.MPI",
		MDSeconds: func(natoms, steps, cores int) float64 {
			serial := SanderSecsPerAtomStep / PmemdSpeedup * float64(natoms) * float64(steps)
			p := float64(cores)
			f := PmemdParallelFraction
			// Amdahl plus a small communication term that grows with
			// core count; for the paper's relatively small 64366-atom
			// system this is what flattens scaling beyond ~16 cores
			// (§4.5: "difficult to gain significant performance
			// improvements by using more CPUs").
			comm := 0.002 * serial * math.Log2(math.Max(p, 1))
			return serial*((1-f)+f/p) + comm
		},
		ExchangeSeconds: exchangeSecondsAmber,
		MDInFiles:       amberInFiles,
		MDOutFiles:      amberOutFiles,
		MDFileBytes:     16 << 10,
	}
}

// NAMDModel returns the cost model of NAMD 2.10.
func NAMDModel() CostModel {
	return CostModel{
		Name: "namd2",
		MDSeconds: func(natoms, steps, cores int) float64 {
			serial := NAMDSecsPerAtomStep * float64(natoms) * float64(steps)
			p := float64(cores)
			f := 0.99
			return serial * ((1 - f) + f/p)
		},
		// NAMD exchange timing: the paper notes its growth "can't be
		// characterized as monomial" (Figure 8, lower panel) — a mixed
		// linear + square-root model reproduces that shape.
		ExchangeSeconds: func(t exchange.Type, n int) float64 {
			return 0.3 + 0.002*float64(n) + 0.6*math.Sqrt(float64(n))
		},
		MDInFiles:   func(t exchange.Type) int { return 1 },
		MDOutFiles:  func(t exchange.Type) int { return 3 },
		MDFileBytes: 24 << 10,
	}
}

// exchangeSecondsAmber models the single-MPI-task exchange computation
// used for T and U exchanges with Amber (§4.2): near-linear in the
// replica count, nearly identical for T and U ("we don't see a
// significant difference in exchange timings between U-REMD and
// T-REMD"). Salt uses the same partner-determination task; its extra
// cost comes from the separate single-point tasks.
func exchangeSecondsAmber(t exchange.Type, n int) float64 {
	base := 1.0 + 0.028*float64(n)
	switch t {
	case exchange.Umbrella:
		// The internal single-point evaluation for U is slightly more
		// involved but not significantly so.
		base *= 1.05
	case exchange.Salt:
		// Gathering the group-file single-point results adds a larger
		// per-replica cost, keeping S exchange near-linear overall.
		base = 1.0 + 0.10*float64(n)
	}
	return base
}

// amberInFiles: coordinates for T; plus restraint definition for U;
// plus group files for S.
func amberInFiles(t exchange.Type) int {
	switch t {
	case exchange.Umbrella:
		return 2
	case exchange.Salt:
		return 3
	default:
		return 1
	}
}

// amberOutFiles: mdinfo + restart for T; plus restraint trace for U;
// plus group-file energies for S.
func amberOutFiles(t exchange.Type) int {
	switch t {
	case exchange.Umbrella:
		return 4
	case exchange.Salt:
		return 5
	default:
		return 3
	}
}
