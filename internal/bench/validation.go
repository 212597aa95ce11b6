package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/stats"
)

// ValidationOptions size the Figure 4 validation run. The paper uses 6
// temperatures × 8×8 umbrella windows (384 replicas), 20000 steps per
// cycle and 90 cycles on 400 Stampede cores; the defaults here are a
// laptop-scale reduction of the same protocol with the real Go MD
// engine.
type ValidationOptions struct {
	// TWindows, UWindows give the grid (T x U x U).
	TWindows, UWindows int
	// StepsPerCycle and Cycles control sampling depth.
	StepsPerCycle, Cycles int
	// Bins is the FES grid resolution per axis.
	Bins int
	// Workers bounds local parallelism (0 = GOMAXPROCS).
	Workers int
	Seed    int64
}

// The validation's geometric temperature ladder spans the paper's
// 273-373 K.
const validationTMin, validationTMax = 273, 373

// DefaultValidationOptions returns a reduced but structurally faithful
// Figure 4 protocol.
func DefaultValidationOptions() ValidationOptions {
	return ValidationOptions{
		TWindows:      3,
		UWindows:      6,
		StepsPerCycle: 400,
		Cycles:        3,
		Bins:          24,
		Seed:          7,
	}
}

// ValidationResult is the Figure 4 output: one free-energy surface per
// temperature plus run statistics.
type ValidationResult struct {
	Temperatures []float64
	Surfaces     []*stats.FES
	// AcceptT and AcceptU are overall acceptance ratios in the T and U
	// dimensions (paper: ~3% for T, ~25% for U).
	AcceptT, AcceptU float64
	Report           *core.Report
}

// Fig4Validation runs the paper's validation protocol (§3.4) with the
// real MD engine: 3D T×U(φ)×U(ψ) REMD of alanine dipeptide followed by
// WHAM free-energy surfaces at each temperature.
func Fig4Validation(opts ValidationOptions) (*ValidationResult, *Table, error) {
	if opts.TWindows <= 0 || opts.UWindows <= 1 || opts.Bins < 1 {
		return nil, nil, fmt.Errorf("bench: validation needs >=1 T window, >=2 U windows and >=1 FES bin per axis")
	}
	eng, err := engines.NewDipeptide("amber", opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	eng.SampleEvery = 10

	spec := &core.Spec{
		Name: "fig4-validation",
		Dims: []core.Dimension{
			{Type: exchange.Temperature, Values: core.GeometricTemperatures(validationTMin, validationTMax, opts.TWindows)},
			{Type: exchange.Umbrella, Values: core.UniformWindows(opts.UWindows), Torsion: "phi", K: core.UmbrellaK002},
			{Type: exchange.Umbrella, Values: core.UniformWindows(opts.UWindows), Torsion: "psi", K: core.UmbrellaK002},
		},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   opts.StepsPerCycle,
		Cycles:          opts.Cycles,
		Seed:            opts.Seed,
	}
	report, err := RunLocal(spec, eng, opts.Workers)
	if err != nil {
		return nil, nil, err
	}

	// WHAM per temperature: the U(φ)×U(ψ) windows of each T layer.
	grid := spec.Grid()
	res := &ValidationResult{
		Temperatures: spec.Dims[0].Values,
		Report:       report,
		AcceptT:      report.AcceptanceRatioByDim(0),
	}
	// Average U acceptance over the two umbrella dimensions.
	res.AcceptU = (report.AcceptanceRatioByDim(1) + report.AcceptanceRatioByDim(2)) / 2

	tbl := &Table{
		Title:  "Figure 4: FES of alanine dipeptide backbone torsions per temperature",
		Header: []string{"T (K)", "windows", "samples", "coverage", "basins<=3kcal", "Fmax (kcal/mol)"},
	}
	for ti := 0; ti < opts.TWindows; ti++ {
		var windows []stats.UmbrellaWindow
		nsamples := 0
		for ui := 0; ui < opts.UWindows; ui++ {
			for uj := 0; uj < opts.UWindows; uj++ {
				slot := grid.Index([]int{ti, ui, uj})
				tr := eng.WindowTrajectory(slot)
				w := stats.UmbrellaWindow{
					PhiCenter: spec.Dims[1].Values[ui],
					PsiCenter: spec.Dims[2].Values[uj],
					KPhi:      spec.Dims[1].K,
					KPsi:      spec.Dims[2].K,
				}
				if tr != nil {
					w.Phi = tr.Phi
					w.Psi = tr.Psi
					nsamples += len(tr.Phi)
				}
				windows = append(windows, w)
			}
		}
		fes, err := stats.WHAM2D(windows, opts.Bins, spec.Dims[0].Values[ti], 1000, 1e-5)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: WHAM at T=%g: %v", spec.Dims[0].Values[ti], err)
		}
		res.Surfaces = append(res.Surfaces, fes)
		tbl.AddRow(f1(spec.Dims[0].Values[ti]), fmt.Sprint(opts.UWindows*opts.UWindows),
			fmt.Sprint(nsamples), pct(100*fes.CoveredFraction()),
			fmt.Sprint(fes.BasinCount(3)), f1(fes.MaxFinite()))
	}
	tbl.AddNote("paper: 6 T x 8x8 U windows (384 replicas); acceptance ~3%% (T), ~25%% (U); energy range 0-16 kcal/mol")
	tbl.AddNote("this run: acceptance T=%.1f%%, U=%.1f%%", 100*res.AcceptT, 100*res.AcceptU)
	return res, tbl, nil
}
