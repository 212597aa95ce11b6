package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
)

// tsuSpec builds the paper's 3D TSU-REMD workload with `side` windows
// per dimension (total replicas side³).
func tsuSpec(side, cycles int, seed int64) *core.Spec {
	saltVals := make([]float64, side)
	for i := range saltVals {
		saltVals[i] = 0.05 + 2.0*float64(i)/float64(side)
	}
	return &core.Spec{
		Name: fmt.Sprintf("tsu-%d", side),
		Dims: []core.Dimension{
			{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, side)},
			{Type: exchange.Salt, Values: saltVals},
			{Type: exchange.Umbrella, Values: core.UniformWindows(side), Torsion: "phi", K: core.UmbrellaK002},
		},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          cycles,
		Seed:            seed,
	}
}

// tuuSpec builds the TUU workload of the multi-core experiments: one
// temperature dimension and two umbrella dimensions (φ and ψ).
func tuuSpec(side, steps, coresPerReplica, cycles int, seed int64) *core.Spec {
	return &core.Spec{
		Name: fmt.Sprintf("tuu-%d-c%d", side, coresPerReplica),
		Dims: []core.Dimension{
			{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, side)},
			{Type: exchange.Umbrella, Values: core.UniformWindows(side), Torsion: "phi", K: core.UmbrellaK002},
			{Type: exchange.Umbrella, Values: core.UniformWindows(side), Torsion: "psi", K: core.UmbrellaK002},
		},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: coresPerReplica,
		StepsPerCycle:   steps,
		Cycles:          cycles,
		Seed:            seed,
	}
}

// Fig9Row is one bar group of the TSU weak-scaling figure.
type Fig9Row struct {
	Replicas      int
	MD            float64
	EXT, EXS, EXU float64
	Cycle         float64
}

// Fig9WeakTSU reproduces Figure 9: TSU-REMD weak scaling on Stampede,
// replicas = cores = side³ for side 4..12.
func Fig9WeakTSU(quick bool) ([]Fig9Row, *Table, error) {
	cycles := cyclesFor(quick)
	sides := []int{4, 6, 8, 10, 12}
	if quick {
		sides = []int{4, 6}
	}
	var rows []Fig9Row
	tbl := &Table{
		Title:  "Figure 9: TSU-REMD weak scaling (seconds, Stampede)",
		Header: []string{"cores,replicas", "MD", "T exch (D1)", "S exch (D2)", "U exch (D3)"},
	}
	for _, side := range sides {
		n := side * side * side
		rep, err := virtualRun(tsuSpec(side, cycles, 700+int64(n)), sized(cluster.Stampede(), n), n,
			engines.NewAmberVirtual, SmallSystemAtoms, 700+int64(n))
		if err != nil {
			return nil, nil, err
		}
		d := rep.Decompose()
		_, exT := rep.DimDecompose(0)
		_, exS := rep.DimDecompose(1)
		_, exU := rep.DimDecompose(2)
		row := Fig9Row{Replicas: n, MD: d.TMD, EXT: exT, EXS: exS, EXU: exU, Cycle: rep.AvgCycleTime()}
		rows = append(rows, row)
		tbl.AddRow(fmt.Sprintf("%d,%d", n, n), f1(row.MD), f1(row.EXT), f1(row.EXS), f1(row.EXU))
	}
	tbl.AddNote("paper shape: MD flat ~495 s; T and U exchange similar, near-linear; S exchange dominant")
	return rows, tbl, nil
}

// Fig10Row is one bar group of the TSU strong-scaling figure.
type Fig10Row struct {
	Cores         int
	Replicas      int
	MD            float64
	EXT, EXS, EXU float64
	Cycle         float64
	Mode          core.Mode
}

// Fig10StrongTSU reproduces Figure 10: TSU-REMD strong scaling, replicas
// fixed (1728 = 12³; 216 = 6³ in quick mode) while cores grow to the
// replica count; all but the last point run in Execution Mode II.
func Fig10StrongTSU(quick bool) ([]Fig10Row, *Table, error) {
	cycles := cyclesFor(quick)
	side := 12
	coreCounts := []int{112, 224, 432, 864, 1728}
	if quick {
		side = 6
		coreCounts = []int{27, 54, 108, 216}
	}
	n := side * side * side
	var rows []Fig10Row
	tbl := &Table{
		Title:  fmt.Sprintf("Figure 10: TSU-REMD strong scaling, %d replicas (seconds, Stampede)", n),
		Header: []string{"cores,replicas", "mode", "MD", "T exch (D1)", "S exch (D2)", "U exch (D3)"},
	}
	for _, c := range coreCounts {
		rep, err := virtualRun(tsuSpec(side, cycles, 800+int64(c)), sized(cluster.Stampede(), n), c,
			engines.NewAmberVirtual, SmallSystemAtoms, 800+int64(c))
		if err != nil {
			return nil, nil, err
		}
		_, exT := rep.DimDecompose(0)
		_, exS := rep.DimDecompose(1)
		_, exU := rep.DimDecompose(2)
		// Strong scaling plots the MD *phase* time, which in Execution
		// Mode II includes the batched waves.
		row := Fig10Row{Cores: c, Replicas: n, MD: rep.AvgMDWall(), EXT: exT, EXS: exS, EXU: exU,
			Cycle: rep.AvgCycleTime(), Mode: rep.Mode}
		rows = append(rows, row)
		tbl.AddRow(fmt.Sprintf("%d,%d", c, n), row.Mode.String(), f1(row.MD),
			f1(row.EXT), f1(row.EXS), f1(row.EXU))
	}
	tbl.AddNote("paper shape: doubling cores halves the MD phase; T/U exchange ~flat; S exchange ~1800 s at 112 cores")
	return rows, tbl, nil
}

// Fig11Row is one point of the TSU efficiency curves.
type Fig11Row struct {
	Cores   int
	WeakEff float64
	StrEff  float64
}

// Fig11EfficiencyTSU reproduces Figure 11: (a) weak-scaling efficiency
// from the Figure 9 sweep and (b) strong-scaling efficiency from the
// Figure 10 sweep, including the efficiency uptick at the final point
// where cores = replicas (Execution Mode I removes the wave-scheduling
// penalty).
func Fig11EfficiencyTSU(quick bool) ([]Fig11Row, *Table, error) {
	weakRows, _, err := Fig9WeakTSU(quick)
	if err != nil {
		return nil, nil, err
	}
	strongRows, _, err := Fig10StrongTSU(quick)
	if err != nil {
		return nil, nil, err
	}
	tbl := &Table{
		Title:  "Figure 11: TSU-REMD parallel efficiency (% of linear scaling, Stampede)",
		Header: []string{"series", "cores", "efficiency"},
	}
	var rows []Fig11Row
	baseWeak := weakRows[0].Cycle
	for _, r := range weakRows {
		e := core.WeakScalingEfficiency(baseWeak, r.Cycle)
		rows = append(rows, Fig11Row{Cores: r.Replicas, WeakEff: e})
		tbl.AddRow("weak (a)", fmt.Sprint(r.Replicas), pct(e))
	}
	baseStrong := strongRows[0]
	for _, r := range strongRows {
		mult := float64(r.Cores) / float64(baseStrong.Cores)
		e := core.StrongScalingEfficiency(baseStrong.Cycle, r.Cycle, mult)
		rows = append(rows, Fig11Row{Cores: r.Cores, StrEff: e})
		tbl.AddRow("strong (b)", fmt.Sprint(r.Cores), pct(e))
	}
	tbl.AddNote("paper shape: (a) decreasing but >50%%; (b) decreasing with an uptick at cores=replicas (Mode II->I)")
	return rows, tbl, nil
}

// Fig12Row is one bar of the multi-core-replica figure.
type Fig12Row struct {
	CoresPerReplica int
	TotalCores      int
	MD              float64
	Executable      string
}

// Fig12MultiCore reproduces Figure 12: TUU-REMD with 216 replicas of the
// 64366-atom system, 20000 steps per cycle, varying cores per replica
// from 1 (sander) to 64 (pmemd.MPI) on Stampede.
func Fig12MultiCore(quick bool) ([]Fig12Row, *Table, error) {
	cycles := cyclesFor(quick) / 2
	if cycles < 1 {
		cycles = 1
	}
	side := 6 // 6x6x6 = 216 replicas
	cprs := []int{1, 16, 32, 48, 64}
	if quick {
		cprs = []int{1, 16}
	}
	var rows []Fig12Row
	tbl := &Table{
		Title:  "Figure 12: TUU-REMD multi-core replicas, 216 replicas, 64366 atoms (seconds, Stampede)",
		Header: []string{"cores,replicas", "cores/replica", "executable", "MD time"},
	}
	for _, cpr := range cprs {
		exe, engine := "pmemd.MPI", engines.NewPmemdVirtual
		if cpr == 1 {
			// pmemd.MPI can't run on a single core; the paper switches
			// to sander there.
			exe, engine = "sander", engines.NewAmberVirtual
		}
		total := 216 * cpr
		rep, err := virtualRun(tuuSpec(side, 20000, cpr, cycles, 900+int64(cpr)), sized(cluster.Stampede(), total), total,
			engine, LargeSystemAtoms, 900+int64(cpr))
		if err != nil {
			return nil, nil, err
		}
		d := rep.Decompose()
		row := Fig12Row{CoresPerReplica: cpr, TotalCores: total, MD: d.TMD, Executable: exe}
		rows = append(rows, row)
		md := row.MD
		note := ""
		if cpr == 1 {
			md /= 10
			note = " (shown /10 as in the paper)"
		}
		tbl.AddRow(fmt.Sprintf("%d,216", total), fmt.Sprint(cpr), exe, f1(md)+note)
	}
	tbl.AddNote("paper shape: large MD drop to 16 cores/replica; sub-linear gains beyond (small system)")
	return rows, tbl, nil
}

// Fig13Row is one point pair of the utilization figure.
type Fig13Row struct {
	Replicas  int
	SyncUtil  float64
	AsyncUtil float64
}

// Fig13Utilization reproduces Figure 13: CPU utilization (fraction of
// ideal MD-only time, Eq. 4) for the synchronous and asynchronous RE
// patterns over 120-960 single-core replicas, Execution Mode I. The
// asynchronous pattern uses the fixed real-time-window transition
// criterion described in §4.6.
func Fig13Utilization(quick bool) ([]Fig13Row, *Table, error) {
	// Utilization needs enough cycles for the async window idling to
	// reach steady state (the final cycle pays no window wait), so the
	// cycle count is not reduced in quick mode.
	cycles := 4
	ns := []int{120, 240, 480, 960}
	if quick {
		ns = []int{120, 240}
	}
	var rows []Fig13Row
	tbl := &Table{
		Title:  "Figure 13: Utilization, sync vs async T-REMD (% of ideal, SuperMIC)",
		Header: []string{"cores,replicas", "Sync T-REMD", "Async T-REMD"},
	}
	for _, n := range ns {
		mk := func(pattern core.Pattern) (*core.Report, error) {
			spec := oneDSpec(exchange.Temperature, n, cycles, 1000+int64(n))
			spec.Pattern = pattern
			if pattern == core.PatternAsynchronous {
				spec.AsyncWindow = 100 // ~70% of a segment: boundary quantization costs ~10 pp, as in the paper
			}
			machine := sized(cluster.SuperMIC(), n)
			machine.ExecJitter = 0.06
			return virtualRun(spec, machine, n, engines.NewAmberVirtual, SmallSystemAtoms, spec.Seed)
		}
		syncRep, err := mk(core.PatternSynchronous)
		if err != nil {
			return nil, nil, err
		}
		asyncRep, err := mk(core.PatternAsynchronous)
		if err != nil {
			return nil, nil, err
		}
		row := Fig13Row{Replicas: n, SyncUtil: 100 * syncRep.Utilization(), AsyncUtil: 100 * asyncRep.Utilization()}
		rows = append(rows, row)
		tbl.AddRow(fmt.Sprintf("%d,%d", n, n), pct(row.SyncUtil), pct(row.AsyncUtil))
	}
	tbl.AddNote("paper shape: sync ~10 percentage points above async, roughly flat in replica count")
	return rows, tbl, nil
}
