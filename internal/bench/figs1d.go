package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
)

// oneDSpec builds a 1D REMD spec of the given exchange type with n
// windows, matching the §4.2 setup (alanine dipeptide, 6000 steps
// between exchanges, single-core replicas, sander).
func oneDSpec(t exchange.Type, n, cycles int, seed int64) *core.Spec {
	var dim core.Dimension
	switch t {
	case exchange.Temperature:
		dim = core.Dimension{Type: t, Values: core.GeometricTemperatures(273, 373, n)}
	case exchange.Umbrella:
		dim = core.Dimension{Type: t, Values: core.UniformWindows(n), Torsion: "phi", K: core.UmbrellaK002}
	case exchange.Salt:
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 0.05 + 2.0*float64(i)/float64(n)
		}
		dim = core.Dimension{Type: t, Values: vals}
	}
	return &core.Spec{
		Name:            fmt.Sprintf("%s-remd-%d", t.Code(), n),
		Dims:            []core.Dimension{dim},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          cycles,
		Seed:            seed,
	}
}

// sized grows a machine model, doubling its nodes, until it holds n
// cores.
func sized(machine cluster.Config, n int) cluster.Config {
	for machine.TotalCores() < n {
		machine.Nodes *= 2
	}
	return machine
}

// virtualRun executes spec on the machine over one pilot of the given
// cores, with engine's cost model of an atoms-sized system; seed drives
// the cluster's jitter and the engine.
func virtualRun(spec *core.Spec, machine cluster.Config, cores int,
	engine func(natoms int, seed int64) *engines.Virtual, atoms int, seed int64) (*core.Report, error) {
	return Run(RunParams{
		Spec:       spec,
		Cluster:    machine,
		PilotCores: cores,
		NewEngine:  func(s int64) core.Engine { return engine(atoms, s) },
		Seed:       seed,
	})
}

// run1D executes a 1D run in Execution Mode I (cores = replicas).
func run1D(t exchange.Type, n, cycles int, seed int64) (*core.Report, error) {
	return virtualRun(oneDSpec(t, n, cycles, seed), sized(cluster.SuperMIC(), n), n,
		engines.NewAmberVirtual, SmallSystemAtoms, seed)
}

// Fig5Row is one replica count of the overhead characterisation.
type Fig5Row struct {
	Replicas                 int
	TData, UData, SData      float64
	RepEx1D, RepEx3D, RPOver float64
}

// Fig5Overheads reproduces Figure 5: data times per exchange type, RepEx
// overhead for 1D and 3D simulations, and RP overhead, as functions of
// the replica count on SuperMIC.
func Fig5Overheads(quick bool) ([]Fig5Row, *Table, error) {
	cycles := cyclesFor(quick)
	var rows []Fig5Row
	tbl := &Table{
		Title:  "Figure 5: Characterization of overheads (seconds, SuperMIC)",
		Header: []string{"replicas", "T data", "U data", "S data", "RepEx 1D", "RepEx 3D", "RP over"},
	}
	for _, n := range counts(quick) {
		row := Fig5Row{Replicas: n}
		for _, t := range []exchange.Type{exchange.Temperature, exchange.Umbrella, exchange.Salt} {
			rep, err := run1D(t, n, cycles, 100+int64(n))
			if err != nil {
				return nil, nil, err
			}
			d := rep.Decompose()
			switch t {
			case exchange.Temperature:
				row.TData = d.TData
				row.RepEx1D = d.TRepEx
				row.RPOver = d.TRP
			case exchange.Umbrella:
				row.UData = d.TData
			case exchange.Salt:
				row.SData = d.TData
			}
		}
		// A 3D run of the same total size for the 3D RepEx overhead.
		side := cubeSideFor(n)
		cube := side * side * side
		rep3, err := virtualRun(tsuSpec(side, cycles, 300+int64(n)), sized(cluster.SuperMIC(), cube), cube,
			engines.NewAmberVirtual, SmallSystemAtoms, 301+int64(n))
		if err != nil {
			return nil, nil, err
		}
		// Per-sub-cycle overhead, comparable to the 1D value.
		row.RepEx3D = rep3.Decompose().TRepEx / 3
		rows = append(rows, row)
		tbl.AddRow(fmt.Sprint(n), f2(row.TData), f2(row.UData), f2(row.SData),
			f2(row.RepEx1D), f2(row.RepEx3D), f2(row.RPOver))
	}
	tbl.AddNote("paper shape: data times small (max ~6.3 s), T<U<S; RP overhead ∝ replicas; RepEx 3D > 1D")
	return rows, tbl, nil
}

// cubeSideFor maps a 1D replica count to the cube side used by the
// paper's 3D runs (64 -> 4, 216 -> 6, ..., 1728 -> 12).
func cubeSideFor(n int) int {
	side := 2
	for side*side*side < n {
		side++
	}
	return side
}

// Fig6Row is one bar group of the 1D weak-scaling figure.
type Fig6Row struct {
	Replicas               int
	MDT, MDU, MDS          float64 // MD time per exchange type
	EXT, EXU, EXS          float64 // exchange time per exchange type
	CycleT, CycleU, CycleS float64
}

// Fig6Weak1D reproduces Figure 6: decomposition of average cycle time
// into MD and exchange time for U-, S- and T-REMD, replicas = cores from
// 64 to 1728 on SuperMIC.
func Fig6Weak1D(quick bool) ([]Fig6Row, *Table, error) {
	cycles := cyclesFor(quick)
	var rows []Fig6Row
	tbl := &Table{
		Title:  "Figure 6: 1D-REMD weak scaling, Tc decomposition (seconds, SuperMIC)",
		Header: []string{"cores,replicas", "MD(T)", "MD(U)", "MD(S)", "EX(T)", "EX(U)", "EX(S)"},
	}
	for _, n := range counts(quick) {
		row := Fig6Row{Replicas: n}
		for _, t := range []exchange.Type{exchange.Temperature, exchange.Umbrella, exchange.Salt} {
			rep, err := run1D(t, n, cycles, 400+int64(n))
			if err != nil {
				return nil, nil, err
			}
			d := rep.Decompose()
			switch t {
			case exchange.Temperature:
				row.MDT, row.EXT, row.CycleT = d.TMD, d.TEX, rep.AvgCycleTime()
			case exchange.Umbrella:
				row.MDU, row.EXU, row.CycleU = d.TMD, d.TEX, rep.AvgCycleTime()
			case exchange.Salt:
				row.MDS, row.EXS, row.CycleS = d.TMD, d.TEX, rep.AvgCycleTime()
			}
		}
		rows = append(rows, row)
		tbl.AddRow(fmt.Sprintf("%d,%d", n, n), f1(row.MDT), f1(row.MDU), f1(row.MDS),
			f1(row.EXT), f1(row.EXU), f1(row.EXS))
	}
	tbl.AddNote("paper shape: MD bars flat at ~139.6 s; EX(T)≈EX(U), near-linear; EX(S) substantially longer")
	return rows, tbl, nil
}

// Fig7Row is one point of the 1D parallel-efficiency figure.
type Fig7Row struct {
	Cores                     int
	EffT, EffS, EffU, EffNone float64
}

// Fig7Efficiency1D reproduces Figure 7: weak-scaling parallel efficiency
// for T-, S-, U-REMD and the no-exchange baseline, relative to the
// 64-core run.
func Fig7Efficiency1D(quick bool) ([]Fig7Row, *Table, error) {
	cycles := cyclesFor(quick)
	cs := counts(quick)
	type series struct {
		t     exchange.Type
		none  bool
		times map[int]float64
	}
	ss := []*series{
		{t: exchange.Temperature, times: map[int]float64{}},
		{t: exchange.Salt, times: map[int]float64{}},
		{t: exchange.Umbrella, times: map[int]float64{}},
		{t: exchange.Temperature, none: true, times: map[int]float64{}},
	}
	for _, s := range ss {
		for _, n := range cs {
			spec := oneDSpec(s.t, n, cycles, 500+int64(n))
			spec.DisableExchange = s.none
			rep, err := virtualRun(spec, sized(cluster.SuperMIC(), n), n,
				engines.NewAmberVirtual, SmallSystemAtoms, spec.Seed)
			if err != nil {
				return nil, nil, err
			}
			s.times[n] = rep.AvgCycleTime()
		}
	}
	var rows []Fig7Row
	tbl := &Table{
		Title:  "Figure 7: 1D-REMD parallel efficiency (% of linear scaling, SuperMIC)",
		Header: []string{"cores", "T-REMD", "S-REMD", "U-REMD", "No exchange"},
	}
	base := cs[0]
	for _, n := range cs {
		row := Fig7Row{
			Cores:   n,
			EffT:    core.WeakScalingEfficiency(ss[0].times[base], ss[0].times[n]),
			EffS:    core.WeakScalingEfficiency(ss[1].times[base], ss[1].times[n]),
			EffU:    core.WeakScalingEfficiency(ss[2].times[base], ss[2].times[n]),
			EffNone: core.WeakScalingEfficiency(ss[3].times[base], ss[3].times[n]),
		}
		rows = append(rows, row)
		tbl.AddRow(fmt.Sprint(n), pct(row.EffT), pct(row.EffS), pct(row.EffU), pct(row.EffNone))
	}
	tbl.AddNote("paper shape: efficiency decreases with cores; S lowest; no-exchange highest")
	return rows, tbl, nil
}

// Fig8Row is one bar pair of the NAMD weak-scaling figure.
type Fig8Row struct {
	Replicas int
	MD, EX   float64
}

// Fig8NAMD reproduces Figure 8: T-REMD with the NAMD engine, 4000 steps
// between exchanges, weak scaling on SuperMIC.
func Fig8NAMD(quick bool) ([]Fig8Row, *Table, error) {
	cycles := cyclesFor(quick)
	var rows []Fig8Row
	tbl := &Table{
		Title:  "Figure 8: T-REMD with NAMD engine, weak scaling (seconds, SuperMIC)",
		Header: []string{"cores,replicas", "MD time", "Exchange time"},
	}
	for _, n := range counts(quick) {
		spec := oneDSpec(exchange.Temperature, n, cycles, 600+int64(n))
		spec.StepsPerCycle = 4000
		rep, err := virtualRun(spec, sized(cluster.SuperMIC(), n), n,
			engines.NewNAMDVirtual, SmallSystemAtoms, spec.Seed)
		if err != nil {
			return nil, nil, err
		}
		d := rep.Decompose()
		row := Fig8Row{Replicas: n, MD: d.TMD, EX: d.TEX}
		rows = append(rows, row)
		tbl.AddRow(fmt.Sprintf("%d,%d", n, n), f1(row.MD), f1(row.EX))
	}
	tbl.AddNote("paper shape: MD times nearly equal across replica counts; exchange growth non-monomial")
	return rows, tbl, nil
}
