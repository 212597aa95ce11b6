package bench

import (
	"fmt"
	"strings"
)

// PackageFeatures is one column of the paper's Table 1: a molecular
// simulation package with integrated or external REMD capability.
type PackageFeatures struct {
	Name           string
	MaxReplicas    int
	MaxCores       int
	FaultTolerance string // "n/a", "medium", "high"
	MDEngines      []string
	REPatterns     []string // "sync", "async"
	ExecModes      string   // "low", "medium", "high"
	NumDims        int
	ExchangeParams int
}

// Table1Packages returns the seven packages of Table 1 with the feature
// levels reported in the paper.
func Table1Packages() []PackageFeatures {
	return []PackageFeatures{
		{"Amber", 2744, 5488, "n/a", []string{"Amber"}, []string{"sync"}, "low", 2, 3},
		{"Gromacs", 253, 253, "n/a", []string{"Gromacs"}, []string{"sync"}, "low", 2, 2},
		{"LAMMPS", 100, 76800, "n/a", []string{"LAMMPS"}, []string{"sync"}, "low", 2, 2},
		{"VCG async", 240, 1920, "medium", []string{"IMPACT"}, []string{"sync", "async"}, "medium", 2, 2},
		{"CHARMM", 4096, 131072, "n/a", []string{"CHARMM"}, []string{"sync"}, "low", 2, 2},
		{"Charm++/NAMD MCA", 2048, 524288, "n/a", []string{"NAMD"}, []string{"sync"}, "low", 2, 2},
		{"RepEx", 3584, 13824, "medium", []string{"Amber", "NAMD"}, []string{"sync", "async"}, "high", 3, 3},
	}
}

// Table1Comparison renders the paper's Table 1.
func Table1Comparison() *Table {
	tbl := &Table{
		Title: "Table 1: Comparison of packages with integrated REMD capability",
		Header: []string{"feature", "Amber", "Gromacs", "LAMMPS", "VCG async",
			"CHARMM", "Charm++/NAMD MCA", "RepEx"},
	}
	pkgs := Table1Packages()
	row := func(label string, get func(PackageFeatures) string) {
		cells := []string{label}
		for _, p := range pkgs {
			cells = append(cells, get(p))
		}
		tbl.AddRow(cells...)
	}
	row("Max replicas", func(p PackageFeatures) string { return fmt.Sprintf("~%d", p.MaxReplicas) })
	row("Max CPU cores", func(p PackageFeatures) string { return fmt.Sprintf("~%d", p.MaxCores) })
	row("Fault tolerance", func(p PackageFeatures) string { return p.FaultTolerance })
	row("MD engines", func(p PackageFeatures) string { return strings.Join(p.MDEngines, ", ") })
	row("RE patterns", func(p PackageFeatures) string { return strings.Join(p.REPatterns, ", ") })
	row("Execution modes", func(p PackageFeatures) string { return p.ExecModes })
	row("Nr. dims", func(p PackageFeatures) string { return fmt.Sprint(p.NumDims) })
	row("Exchange params", func(p PackageFeatures) string { return fmt.Sprint(p.ExchangeParams) })
	return tbl
}
