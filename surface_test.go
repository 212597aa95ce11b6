package repex

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreached lists the exported functions and methods under internal/
// that no program code names, each with the reason it stays: it is how
// the tests observe or set up behaviour that the program does reach.
// Anything else unreferenced is deleted, not listed.
var unreached = map[string]string{
	"cluster.Cluster.CoresInUse":         "pilot and cluster tests check that expiry, node loss and release hand back every machine core",
	"config.ParseResource":               "benchmark/'s tests and the config and chaos-plan tests parse a resource block through it",
	"core.CycleRecord.AcceptanceRatio":   "dispatcher tests bound every record's ratio",
	"core.HistoryFingerprint":            "shard and history-tail tests recompute Report.SlotFingerprint from the rows",
	"core.Simulation.SlotParams":         "tests read the parameters a slot was built with (pH ladder, umbrella centres)",
	"engines.Real.WindowCount":           "the real-engine test counts the windows an MD task sampled",
	"exchange.AcceptanceRatio":           "TestSweepRespectsProbabilities measures Sweep's decisions through it",
	"md.Box.Volume":                      "TestBuildLJFluid checks the built density",
	"md.BuildSolvatedDipeptide":          "fixture of kernel.golden and the periodic-system tests",
	"md.BuildTitratableDipeptide":        "fixture of kernel.golden and the titration tests",
	"md.MustNewSystem":                   "fixture constructor of the md and engines tests",
	"md.PhiPsiIndices":                   "md tests locate the dipeptide's torsions with it",
	"md.System.Excluded":                 "compile tests check the compiled exclusion table",
	"md.System.Is14":                     "compile tests check the compiled 1-4 table",
	"md.System.InstantaneousTemperature": "the thermostat tests' observer",
	"pilot.Pilot.BusyCoreSeconds":        "observer pinned by lifecycle.golden",
	"pilot.Pilot.CoresInUse":             "pilot tests check that failed and finished units release their cores",
	"pilot.Pilot.UnitsExpired":           "observer pinned by lifecycle.golden and runtime.golden",
	"pilot.Runtime.InFlightCores":        "the multi-pilot churn test's routing invariant",
	"pilot.Runtime.RecentLoad":           "the multi-pilot churn test's routing invariant",
	"sim.Env.Live":                       "kernel tests check that every process ended",
	"sim.Env.SetTrace":                   "records the wake order order.golden and delay_order.golden pin",
	"sim.Proc.Notified":                  "kernel tests tell a wake-up from a timeout",
	"sim.Resource.Available":             "resource tests' observer",
	"sim.Resource.PeakInUse":             "resource tests' observer",
	"sim.Resource.QueueLen":              "resource tests' observer",
	"sim.Signal.Waiters":                 "signal tests' observer",
	"stats.FromHist":                     "the direct Boltzmann inversion the WHAM tests compare against",
	"stats.Std":                          "the WHAM test bounds the surface's deviation from its reference with it",
	"task.RunAll":                        "localexec and pilot tests submit and await a batch through it",
}

// TestExportedSurfaceIsReached fails when an exported top-level function
// or method under internal/ is named nowhere outside _test.go files in
// the root module, cmd/, examples/ and benchmark/: everything exported is
// something the program does. Matching is by bare name, so it
// under-reports (a Name method is reached if any Name is called) and
// never over-reports; method names in an interface declaration count as
// references to the methods that satisfy it.
func TestExportedSurfaceIsReached(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]string{} // "pkg.Func" or "pkg.Type.Method" -> bare name
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := map[*ast.Ident]bool{}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fn.Name] = true
			if !fn.Name.IsExported() || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				continue
			}
			key := file.Name.Name + "."
			if fn.Recv != nil {
				key += receiverName(fn.Recv.List[0].Type) + "."
			}
			declared[key+fn.Name.Name] = fn.Name.Name
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for key := range declared {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		_, listed := unreached[key]
		switch reached := used[declared[key]] || stdInterfaceMethods[declared[key]]; {
		case !reached && !listed:
			t.Errorf("%s is exported and named by no program code: delete it, or list it in unreached with its reason", key)
		case reached && listed:
			t.Errorf("%s is listed in unreached but program code names it: drop the entry", key)
		}
	}
	for key := range unreached {
		if _, ok := declared[key]; !ok {
			t.Errorf("%s is listed in unreached but no longer declared: drop the entry", key)
		}
	}
}

// stdInterfaceMethods are reached through standard-library interfaces
// (error, fmt.Stringer, http.Handler, sort and heap, io.Writer,
// json.Marshaler and Unmarshaler).
var stdInterfaceMethods = map[string]bool{
	"Error": true, "String": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Write": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// receiverName returns the type name of a method receiver, without its
// pointer and type parameters.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
