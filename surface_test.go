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
	declared := map[string]string{} // "pkg.Func" or "pkg.Type.Method" -> bare name
	used := map[string]bool{}
	walkProgramFiles(t, func(path string, file *ast.File) {
		own := map[*ast.Ident]bool{}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fn.Name] = true
			if !fn.Name.IsExported() || !strings.HasPrefix(path, "internal/") {
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
	})
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

// walkProgramFiles parses every non-test Go file of the root module,
// cmd/, examples/ and benchmark/ and hands it to visit with its
// slash-separated path.
func walkProgramFiles(t *testing.T, visit func(path string, file *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
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
		visit(filepath.ToSlash(path), file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// optionStructs are the option-bearing structs whose exported fields
// must each be something a caller sets; unsetFields lists the fields no
// program code sets, with the reason each stays exported.
var (
	optionStructs = map[string]bool{"engines.Virtual": true, "engines.Real": true, "analysis.Config": true, "core.Spec": true}
	unsetFields   = map[string]string{
		"analysis.Config.TraceLen":  "the restore-trim tests size the slot-trace tail with it",
		"core.Spec.ExchangeWorkers": "inert since the exchange phase became one serial pass; only benchmark/wrap_test.go still sets it, and the next revision of the benchmark deletes both",
	}
)

// TestExportedOptionFieldsAreSet fails when an exported field of an
// option struct is assigned by no non-test file other than the one that
// declares it: an option with one value in use is a constant. A
// composite literal counts for the struct its type names; an assignment
// x.F = v counts for every field named F, so the rule under-reports and
// never over-reports.
func TestExportedOptionFieldsAreSet(t *testing.T) {
	fields := map[string]string{}         // "pkg.Type.Field" -> declaring file
	setIn := map[string]map[string]bool{} // "pkg.Type.Field" or ".Field" -> files assigning it
	set := func(key, path string) {
		if setIn[key] == nil {
			setIn[key] = map[string]bool{}
		}
		setIn[key][path] = true
	}
	walkProgramFiles(t, func(path string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.TypeSpec:
				st, ok := x.Type.(*ast.StructType)
				if name := file.Name.Name + "." + x.Name.Name; ok && optionStructs[name] {
					for _, f := range st.Fields.List {
						for _, id := range f.Names {
							if id.IsExported() {
								fields[name+"."+id.Name] = path
							}
						}
					}
				}
			case *ast.CompositeLit:
				name := ""
				switch typ := x.Type.(type) {
				case *ast.Ident:
					name = file.Name.Name + "." + typ.Name
				case *ast.SelectorExpr:
					if pkg, ok := typ.X.(*ast.Ident); ok {
						name = pkg.Name + "." + typ.Sel.Name
					}
				}
				for _, elt := range x.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set(name+"."+id.Name, path)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set("."+sel.Sel.Name, path)
					}
				}
			}
			return true
		})
	})
	if len(fields) == 0 {
		t.Fatal("found no option struct: the walk or optionStructs is stale")
	}
	setElsewhere := func(key, declaring string) bool {
		for path := range setIn[key] {
			if path != declaring {
				return true
			}
		}
		return false
	}
	var keys []string
	for key := range fields {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		file := fields[key]
		isSet := setElsewhere(key, file) || setElsewhere(key[strings.LastIndex(key, "."):], file)
		_, listed := unsetFields[key]
		switch {
		case !isSet && !listed:
			t.Errorf("%s is exported and set by no program code outside %s: make it a constant, or list it in unsetFields with its reason", key, file)
		case isSet && listed:
			t.Errorf("%s is listed in unsetFields but program code sets it: drop the entry", key)
		}
	}
	for key := range unsetFields {
		if _, ok := fields[key]; !ok {
			t.Errorf("%s is listed in unsetFields but no longer declared: drop the entry", key)
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
