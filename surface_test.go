package repex

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// unreached lists the exported functions and methods under internal/
// that no program code reaches, each with the reason it stays: it is how
// the tests observe or set up behaviour that the program does reach.
// Anything else unreached is deleted, not listed.
var unreached = map[string]string{
	"cluster.Cluster.CoresInUse":         "pilot and cluster tests check that expiry, node loss and release hand back every machine core",
	"config.ParseResource":               "benchmark/'s tests and the config and chaos-plan tests parse a resource block through it",
	"core.CycleRecord.AcceptanceRatio":   "dispatcher tests bound every record's ratio",
	"core.HistoryFingerprint":            "shard and history-tail tests recompute Report.SlotFingerprint from the rows",
	"core.Simulation.SlotParams":         "tests read the parameters a slot was built with (pH ladder, umbrella centres)",
	"engines.Real.WindowCount":           "the real-engine test counts the windows an MD task sampled",
	"exchange.AcceptanceRatio":           "TestSweepRespectsProbabilities measures Sweep's decisions through it",
	"jsonx.Layout.CheckTags":             "the layout tests hold each tagged checkpoint record's layout to its json tags, encoding/json's view of the same record",
	"localexec.handle.Done":              "task.Handle's Done: TestRuntimeContract (internal/task/tasktest) and benchmark/nullrt_test.go check a delivered handle through it",
	"md.Box.Volume":                      "TestBuildLJFluid checks the built density",
	"md.BuildSolvatedDipeptide":          "fixture of kernel.golden and the periodic-system tests",
	"md.BuildTitratableDipeptide":        "fixture of kernel.golden and the titration tests",
	"md.MustNewSystem":                   "fixture constructor of the md and engines tests",
	"md.PhiPsiIndices":                   "md tests locate the dipeptide's torsions with it",
	"md.System.Excluded":                 "compile tests check the compiled exclusion table",
	"md.System.InstantaneousTemperature": "the thermostat tests' observer",
	"md.System.Is14":                     "compile tests check the compiled 1-4 table",
	"pilot.Pilot.BusyCoreSeconds":        "observer pinned by lifecycle.golden",
	"pilot.Pilot.CoresInUse":             "pilot tests check that failed and finished units release their cores",
	"pilot.Pilot.UnitsExpired":           "observer pinned by lifecycle.golden and runtime.golden",
	"pilot.Runtime.InFlightCores":        "the multi-pilot churn test's routing invariant",
	"pilot.Runtime.RecentLoad":           "the multi-pilot churn test's routing invariant",
	"pilot.Unit.Done":                    "task.Handle's Done: TestRuntimeContract and the pilot lifecycle tests check a finished unit through it",
	"pilot.Unit.State":                   "lifecycle.golden hashes every unit's final state through it",
	"sim.Env.Live":                       "kernel tests check that every process ended",
	"sim.Env.SetTrace":                   "records the wake order order.golden and delay_order.golden pin",
	"sim.Resource.Available":             "resource tests' observer",
	"sim.Resource.PeakInUse":             "resource tests' observer",
	"sim.Resource.QueueLen":              "resource tests' observer",
	"sim.Signal.Signal":                  "order.golden, delay_order.golden and mixed_order.golden pin the wake order of processes it wakes one at a time",
	"sim.Signal.Waiters":                 "signal tests' observer",
	"stats.FromHist":                     "the direct Boltzmann inversion the WHAM tests compare against",
	"stats.Std":                          "the WHAM test bounds the surface's deviation from its reference with it",
	"task.RunAll":                        "localexec and pilot tests submit and await a batch through it",
}

// TestExportedSurfaceIsReached fails when an exported top-level function
// or method under internal/ is reached by no non-test code of the root
// module or of benchmark/: everything exported is something the program
// does. Identifiers are resolved by type, so a method is reached only by
// a use of that method. A call through an interface (or a type
// parameter's constraint) reaches the method, own or promoted, of every
// program type that implements the interface; methods the standard
// library calls through its own interfaces are stdInterfaceMethods.
func TestExportedSurfaceIsReached(t *testing.T) {
	prog := loadProgram(t)
	declared := map[string]*types.Func{} // "pkg.Func" or "pkg.Type.Method" -> its object
	for _, obj := range prog.info.Defs {
		fn, ok := obj.(*types.Func)
		if !ok || !fn.Exported() || !strings.HasPrefix(fn.Pkg().Path(), "repro/internal/") {
			continue
		}
		key := fn.Pkg().Name() + "."
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if types.IsInterface(recv.Type()) {
				continue
			}
			key += namedOf(recv.Type()).Obj().Name() + "."
		}
		declared[key+fn.Name()] = fn
	}
	reached := map[*types.Func]bool{}
	for _, obj := range prog.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil || !types.IsInterface(recv.Type()) {
			reached[fn.Origin()] = true
			continue
		}
		iface := recv.Type().Underlying().(*types.Interface)
		for _, named := range prog.named {
			for _, typ := range []types.Type{named, types.NewPointer(named)} {
				if !types.Implements(typ, iface) {
					continue
				}
				if m, _, _ := types.LookupFieldOrMethod(typ, false, fn.Pkg(), fn.Name()); m != nil {
					reached[m.(*types.Func).Origin()] = true
				}
			}
		}
	}
	keys := make([]string, 0, len(declared))
	for key := range declared {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fn := declared[key]
		_, listed := unreached[key]
		switch isReached := reached[fn] || stdInterfaceMethods[fn.Name()]; {
		case !isReached && !listed:
			t.Errorf("%s is exported and reached by no program code: delete it, or list it in unreached with its reason", key)
		case isReached && listed:
			t.Errorf("%s is listed in unreached but program code reaches it: drop the entry", key)
		}
	}
	for key := range unreached {
		if declared[key] == nil {
			t.Errorf("%s is listed in unreached but no longer declared: drop the entry", key)
		}
	}
}

// optionStructs are the option-bearing structs whose exported fields
// must each be something a caller sets; unsetFields lists the fields no
// program code sets, with the reason each stays exported.
var (
	optionStructs = []string{"engines.Virtual", "engines.Real", "analysis.Config", "core.Spec"}
	unsetFields   = map[string]string{
		"analysis.Config.TraceLen":  "the restore-trim tests size the slot-trace tail with it",
		"core.Spec.ExchangeWorkers": "inert since the exchange phase became one serial pass; only benchmark/wrap_test.go still sets it, and the next revision of the benchmark deletes both",
	}
)

// TestExportedOptionFieldsAreSet fails when an exported field of an
// option struct is set by no non-test file other than the one that
// declares it: an option with one value in use is a constant. A field is
// set by a keyed composite literal or by an assignment to it, each
// resolved by type.
func TestExportedOptionFieldsAreSet(t *testing.T) {
	prog := loadProgram(t)
	setIn := map[*types.Var]map[string]bool{} // field -> files setting it
	set := func(id *ast.Ident, file string) {
		if v, ok := prog.info.Uses[id].(*types.Var); ok && v.IsField() {
			if setIn[v] == nil {
				setIn[v] = map[string]bool{}
			}
			setIn[v][file] = true
		}
	}
	for _, file := range prog.files {
		path := prog.fset.Position(file.Package).Filename
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					set(id, path)
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set(sel.Sel, path)
					}
				}
			}
			return true
		})
	}
	fields := map[string]bool{}
	for _, name := range optionStructs {
		st := prog.lookup(t, name).Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			key := name + "." + f.Name()
			fields[key] = true
			declaring := prog.fset.Position(f.Pos()).Filename
			isSet := false
			for path := range setIn[f] {
				isSet = isSet || path != declaring
			}
			_, listed := unsetFields[key]
			switch {
			case !isSet && !listed:
				t.Errorf("%s is exported and set by no program code outside %s: make it a constant, or list it in unsetFields with its reason", key, prog.rel(declaring))
			case isSet && listed:
				t.Errorf("%s is listed in unsetFields but program code sets it: drop the entry", key)
			}
		}
	}
	for key := range unsetFields {
		if !fields[key] {
			t.Errorf("%s is listed in unsetFields but no longer declared: drop the entry", key)
		}
	}
}

// TestHTTPServerBuiltOnlyByServe fails when non-test code outside
// internal/serve builds an http.Server: serve.Listen builds the one the
// commands and examples serve through, with its slow-client bounds, and
// a server built anywhere else would serve without them. The type is
// resolved, so an import alias does not hide one.
func TestHTTPServerBuiltOnlyByServe(t *testing.T) {
	prog := loadProgram(t)
	for _, file := range prog.files {
		if path.Dir(prog.rel(prog.fset.Position(file.Package).Filename)) == "internal/serve" {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if sel, ok := lit.Type.(*ast.SelectorExpr); ok {
				if tn, ok := prog.info.Uses[sel.Sel].(*types.TypeName); ok && tn.Pkg().Path() == "net/http" && tn.Name() == "Server" {
					t.Errorf("%s builds an http.Server: serve through serve.Listen", prog.rel(prog.fset.Position(lit.Pos()).String()))
				}
			}
			return true
		})
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

// program is the type-checked non-test code of the root module and of
// benchmark/, with one Info over all of it.
type program struct {
	fset  *token.FileSet
	root  string
	pkgs  map[string]*types.Package // by import path
	files []*ast.File
	info  *types.Info
	named []*types.Named // every non-generic, non-interface package-level type
}

var loadOnce = sync.OnceValues(load)

func loadProgram(t *testing.T) *program {
	t.Helper()
	prog, err := loadOnce()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// load lists the packages of both modules with `go list`, parses their
// non-test files and type-checks them from source, importing the
// standard library from export data.
func load() (*program, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	type listed struct {
		ImportPath, Dir string
		GoFiles         []string
	}
	sources := map[string]listed{}
	for _, dir := range []string{".", "benchmark"} {
		cmd := exec.Command("go", "list", "-e", "-json=ImportPath,Dir,GoFiles", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var p listed
			if err := dec.Decode(&p); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return nil, err
			}
			if len(p.GoFiles) > 0 {
				sources[p.ImportPath] = p
			}
		}
	}
	prog := &program{
		fset: token.NewFileSet(),
		root: root,
		pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	std := importer.Default()
	var check func(path string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if _, ours := sources[path]; ours {
			return check(path)
		}
		return std.Import(path)
	})}
	check = func(path string) (*types.Package, error) {
		if pkg, ok := prog.pkgs[path]; ok {
			return pkg, nil
		}
		src := sources[path]
		var files []*ast.File
		for _, name := range src.GoFiles {
			file, err := parser.ParseFile(prog.fset, filepath.Join(src.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, file)
		}
		pkg, err := conf.Check(path, prog.fset, files, prog.info)
		if err != nil {
			return nil, err
		}
		prog.pkgs[path] = pkg
		prog.files = append(prog.files, files...)
		return pkg, nil
	}
	paths := make([]string, 0, len(sources))
	for path := range sources {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		pkg, err := check(path)
		if err != nil {
			return nil, err
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() == nil && !types.IsInterface(named) {
				prog.named = append(prog.named, named)
			}
		}
	}
	return prog, nil
}

// lookup returns the named type "pkg.Type" of a package under internal/.
func (p *program) lookup(t *testing.T, name string) *types.Named {
	t.Helper()
	pkg, typ, _ := strings.Cut(name, ".")
	if p.pkgs["repro/internal/"+pkg] != nil {
		if tn, ok := p.pkgs["repro/internal/"+pkg].Scope().Lookup(typ).(*types.TypeName); ok {
			return tn.Type().(*types.Named)
		}
	}
	t.Fatalf("no type %s: optionStructs is stale", name)
	return nil
}

// rel returns a file's slash-separated path relative to the module root.
func (p *program) rel(path string) string {
	if r, err := filepath.Rel(p.root, path); err == nil {
		return filepath.ToSlash(r)
	}
	return path
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// namedOf returns a method receiver's named type, without its pointer.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}
