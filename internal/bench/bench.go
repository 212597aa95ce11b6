// Package bench is the experiment harness of the reproduction: one
// function per table and figure of the paper's evaluation (Section 4),
// each running the full RepEx stack (core orchestrator, engine adapter,
// pilot runtime, simulated cluster) and printing the same rows/series the
// paper reports. Quick variants shrink replica counts and cycles for use
// in unit tests and testing.B benchmarks.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/localexec"
	"repro/internal/pilot"
	"repro/internal/sim"
)

// RunParams describes one simulation execution on the virtual cluster.
type RunParams struct {
	Spec       *core.Spec
	Cluster    cluster.Config
	PilotCores int
	// PilotWalltime bounds each pilot's life in virtual seconds; when a
	// pilot expires, its units fail, the scheduler resubmits them and
	// the runtime launches a replacement pilot (failover). Zero or
	// negative means unbounded.
	PilotWalltime float64
	// Pilots splits PilotCores across this many concurrent pilots, one
	// routing slot each of the run's failover runtime (the multi-pilot
	// execution the paper's flexible resource mapping describes). Zero
	// means one.
	Pilots int
	// Chaos, when non-empty, scripts resource faults (node loss,
	// preemption, resize) against the run's pilots at fixed virtual
	// times; see pilot.ChaosPlan. The plan's slot indices address the
	// runtime's routing slots (slot 0 for a single pilot), hitting
	// whichever pilot occupies the slot at fire time.
	Chaos *pilot.ChaosPlan
	// NewEngine constructs the engine adapter (called once).
	NewEngine func(seed int64) core.Engine
	// Seed for cluster jitter and fault draws.
	Seed int64
	// Context cancels the run between exchange events (nil means run to
	// completion); see core.Simulation.RunContext.
	Context context.Context
	// OnStart, when set, receives the constructed simulation right
	// before it runs (serve.Run uses it to flip its status to "running"
	// once the replica set exists).
	OnStart func(*core.Simulation)
}

// LaunchParams is the one Launch→RunParams mapping: the simulation
// block becomes the spec and the named virtual engine, the resource
// block the machine, pilots, walltime and chaos plan. cmd/repex, repexd
// and the shipped-config tests all run what it returns, adding Context
// and OnStart. Specs are stateful, so every call builds a fresh one.
func LaunchParams(l *config.Launch) (RunParams, error) {
	spec, err := l.Sim.ToSpec()
	if err != nil {
		return RunParams{}, err
	}
	machine, ps, err := l.Res.Resolve()
	if err != nil {
		return RunParams{}, err
	}
	p := RunParams{
		Spec:          spec,
		Cluster:       machine,
		PilotCores:    ps.Cores,
		PilotWalltime: ps.Walltime,
		Pilots:        ps.Pilots,
		Chaos:         ps.Chaos,
		NewEngine: func(seed int64) core.Engine {
			return engines.NewNamedVirtual(l.Sim.Engine, l.Sim.Atoms, seed)
		},
		Seed: spec.Seed,
	}
	// Here as well as in Run, so a front end rejects the launch before it
	// reserves anything for it.
	if err := p.admit(); err != nil {
		return RunParams{}, err
	}
	return p, nil
}

// admit is the one admission rule of a run, whichever front end built
// it: a replica's MD task, and a salt dimension's single-point task
// (min(SPEWidth, windows) cores), must fit the widest pilot, or the
// runtime has nowhere to route it.
func (p RunParams) admit() error {
	widest := p.pilotCores(0)
	tooWide := func(what string, cores int) error {
		return fmt.Errorf("bench: %s %d exceeds the widest pilot (%d cores: pilot_cores %d over %d pilots)",
			what, cores, widest, p.PilotCores, max(1, p.Pilots))
	}
	if p.Spec.CoresPerReplica > widest {
		return tooWide("cores_per_replica", p.Spec.CoresPerReplica)
	}
	for i, dim := range p.Spec.Dims {
		if w := min(engines.SPEWidth, len(dim.Values)); dim.Type == exchange.Salt && w > widest {
			return tooWide(fmt.Sprintf("salt dimension %d's single-point width", i), w)
		}
	}
	return nil
}

// Run executes a simulation to completion in virtual time. On a run
// error the returned report, when non-nil, is the partial report of the
// failed or cancelled run — callers must check the error first.
func Run(p RunParams) (*core.Report, error) {
	if err := p.admit(); err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	// A panic out of env.Run from a stepped process (a unit, a pilot's
	// timer, the chaos driver) leaves the orchestrator, the run's one
	// goroutine process, parked; unwinding it on every exit lets the
	// environment go with the run.
	defer env.Close()
	cl, err := cluster.New(env, p.Cluster, p.Seed+1)
	if err != nil {
		return nil, err
	}
	eng := p.NewEngine(p.Seed + 2)
	var report *core.Report
	var runErr error
	env.Go("emm", func(proc *sim.Proc) {
		rt, err := newRuntime(cl, p, proc)
		if err != nil {
			runErr = err
			return
		}
		if !p.Chaos.Empty() {
			if err := p.Chaos.Validate(); err != nil {
				runErr = err
				return
			}
			p.Chaos.Drive(env, rt.PilotAt)
		}
		simu, err := core.New(p.Spec, eng, rt)
		if err != nil {
			runErr = err
			return
		}
		if p.OnStart != nil {
			p.OnStart(simu)
		}
		report, runErr = simu.RunContext(p.Context)
	})
	env.Run()
	if runErr != nil {
		return report, runErr
	}
	if report == nil {
		return nil, fmt.Errorf("bench: simulation %q produced no report", p.Spec.Name)
	}
	return report, nil
}

// RunLocal executes the spec with eng on local goroutines, bounded by
// workers cores (0 or less: GOMAXPROCS). Real MD runs here.
func RunLocal(spec *core.Spec, eng core.Engine, workers int) (*core.Report, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	simu, err := core.New(spec, eng, localexec.New(workers))
	if err != nil {
		return nil, err
	}
	return simu.Run()
}

// pilotCores is slot i's share of the run's cores: PilotCores split
// over max(1, Pilots) pilots, the first ones taking the remainder.
func (p RunParams) pilotCores(i int) int {
	n := max(1, p.Pilots)
	if i < p.PilotCores%n {
		return p.PilotCores/n + 1
	}
	return p.PilotCores / n
}

// newRuntime launches the run's pilots, max(1, Pilots) of them, behind
// one failover runtime.
func newRuntime(cl *cluster.Cluster, p RunParams, proc *sim.Proc) (*pilot.Runtime, error) {
	pilots := make([]*pilot.Pilot, max(1, p.Pilots))
	for i := range pilots {
		pl, err := pilot.Launch(cl, pilot.Description{Cores: p.pilotCores(i), Walltime: p.PilotWalltime})
		if err != nil {
			return nil, err
		}
		pilots[i] = pl
	}
	rt, err := pilot.NewMultiRuntime(proc, pilots...)
	if err != nil {
		return nil, err
	}
	rt.Failover = true
	return rt, nil
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a free-form note line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// pct formats a percentage with one decimal.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// SmallSystemAtoms is the paper's solvated alanine dipeptide size used
// in the 1D and M-REMD experiments.
const SmallSystemAtoms = 2881

// LargeSystemAtoms is the paper's multi-core-replica system size.
const LargeSystemAtoms = 64366

// FullReplicaCounts are the replica counts of Figures 5-9.
var FullReplicaCounts = []int{64, 216, 512, 1000, 1728}

// QuickReplicaCounts shrink the sweeps for tests.
var QuickReplicaCounts = []int{64, 216}

// counts selects the sweep for the given mode.
func counts(quick bool) []int {
	if quick {
		return QuickReplicaCounts
	}
	return FullReplicaCounts
}

// cyclesFor returns the cycle count: the paper averages over 4 cycles.
func cyclesFor(quick bool) int {
	if quick {
		return 2
	}
	return 4
}
