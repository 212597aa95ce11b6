// Package repex is the public API of the RepEx reproduction: a flexible
// framework for scalable replica-exchange molecular dynamics simulations
// (Treikalis et al., ICPP 2016), implemented in pure Go together with
// every substrate the paper depends on — an MD engine, engine adapters
// for Amber- and NAMD-style codes, a pilot-job runtime and a
// discrete-event HPC cluster model.
//
// The three concepts of the paper's design surface directly:
//
//   - Replica Exchange Patterns: PatternSynchronous and
//     PatternAsynchronous (Spec.Pattern), both expressed as pluggable
//     exchange-trigger policies (Trigger, Spec.Trigger) alongside
//     CountTrigger, AdaptiveTrigger and the closed-loop
//     FeedbackTrigger;
//   - the pilot-job system: NewVirtualRuntime allocates a pilot on a
//     simulated machine and runs workloads in virtual time;
//   - flexible Execution Modes: Mode I/II are derived automatically from
//     the ratio of pilot cores to replicas.
//
// Quick start (real MD, local execution):
//
//	spec := &repex.Spec{
//	    Name:            "t-remd",
//	    Dims:            []repex.Dimension{{Type: repex.Temperature,
//	                     Values: repex.GeometricTemperatures(280, 360, 8)}},
//	    CoresPerReplica: 1, StepsPerCycle: 500, Cycles: 4,
//	}
//	report, err := repex.RunLocal(spec, runtime.NumCPU(), 42)
//
// See examples/ for complete programs and internal/bench for the
// harnesses regenerating every table and figure of the paper.
package repex

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
)

// Version identifies this reproduction release.
const Version = "1.0.0"

// Core REMD types.
type (
	// Spec fully describes an REMD simulation.
	Spec = core.Spec
	// Dimension is one exchange dimension (type + window values).
	Dimension = core.Dimension
	// Replica is one replica of the simulated system.
	Replica = core.Replica
	// Report is the outcome of a run (cycle records, Eq. 1
	// decomposition, utilization).
	Report = core.Report
	// Engine is the MD-engine adapter interface (the AMM layer).
	Engine = core.Engine
	// Pattern selects the Replica Exchange Pattern.
	Pattern = core.Pattern
	// Mode is the Execution Mode (I or II), derived from resources.
	Mode = core.Mode
)

// Exchange dimension types.
const (
	// Temperature is T-REMD exchange.
	Temperature = exchange.Temperature
	// Umbrella is U-REMD (Hamiltonian) exchange.
	Umbrella = exchange.Umbrella
	// Salt is S-REMD (salt concentration) exchange.
	Salt = exchange.Salt
)

// Replica Exchange Patterns: aliases for the two canonical
// exchange-trigger policies (barrier and real-time window). Further
// criteria are selected directly via Spec.Trigger.
const (
	PatternSynchronous  = core.PatternSynchronous
	PatternAsynchronous = core.PatternAsynchronous
)

// Exchange-trigger policies: the criterion deciding when replicas
// transition from the MD phase to the exchange phase. All policies run
// on the same event-driven dispatcher; Spec.Trigger overrides the
// Pattern-derived default.
type (
	// Trigger is the pluggable exchange-trigger policy interface.
	Trigger = core.Trigger
	// BarrierTrigger waits for every alive replica (synchronous RE).
	BarrierTrigger = core.BarrierTrigger
	// WindowTrigger fires at fixed real-time boundaries (asynchronous RE).
	WindowTrigger = core.WindowTrigger
	// CountTrigger fires as soon as N replicas are ready.
	CountTrigger = core.CountTrigger
	// AdaptiveTrigger is a window that tracks MD-time dispersion.
	AdaptiveTrigger = core.AdaptiveTrigger
	// FeedbackTrigger runs one PI controller per exchange dimension,
	// steering a (window, MinReady) actuator pair to hold each
	// dimension's target neighbour-pair acceptance ratio, with a
	// saturation diagnostic when a ladder cannot reach its set point.
	FeedbackTrigger = core.FeedbackTrigger
	// FeedbackDimStatus is one dimension's controller state as exposed
	// by FeedbackTrigger.ControllerStatus (and the /status endpoint).
	FeedbackDimStatus = core.FeedbackDimStatus
)

// NewBarrierTrigger returns the synchronous-pattern policy.
func NewBarrierTrigger() *BarrierTrigger { return core.NewBarrierTrigger() }

// NewWindowTrigger returns the asynchronous-pattern policy: a fixed
// real-time window, optionally firing early once minReady replicas are
// ready.
func NewWindowTrigger(window float64, minReady int) *WindowTrigger {
	return core.NewWindowTrigger(window, minReady)
}

// NewCountTrigger returns a policy that exchanges as soon as count
// replicas are ready, with no real-time window.
func NewCountTrigger(count int) *CountTrigger { return core.NewCountTrigger(count) }

// NewAdaptiveTrigger returns a window policy whose period adapts to the
// observed MD-time dispersion, starting from the given initial window.
func NewAdaptiveTrigger(initial float64) *AdaptiveTrigger {
	return core.NewAdaptiveTrigger(initial)
}

// NewFeedbackTrigger returns a closed-loop policy that widens/narrows
// its window to hold a target acceptance ratio, starting from the given
// initial window; see core.FeedbackTrigger for the knobs.
func NewFeedbackTrigger(initial float64) *FeedbackTrigger {
	return core.NewFeedbackTrigger(initial)
}

// Fault policies.
const (
	FaultDrop     = core.FaultDrop
	FaultRelaunch = core.FaultRelaunch
)

// Online ladder respacing: Spec.Respace arms the actuator behind the
// feedback trigger's saturation diagnostic — a persistently saturated
// dimension has its window values re-fitted from the measured per-pair
// acceptance profile (internal/respace supplies the collector-backed
// planner) and the run continues on the new grid.
type (
	// RespaceSpec configures online ladder respacing on a Spec.
	RespaceSpec = core.RespaceSpec
	// RespacePlanner proposes re-fitted ladders for saturated dimensions.
	RespacePlanner = core.RespacePlanner
	// RespaceRecord is one applied refit, as reported by
	// Simulation.Respacing and carried through snapshots.
	RespaceRecord = core.RespaceRecord
	// RespaceEvent is the bus event published when a refit is applied.
	RespaceEvent = core.RespaceEvent
)

// Checkpoint/restart: a Snapshot captures a run after an exchange event
// (Spec.SnapshotEvery / Spec.OnSnapshot) and Spec.Resume restores it, so
// runs longer than one pilot walltime chain across allocations.
type (
	// Snapshot is a serializable checkpoint of a running simulation.
	Snapshot = core.Snapshot
	// ReplicaState is the per-replica state stored in a Snapshot.
	ReplicaState = core.ReplicaState
)

// DecodeSnapshot parses a snapshot produced by Snapshot.Encode.
func DecodeSnapshot(data []byte) (*Snapshot, error) { return core.DecodeSnapshot(data) }

// Observability: Spec.Bus receives typed MDEvent/ExchangeEvent/
// FaultEvent records as a run progresses. Publication is non-blocking
// (bounded per-subscriber rings), so consumers — internal/analysis's
// online Collector, internal/serve's HTTP status server, or custom
// code — can never stall the dispatcher.
type (
	// Bus is the typed event bus the dispatcher publishes on.
	Bus = core.Bus
	// Subscription is one consumer's bounded view of the bus.
	Subscription = core.Subscription
	// MDEvent records one finally-processed MD segment.
	MDEvent = core.MDEvent
	// ExchangeEvent records one exchange event's pair outcomes and the
	// post-event slot assignment.
	ExchangeEvent = core.ExchangeEvent
	// FaultEvent records one fault-handling action.
	FaultEvent = core.FaultEvent
	// PairOutcome is one attempted neighbour exchange.
	PairOutcome = core.PairOutcome
)

// NewBus returns an empty event bus for Spec.Bus.
func NewBus() *Bus { return core.NewBus() }

// GeometricTemperatures builds the standard T-REMD ladder.
func GeometricTemperatures(lo, hi float64, n int) []float64 {
	return core.GeometricTemperatures(lo, hi, n)
}

// UniformWindows builds n umbrella windows uniformly over [0°, 360°).
func UniformWindows(n int) []float64 { return core.UniformWindows(n) }

// UmbrellaK002 is the paper's umbrella force constant (0.02
// kcal/mol/deg²) in internal units.
var UmbrellaK002 = core.UmbrellaK002

// Machine presets for the virtual cluster.
var (
	Stampede = cluster.Stampede
	SuperMIC = cluster.SuperMIC
	Small    = cluster.Small
)

// RunLocal executes the spec with the real Go MD engine (alanine
// dipeptide model) on local goroutines bounded by workers cores. This is
// the validation path: trajectories are real and free-energy analysis is
// meaningful.
func RunLocal(spec *Spec, workers int, seed int64) (*Report, error) {
	eng, err := NewDipeptideEngine("amber", seed)
	if err != nil {
		return nil, err
	}
	return RunLocalWith(spec, eng, workers)
}

// RunLocalWith executes the spec with a caller-supplied engine on local
// goroutines.
func RunLocalWith(spec *Spec, eng Engine, workers int) (*Report, error) {
	return bench.RunLocal(spec, eng, workers)
}

// NewDipeptideEngine builds a real-execution engine adapter around the
// built-in alanine dipeptide model. Flavor is "amber" or "namd", a
// label: the engine's Name is "<flavor>-real" and nothing else depends
// on it. Every engine shares one system and minimised base state, built
// at the first call.
func NewDipeptideEngine(flavor string, seed int64) (*engines.Real, error) {
	return engines.NewDipeptide(flavor, seed)
}

// VirtualEngineKind selects a cost-model adapter for virtual runs.
type VirtualEngineKind string

// Virtual engine kinds.
const (
	AmberSander VirtualEngineKind = "amber"       // serial sander
	AmberPmemd  VirtualEngineKind = "amber-pmemd" // parallel pmemd.MPI
	NAMD        VirtualEngineKind = "namd"        // NAMD 2.10
)

// RunVirtual executes the spec in virtual time: a pilot of pilotCores is
// provisioned on a simulated machine and the workload runs under
// calibrated cost models. Weeks of supercomputer time complete in
// milliseconds while preserving queueing, batching (Execution Mode II),
// overhead and failure behaviour.
func RunVirtual(spec *Spec, machine cluster.Config, pilotCores int, kind VirtualEngineKind, atoms int, seed int64) (*Report, error) {
	switch kind {
	case AmberSander, AmberPmemd, NAMD:
	default:
		return nil, fmt.Errorf("repex: unknown virtual engine kind %q", kind)
	}
	if atoms <= 0 {
		return nil, fmt.Errorf("repex: atom count must be positive, got %d", atoms)
	}
	// Unbounded walltime and a single pilot here; bounded pilots with
	// failover, multi-pilot splits and chaos plans are the other fields
	// of bench.RunParams, set from the cmd/repex resource file.
	report, err := bench.Run(bench.RunParams{
		Spec:       spec,
		Cluster:    machine,
		PilotCores: pilotCores,
		NewEngine: func(s int64) core.Engine {
			return engines.NewNamedVirtual(string(kind), atoms, s)
		},
		Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return report, nil
}
