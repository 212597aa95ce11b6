// Package core implements the RepEx framework itself: the paper's primary
// contribution. It decouples the replica-exchange algorithm from the MD
// engine (via the Engine interface) and from resource management (via
// task.Runtime), and makes Replica Exchange Patterns first-class,
// swappable policies: one event-driven dispatcher parameterized by an
// exchange-trigger criterion (the Trigger interface). The paper's two
// patterns are the two canonical policies — BarrierTrigger (synchronous)
// and WindowTrigger (asynchronous real-time window) — and further
// criteria (CountTrigger, AdaptiveTrigger, FeedbackTrigger) are small
// policies rather than forks of the core. The two Execution Modes (I: cores >= replicas,
// II: cores < replicas) of Section 3.2.3 are derived from the ratio of
// allocated cores to replicas.
//
// The module structure mirrors the paper's Section 3.3:
//
//   - EMM (execution management): the event-driven dispatcher loop in
//     dispatcher.go, parameterized by a Trigger policy — engine
//     independent, owns synchronization and all runtime calls.
//   - AMM (application management): the Engine implementations in
//     internal/engines — engine specific, translate replicas into tasks.
//   - RAM (remote application modules): the exchange procedures in
//     internal/exchange plus the single-point-energy tasks which execute
//     "on the cluster" (inside compute units).
package core

import (
	"fmt"
	"math"

	"repro/internal/exchange"
	"repro/internal/md"
	"repro/internal/task"
	"repro/internal/trace"
)

// Pattern is a Replica Exchange Pattern (paper §3.2.1). A pattern is an
// alias for a canonical exchange-trigger policy: PatternSynchronous for
// BarrierTrigger and PatternAsynchronous for WindowTrigger. Further
// criteria (CountTrigger, AdaptiveTrigger, or user-supplied policies)
// are selected directly through Spec.Trigger.
type Pattern int

const (
	// PatternSynchronous places a global barrier after the MD phase and
	// after the exchange phase (BarrierTrigger).
	PatternSynchronous Pattern = iota
	// PatternAsynchronous has no global barrier: replicas transition to
	// the exchange phase in subsets based on a real-time window
	// (WindowTrigger honouring AsyncWindow and AsyncMinReady).
	PatternAsynchronous
)

// String names the pattern.
func (p Pattern) String() string {
	if p == PatternAsynchronous {
		return "asynchronous"
	}
	return "synchronous"
}

// Mode is an Execution Mode (paper §3.2.3). It is derived from the ratio
// of allocated cores to simulation size, never set directly.
type Mode int

const (
	// ModeI: enough cores to run every replica concurrently (R >= S).
	ModeI Mode = iota
	// ModeII: fewer cores than replicas; phases run in batched waves.
	ModeII
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeII {
		return "II"
	}
	return "I"
}

// FaultPolicy selects what happens when a replica's MD task fails.
type FaultPolicy int

const (
	// FaultDrop removes the failed replica from the simulation; the
	// remaining replicas continue (the "continue" behaviour in §1).
	FaultDrop FaultPolicy = iota
	// FaultRelaunch resubmits the failed MD task, up to MaxRetries.
	FaultRelaunch
)

// String names the policy.
func (f FaultPolicy) String() string {
	if f == FaultRelaunch {
		return "relaunch"
	}
	return "drop"
}

// Dimension describes one exchange dimension.
type Dimension struct {
	// Type is T, U or S.
	Type exchange.Type
	// Values are the window values along this dimension: Kelvin for T,
	// mol/L for S, restraint centres in radians for U.
	Values []float64
	// Torsion is the labelled torsion a U dimension restrains
	// (e.g. "phi", "psi"); ignored for T and S.
	Torsion string
	// K is the umbrella force constant in kcal/mol/rad² for U
	// dimensions. The paper uses 0.02 kcal/mol/deg² = 65.65.
	K float64
}

// GeometricTemperatures returns n temperatures from lo to hi (Kelvin) in
// geometric progression, the standard T-REMD ladder (and the paper's
// validation choice: 6 windows, 273-373 K).
func GeometricTemperatures(lo, hi float64, n int) []float64 {
	if n <= 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	t := lo
	for i := 0; i < n; i++ {
		out[i] = t
		t *= ratio
	}
	return out
}

// UniformWindows returns n values uniformly spaced over [0, 2π), the
// paper's umbrella window layout (8 windows over 0°..360°).
func UniformWindows(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = md.WrapAngle(2 * math.Pi * float64(i) / float64(n))
	}
	return out
}

// UmbrellaK002 is the paper's umbrella force constant,
// 0.02 kcal/mol/deg², converted to kcal/mol/rad².
var UmbrellaK002 = 0.02 * (180 / math.Pi) * (180 / math.Pi)

// Spec fully describes an REMD simulation; it corresponds to RepEx's
// simulation input file.
type Spec struct {
	Name string
	// Dims are the exchange dimensions in order (e.g. TSU, TUU). The
	// paper supports up to three; the implementation is generic.
	Dims []Dimension
	// Pattern selects synchronous or asynchronous RE.
	Pattern Pattern
	// CoresPerReplica is the MPI width of each replica's MD task.
	CoresPerReplica int
	// StepsPerCycle is the number of MD time-steps between exchange
	// attempts (the paper uses 6000 for Amber, 4000 for NAMD, 20000 for
	// the multi-core experiments).
	StepsPerCycle int
	// Cycles is the number of simulation cycles to run.
	Cycles int
	// FaultPolicy governs replica failures.
	FaultPolicy FaultPolicy
	// MaxRetries bounds relaunch attempts per replica (0:
	// DefaultMaxRetries).
	MaxRetries int
	// AsyncWindow is the real-time window (seconds) after which ready
	// replicas transition to the exchange phase (asynchronous pattern).
	AsyncWindow float64
	// AsyncMinReady optionally triggers an exchange before the window
	// expires once that many replicas are ready; 0 (the default) uses
	// the pure fixed-real-time-window criterion of §4.6.
	AsyncMinReady int
	// DisableExchange skips the exchange phase entirely: replicas run
	// plain MD. Used for the paper's "No exchange" efficiency baseline
	// (Figure 7).
	DisableExchange bool
	// Trigger optionally selects the exchange-trigger policy directly,
	// overriding the Pattern-derived default. This is how criteria
	// beyond the two canonical patterns (e.g. CountTrigger,
	// AdaptiveTrigger, FeedbackTrigger) are chosen. Triggers carry
	// per-run state, so a Trigger instance must not be shared by
	// concurrently running simulations.
	Trigger Trigger
	// Seed drives all stochastic choices of the orchestrator.
	Seed int64
	// SnapshotEvery, when positive, captures a checkpoint Snapshot every
	// that many exchange events and hands it to OnSnapshot. Snapshots
	// taken under the barrier trigger are exact resume points (no MD
	// segment is in flight at a barrier fire); under asynchronous
	// triggers, in-flight segments at the snapshot instant are redone
	// after a resume.
	SnapshotEvery int
	// OnSnapshot receives each captured checkpoint; the caller owns
	// persistence (e.g. cmd/repex writes it to the -checkpoint file).
	OnSnapshot func(*Snapshot)
	// Resume restores the simulation from a checkpoint taken by an
	// earlier run of the same spec: replica slots, cycles, energies,
	// synthetic coordinates and RNG state are restored in New, and the
	// dispatcher continues from the snapshot's exchange-event counter.
	Resume *Snapshot
	// Bus, when non-nil, receives typed MDEvent/ExchangeEvent/FaultEvent
	// records as the run progresses (see events.go). Publication is
	// non-blocking — a slow or stalled subscriber never affects the
	// dispatcher — so attaching a bus cannot change simulation results.
	Bus *Bus
	// Tracer, when non-nil, receives one flight-recorder span per MD
	// segment (submission to final completion, spanning relaunches),
	// exchange phase (with pair-eval and single-point sub-spans),
	// checkpoint write, feedback-controller decision and fault action.
	// Recording is bounded (fixed ring, drop-oldest) and touches
	// neither the RNG stream nor the virtual clock, so an attached
	// tracer cannot change simulation results — the slot history is
	// bit-identical with and without it (test-enforced).
	Tracer *trace.Recorder
	// ExchangeWorkers is ignored: the exchange phase is one serial pass.
	//
	// Deprecated: nothing reads it; it stays only for callers that still
	// set it, and goes with them.
	ExchangeWorkers int
	// HistoryTail, when positive, bounds Report.SlotHistory to the most
	// recent HistoryTail rows; older rows are folded into the rolling
	// Report.SlotFingerprint as they rotate out, keeping exchange-event
	// memory O(tail×replicas) instead of O(events×replicas). 0, the
	// default, retains the complete history.
	HistoryTail int
	// Respace, when non-nil, enables online ladder respacing: a
	// dimension whose feedback controller stays saturated past the
	// configured persistence threshold has its window values re-fitted
	// from measured per-pair acceptance at a checkpoint boundary (see
	// respace.go). Only meaningful with a FeedbackTrigger; nil disables
	// the mechanism.
	Respace *RespaceSpec
}

// triggerPolicy resolves the exchange-trigger policy: Spec.Trigger when
// set, otherwise the canonical policy of the RE pattern (Validate
// refuses any other pattern).
func (s *Spec) triggerPolicy() Trigger {
	switch {
	case s.Trigger != nil:
		return s.Trigger
	case s.Pattern == PatternAsynchronous:
		return NewWindowTrigger(s.AsyncWindow, s.AsyncMinReady)
	default:
		return NewBarrierTrigger()
	}
}

// TriggerName returns the name of the exchange-trigger policy the spec
// selects: Spec.Trigger when set, otherwise the pattern's canonical
// policy. Status surfaces use it so the pattern-to-policy mapping lives
// only in triggerPolicy.
func (s *Spec) TriggerName() string { return s.triggerPolicy().Name() }

// Grid returns the replica grid implied by the dimensions.
func (s *Spec) Grid() exchange.Grid {
	shape := make([]int, len(s.Dims))
	for i, d := range s.Dims {
		shape[i] = len(d.Values)
	}
	return exchange.MustNewGrid(shape...)
}

// Replicas returns the total replica count (product of window counts).
func (s *Spec) Replicas() int {
	n := 1
	for _, d := range s.Dims {
		n *= len(d.Values)
	}
	return n
}

// DimCode returns the paper-style dimension string, e.g. "TSU" or "TUU".
func (s *Spec) DimCode() string {
	code := ""
	for _, d := range s.Dims {
		code += d.Type.Code()
	}
	return code
}

// Validate reports specification errors.
func (s *Spec) Validate() error {
	if len(s.Dims) == 0 {
		return fmt.Errorf("spec %q: at least one exchange dimension required", s.Name)
	}
	for i, d := range s.Dims {
		if len(d.Values) == 0 {
			return fmt.Errorf("spec %q: dimension %d has no windows", s.Name, i)
		}
		switch d.Type {
		case exchange.Temperature:
			for _, v := range d.Values {
				if v <= 0 {
					return fmt.Errorf("spec %q: non-positive temperature %g", s.Name, v)
				}
			}
		case exchange.Salt:
			for _, v := range d.Values {
				if v < 0 {
					return fmt.Errorf("spec %q: negative salt concentration %g", s.Name, v)
				}
			}
		case exchange.PH:
			for _, v := range d.Values {
				if v <= 0 || v > 14 {
					return fmt.Errorf("spec %q: pH window %g outside (0, 14]", s.Name, v)
				}
			}
		case exchange.Umbrella:
			if d.K < 0 {
				return fmt.Errorf("spec %q: negative umbrella K", s.Name)
			}
			if d.Torsion == "" {
				return fmt.Errorf("spec %q: umbrella dimension %d needs a torsion label", s.Name, i)
			}
		}
	}
	if s.CoresPerReplica <= 0 {
		return fmt.Errorf("spec %q: cores per replica must be positive", s.Name)
	}
	if s.StepsPerCycle <= 0 || s.Cycles <= 0 {
		return fmt.Errorf("spec %q: steps per cycle and cycles must be positive", s.Name)
	}
	if s.Trigger == nil && s.Pattern != PatternSynchronous && s.Pattern != PatternAsynchronous {
		return fmt.Errorf("spec %q: unknown pattern %d", s.Name, s.Pattern)
	}
	if s.Pattern == PatternAsynchronous && s.Trigger == nil && s.AsyncWindow <= 0 {
		return fmt.Errorf("spec %q: asynchronous pattern requires a positive AsyncWindow", s.Name)
	}
	if s.HistoryTail < 0 {
		return fmt.Errorf("spec %q: negative history tail %d", s.Name, s.HistoryTail)
	}
	if s.Respace != nil {
		if err := s.Respace.validate(len(s.Dims)); err != nil {
			return fmt.Errorf("spec %q: %v", s.Name, err)
		}
	}
	// Policies with parameters veto configurations that cannot make
	// progress (e.g. a zero-length window, which would livelock).
	if v, ok := s.Trigger.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("spec %q: %v", s.Name, err)
		}
	}
	return nil
}

// Replica is one replica of the simulated system.
type Replica struct {
	// ID is the permanent replica identity.
	ID int
	// Slot is the current grid slot (parameter assignment); exchanges
	// swap slots between replicas.
	Slot int
	// Params are the current thermodynamic parameters (derived from
	// Slot).
	Params md.Params
	// Synth are per-dimension pseudo-coordinates maintained by virtual
	// engines to produce realistic exchange statistics.
	Synth []float64
	// Energy is the most recent potential energy (kcal/mol).
	Energy float64
	// Cycle counts completed MD segments.
	Cycle int
	// Alive is false once the replica has been dropped after failures.
	Alive bool
	// Retries counts relaunch attempts.
	Retries int
}

// Engine is the AMM-side abstraction over an MD engine: it translates
// replicas into task specs and provides energies for exchange decisions.
// Implementations live in internal/engines (amberlite, nanomd and their
// virtual cost-model counterparts).
type Engine interface {
	// Name identifies the engine ("amber", "namd", ...).
	Name() string
	// InitReplica prepares engine-specific replica state (molecular
	// coordinates for real engines, pseudo-coordinates for virtual).
	InitReplica(r *Replica, s *Spec)
	// MDTask builds the MD-phase task for a replica; dim is the
	// dimension whose exchange follows this MD segment (it determines
	// which output files the engine stages, matching the paper's
	// observation that data times differ per exchange type). The
	// dispatcher stamps the spec's ReplicaID before submitting it.
	MDTask(r *Replica, s *Spec, dim int) *task.Spec
	// ExchangeTask builds the exchange-computation task for one
	// dimension over the whole replica set (the paper uses a single
	// MPI task for T/U exchanges).
	ExchangeTask(dim int, totalReplicas int, s *Spec) *task.Spec
	// SinglePointTasks builds the extra per-replica energy tasks a
	// dimension requires (non-empty only for salt exchange). The returned
	// slice may be reused by the next call; the exchange phase submits
	// its specs at once and awaits them before the next event.
	SinglePointTasks(dim int, group []*Replica, s *Spec) []*task.Spec
	// OwnEnergy returns the replica's potential energy under its own
	// parameters; called after the MD phase.
	OwnEnergy(r *Replica) float64
	// CrossEnergy returns the energy of r's configuration evaluated
	// under foreign parameters (Hamiltonian exchange).
	CrossEnergy(r *Replica, under md.Params) float64
	// TorsionIndex resolves a labelled torsion to a dihedral index for
	// umbrella restraints (virtual engines may return the dim index), or
	// -1 for a label the engine does not know, which New rejects.
	TorsionIndex(label string) int
	// PrepOverhead models RepEx's client-side task-preparation time for
	// one phase of nTasks tasks in a ndims-dimensional simulation.
	PrepOverhead(nTasks, ndims int) float64
}
