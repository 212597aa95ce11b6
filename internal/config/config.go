// Package config implements RepEx's configuration-file interface: REMD
// simulations and resources are fully specified by two small JSON
// documents (the paper's usability requirement: "must be fully specified
// by configuration files ... a minimal set of parameters").
package config

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/md"
	"repro/internal/pilot"
)

// Simulation is the JSON shape of a simulation input file.
type Simulation struct {
	Name   string `json:"name"`
	Engine string `json:"engine"` // amber | amber-pmemd | namd
	// Atoms is the molecular system size used by the cost models.
	Atoms int `json:"atoms"`
	// Dimensions in exchange order, e.g. TSU.
	Dimensions []Dim `json:"dimensions"`
	// Pattern: "sync" (default) or "async".
	Pattern string `json:"pattern,omitempty"`
	// Trigger optionally selects the exchange-trigger policy directly:
	// "barrier", "window", "count", "adaptive" or "feedback". Empty
	// derives it from Pattern (sync -> barrier, async -> window).
	// "window", "adaptive" and "feedback" use async_window_sec (and
	// async_min_ready); "count" uses trigger_count; "feedback"
	// additionally reads target_acceptance and window_events.
	Trigger string `json:"trigger,omitempty"`
	// TriggerCount is the ready-replica threshold of the "count" trigger.
	TriggerCount int `json:"trigger_count,omitempty"`
	// TargetAcceptance is the "feedback" trigger's acceptance-ratio set
	// point: either a scalar in (0, 1) applied to every exchange
	// dimension (0 selects the built-in default), or a per-dimension
	// map keyed by dimension type code, e.g.
	// {"T": 0.4, "U": 0.25} — a code's target applies to every
	// dimension of that type; codes matching no dimension are rejected.
	// Dimensions a partial map does not cover remain under acceptance
	// control at the built-in default.
	TargetAcceptance TargetAcceptance `json:"target_acceptance,omitempty"`
	// WindowEvents is the rolling measurement window of the "feedback"
	// trigger and the analysis collector: the number of recent
	// neighbour-pair outcomes statistics are computed over (0 selects
	// the built-in default).
	WindowEvents    int     `json:"window_events,omitempty"`
	CoresPerReplica int     `json:"cores_per_replica"`
	StepsPerCycle   int     `json:"steps_per_cycle"`
	Cycles          int     `json:"cycles"`
	FaultPolicy     string  `json:"fault_policy,omitempty"` // drop | relaunch
	AsyncWindowSec  float64 `json:"async_window_sec,omitempty"`
	AsyncMinReady   int     `json:"async_min_ready,omitempty"`
	// HistoryTail bounds the retained slot-assignment history to the
	// newest N exchange events (0 keeps everything). The report's
	// SlotRows count and rolling SlotFingerprint always describe the
	// full run regardless of the bound.
	HistoryTail int   `json:"history_tail,omitempty"`
	Seed        int64 `json:"seed,omitempty"`
	// Respace enables online ladder respacing under the "feedback"
	// trigger: a dimension whose controller stays saturated has its
	// window values re-fitted from measured per-pair acceptance at a
	// checkpoint boundary. Rejected for any other trigger.
	Respace *RespaceConfig `json:"respace,omitempty"`
	// Serve optionally enables the live observability HTTP server of
	// cmd/repex (GET /status, /stats, /metrics). The -listen flag
	// overrides it.
	Serve *Serve `json:"serve,omitempty"`
}

// TargetAcceptance is the acceptance set point of the feedback
// trigger: one scalar shared by every exchange dimension, or a
// per-dimension-type map ({"T": 0.4, "U": 0.25}). The zero value means
// "not configured".
type TargetAcceptance struct {
	// Scalar is the shared set point (scalar JSON form).
	Scalar float64
	// PerDim maps dimension type codes (T, U, S, H) to set points
	// (object JSON form).
	PerDim map[string]float64
}

// UnmarshalJSON accepts both forms: a bare number or an object keyed
// by dimension code.
func (t *TargetAcceptance) UnmarshalJSON(data []byte) error {
	*t = TargetAcceptance{}
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) > 0 && trimmed[0] == '{' {
		return json.Unmarshal(trimmed, &t.PerDim)
	}
	return json.Unmarshal(trimmed, &t.Scalar)
}

// MarshalJSON writes the form that was configured.
func (t TargetAcceptance) MarshalJSON() ([]byte, error) {
	if len(t.PerDim) > 0 {
		return json.Marshal(t.PerDim)
	}
	return json.Marshal(t.Scalar)
}

// IsZero reports an unconfigured set point.
func (t TargetAcceptance) IsZero() bool {
	return t.Scalar == 0 && len(t.PerDim) == 0
}

// RespaceConfig is the JSON shape of the respace block.
type RespaceConfig struct {
	// Enabled turns the mechanism on; a present-but-disabled block is
	// valid and inert.
	Enabled bool `json:"enabled"`
	// AfterSteps is how many consecutive saturated controller steps a
	// dimension must accumulate before it is re-fitted (0: the built-in
	// default).
	AfterSteps int `json:"after_steps,omitempty"`
	// MaxRefits bounds refits per dimension (0: the built-in default).
	MaxRefits int `json:"max_refits,omitempty"`
	// SkipDims opts dimension type codes out of respacing (e.g. ["U"]);
	// a code's opt-out applies to every dimension of that type, and
	// codes matching no dimension are rejected.
	SkipDims []string `json:"skip_dims,omitempty"`
}

// Serve configures the observability endpoint.
type Serve struct {
	// Listen is the host:port to bind (e.g. "127.0.0.1:8080"; port 0
	// picks a free port).
	Listen string `json:"listen"`
	// Pprof mounts net/http/pprof under /debug/pprof/ on the
	// observability server when true. Off by default: profile endpoints
	// are CPU-heavy to collect and expose binary layout, so enable them
	// only on trusted listeners.
	Pprof bool `json:"pprof,omitempty"`
}

// Dim is one exchange dimension. Either Values is given explicitly, or
// Count plus Min/Max generate a ladder (geometric for T, uniform
// otherwise). Umbrella dimensions take a torsion label and a force
// constant in the paper's kcal/mol/deg² units.
type Dim struct {
	Type    string    `json:"type"` // T | U | S
	Values  []float64 `json:"values,omitempty"`
	Count   int       `json:"count,omitempty"`
	Min     float64   `json:"min,omitempty"`
	Max     float64   `json:"max,omitempty"`
	Torsion string    `json:"torsion,omitempty"`
	KDeg2   float64   `json:"k_deg2,omitempty"`
}

// Resource is the JSON shape of a resource file.
type Resource struct {
	// Machine: "stampede", "supermic" or "small".
	Machine string `json:"machine"`
	// Nodes/CoresPerNode override the machine size (required for
	// "small").
	Nodes        int `json:"nodes,omitempty"`
	CoresPerNode int `json:"cores_per_node,omitempty"`
	// PilotCores is the allocation RepEx requests; it need not match
	// replicas x cores-per-replica (Execution Mode II otherwise).
	PilotCores int `json:"pilot_cores"`
	// WalltimeSec bounds each pilot's life: when it expires, executing
	// units fail, the allocation is released and the runtime launches a
	// replacement pilot (failover). 0 means unbounded.
	WalltimeSec  float64 `json:"walltime_sec,omitempty"`
	QueueWaitSec float64 `json:"queue_wait_sec,omitempty"`
	FailureProb  float64 `json:"failure_prob,omitempty"`
	// Pilots splits pilot_cores across this many concurrent pilots, one
	// routing slot each of the run's failover runtime (0 means 1). Each
	// pilot must get at least one core.
	Pilots int   `json:"pilots,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
	// PreemptNoticeSec is the default preemption notice window applied
	// to chaos "preempt" events that omit notice_sec (0: such events
	// preempt immediately).
	PreemptNoticeSec float64 `json:"preempt_notice_sec,omitempty"`
	// Chaos scripts resource faults — node losses that shrink a pilot,
	// spot-style preemption notices, elastic resizes — at fixed virtual
	// times, making lossy-resource runs bit-reproducible. See
	// docs/resources.md for the semantics of each kind.
	Chaos []pilot.ChaosEvent `json:"chaos,omitempty"`
}

// PilotSpec is the pilot request parsed from a resource file.
type PilotSpec struct {
	// Cores is the allocation size.
	Cores int
	// Walltime is the pilot walltime bound in seconds (<= 0 unbounded).
	Walltime float64
	// Pilots is the concurrent pilot count the cores are split across
	// (<= 1: one pilot).
	Pilots int
	// Chaos is the resolved chaos plan (nil: no scripted faults).
	Chaos *pilot.ChaosPlan
}

// ParseSimulation decodes and validates a simulation file.
func ParseSimulation(data []byte) (*Simulation, error) {
	var s Simulation
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("config: %v", err)
	}
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Normalize applies the file-level defaults and validates the
// simulation, including a ToSpec dry run. ParseSimulation calls it
// after decoding; callers that build a Simulation in memory (the repexd
// launch path) call it directly.
func (s *Simulation) Normalize() error {
	if s.Atoms <= 0 {
		s.Atoms = 2881 // the paper's small benchmark system
	}
	if s.Engine == "" {
		s.Engine = "amber"
	}
	switch s.Engine {
	case "amber", "amber-pmemd", "namd":
	default:
		return fmt.Errorf("config: unknown engine %q", s.Engine)
	}
	if s.Serve != nil && s.Serve.Listen == "" {
		return fmt.Errorf("config: serve block requires a listen address (host:port)")
	}
	if _, err := s.ToSpec(); err != nil {
		return err
	}
	return nil
}

// ToSpec converts the file to a core.Spec.
func (s *Simulation) ToSpec() (*core.Spec, error) {
	spec := &core.Spec{
		Name:            s.Name,
		CoresPerReplica: s.CoresPerReplica,
		StepsPerCycle:   s.StepsPerCycle,
		Cycles:          s.Cycles,
		AsyncWindow:     s.AsyncWindowSec,
		AsyncMinReady:   s.AsyncMinReady,
		HistoryTail:     s.HistoryTail,
		Seed:            s.Seed,
	}
	switch s.Pattern {
	case "", "sync":
		spec.Pattern = core.PatternSynchronous
	case "async":
		spec.Pattern = core.PatternAsynchronous
	default:
		return nil, fmt.Errorf("config: unknown pattern %q (want sync or async)", s.Pattern)
	}
	if err := checkGridSize(s.Dimensions); err != nil {
		return nil, err
	}
	// Dimensions are resolved before the trigger: per-dimension feedback
	// targets are keyed by dimension type code and validated against the
	// actual grid.
	for i, d := range s.Dimensions {
		dim, err := d.toDimension()
		if err != nil {
			return nil, fmt.Errorf("config: dimension %d: %v", i, err)
		}
		spec.Dims = append(spec.Dims, dim)
	}
	switch s.Trigger {
	case "":
		// Derived from Pattern.
	case "barrier":
		spec.Pattern = core.PatternSynchronous
		spec.Trigger = core.NewBarrierTrigger()
	case "window":
		if s.AsyncWindowSec <= 0 {
			return nil, fmt.Errorf("config: trigger \"window\" requires a positive async_window_sec")
		}
		spec.Pattern = core.PatternAsynchronous
		spec.Trigger = core.NewWindowTrigger(s.AsyncWindowSec, s.AsyncMinReady)
	case "count":
		if s.TriggerCount < 2 {
			return nil, fmt.Errorf("config: trigger \"count\" requires trigger_count >= 2")
		}
		spec.Pattern = core.PatternAsynchronous
		spec.Trigger = core.NewCountTrigger(s.TriggerCount)
	case "adaptive":
		if s.AsyncWindowSec <= 0 {
			return nil, fmt.Errorf("config: trigger \"adaptive\" requires a positive async_window_sec as the initial window")
		}
		spec.Pattern = core.PatternAsynchronous
		adaptive := core.NewAdaptiveTrigger(s.AsyncWindowSec)
		adaptive.MinReady = s.AsyncMinReady
		spec.Trigger = adaptive
	case "feedback":
		if s.AsyncWindowSec <= 0 {
			return nil, fmt.Errorf("config: trigger \"feedback\" requires a positive async_window_sec as the initial window")
		}
		if s.TargetAcceptance.Scalar < 0 || s.TargetAcceptance.Scalar >= 1 {
			return nil, fmt.Errorf("config: target_acceptance %g outside [0, 1) (0 selects the default %g)",
				s.TargetAcceptance.Scalar, core.DefaultTargetAcceptance)
		}
		spec.Pattern = core.PatternAsynchronous
		fb := core.NewFeedbackTrigger(s.AsyncWindowSec)
		fb.Target = s.TargetAcceptance.Scalar
		targets, err := s.TargetAcceptance.perDimTargets(spec.Dims)
		if err != nil {
			return nil, err
		}
		fb.Targets = targets
		fb.WindowEvents = s.WindowEvents
		fb.MinReady = s.AsyncMinReady
		spec.Trigger = fb
	default:
		return nil, fmt.Errorf("config: unknown trigger %q (want barrier, window, count, adaptive or feedback)", s.Trigger)
	}
	// target_acceptance configures only the feedback controller; on any
	// other policy it would be silently dead configuration, so reject it
	// rather than let the user believe acceptance control is active.
	// (window_events stays valid everywhere: it also sizes the analysis
	// collector's rolling statistics — but negative depths are nonsense
	// under any trigger.)
	if !s.TargetAcceptance.IsZero() && s.Trigger != "feedback" {
		return nil, fmt.Errorf("config: target_acceptance is set but trigger is %q; acceptance control requires \"trigger\": \"feedback\"",
			spec.TriggerName())
	}
	if s.WindowEvents < 0 {
		return nil, fmt.Errorf("config: window_events must be non-negative, got %d", s.WindowEvents)
	}
	// The respace block, like target_acceptance, only means something
	// under the feedback controller: its firing condition is the
	// controller's saturation diagnostic.
	if s.Respace != nil && s.Respace.Enabled {
		if s.Trigger != "feedback" {
			return nil, fmt.Errorf("config: respace is enabled but trigger is %q; ladder respacing requires \"trigger\": \"feedback\"",
				spec.TriggerName())
		}
		disabled, err := s.Respace.skipDims(spec.Dims)
		if err != nil {
			return nil, err
		}
		spec.Respace = &core.RespaceSpec{
			AfterSteps: s.Respace.AfterSteps,
			MaxRefits:  s.Respace.MaxRefits,
			Disabled:   disabled,
		}
	}
	switch s.FaultPolicy {
	case "", "drop":
		spec.FaultPolicy = core.FaultDrop
	case "relaunch":
		spec.FaultPolicy = core.FaultRelaunch
	default:
		return nil, fmt.Errorf("config: unknown fault policy %q", s.FaultPolicy)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// maxReplicas caps a simulation's grid: each dimension's window count
// and their product. It is the largest grid any test or benchmark runs
// (65 536 replicas, BenchmarkDispatcher64K).
const maxReplicas = 1 << 16

// checkGridSize refuses a grid above maxReplicas before any ladder or
// replica is built from it: a count is a size to allocate, and a launch
// body of a few hundred bytes could otherwise ask for gigabytes. The
// product counts explicit values too.
func checkGridSize(dims []Dim) error {
	grid := 1
	for i, d := range dims {
		n := len(d.Values)
		if n == 0 {
			n = d.Count
		}
		if n <= 0 {
			continue // toDimension reports it
		}
		if n > maxReplicas {
			return fmt.Errorf("config: dimension %d: %d windows, above the cap of %d replicas", i, n, maxReplicas)
		}
		if grid *= n; grid > maxReplicas {
			return fmt.Errorf("config: the grid through dimension %d has %d replicas, above the cap of %d", i, grid, maxReplicas)
		}
	}
	return nil
}

// perDimTargets resolves the per-dimension-code map against the actual
// exchange dimensions: a code's target applies to every dimension of
// that type. Out-of-range ratios are configuration errors, and so are
// codes dimsOf refuses.
func (t TargetAcceptance) perDimTargets(dims []core.Dimension) ([]float64, error) {
	if len(t.PerDim) == 0 {
		return nil, nil
	}
	targets := make([]float64, len(dims))
	for code, v := range t.PerDim {
		if err := dimsOf(code, dims, "target_acceptance", "key", func(i int) { targets[i] = v }); err != nil {
			return nil, err
		}
		if v <= 0 || v >= 1 {
			return nil, fmt.Errorf("config: target_acceptance[%q] = %g outside (0, 1)", code, v)
		}
	}
	return targets, nil
}

// skipDims resolves the skip_dims code list against the actual exchange
// dimensions: a code opts out every dimension of its type.
func (r *RespaceConfig) skipDims(dims []core.Dimension) ([]bool, error) {
	if len(r.SkipDims) == 0 {
		return nil, nil
	}
	disabled := make([]bool, len(dims))
	for _, code := range r.SkipDims {
		if err := dimsOf(code, dims, "respace skip_dims", "entry", func(i int) { disabled[i] = true }); err != nil {
			return nil, err
		}
	}
	return disabled, nil
}

// dimsOf resolves a dimension code from the file's field (its item
// names one entry in the errors) and calls set with the index of every
// dimension of that type. Unknown codes and codes no dimension has are
// configuration errors: a silently ignored code would leave the user
// believing a ladder is covered when it is not.
func dimsOf(code string, dims []core.Dimension, field, item string, set func(i int)) error {
	typ, err := exchange.ParseType(code)
	if err != nil {
		return fmt.Errorf("config: %s %s %q is not a dimension code: %v", field, item, code, err)
	}
	matched := false
	for i, d := range dims {
		if d.Type == typ {
			set(i)
			matched = true
		}
	}
	if !matched {
		return fmt.Errorf("config: %s names dimension code %q, but the simulation has no %s dimension",
			field, code, typ)
	}
	return nil
}

func (d Dim) toDimension() (core.Dimension, error) {
	t, err := exchange.ParseType(d.Type)
	if err != nil {
		return core.Dimension{}, err
	}
	values := d.Values
	if len(values) == 0 {
		if d.Count <= 0 {
			return core.Dimension{}, fmt.Errorf("need values or count")
		}
		switch t {
		case exchange.Temperature:
			if d.Min <= 0 || d.Max <= d.Min {
				return core.Dimension{}, fmt.Errorf("temperature ladder needs 0 < min < max")
			}
			values = core.GeometricTemperatures(d.Min, d.Max, d.Count)
		case exchange.Umbrella:
			values = core.UniformWindows(d.Count)
		case exchange.Salt, exchange.PH:
			if d.Min <= 0 || d.Max <= d.Min {
				return core.Dimension{}, fmt.Errorf("%s ladder needs 0 < min < max", t)
			}
			values = make([]float64, d.Count)
			for i := range values {
				if d.Count == 1 {
					values[i] = d.Min
					continue
				}
				frac := float64(i) / float64(d.Count-1)
				values[i] = d.Min + frac*(d.Max-d.Min)
			}
		}
	} else if t == exchange.Umbrella {
		// Umbrella values are given in degrees in the file.
		conv := make([]float64, len(values))
		for i, v := range values {
			conv[i] = md.WrapAngle(md.Rad(v))
		}
		values = conv
	}
	dim := core.Dimension{Type: t, Values: values}
	if t == exchange.Umbrella {
		dim.Torsion = d.Torsion
		dim.K = core.UmbrellaK002
		if d.KDeg2 != 0 {
			dim.K = d.KDeg2 * (180 / 3.141592653589793) * (180 / 3.141592653589793)
		}
	}
	return dim, nil
}

// ParseResource decodes and validates a resource file, returning the
// machine config and the pilot request (size + walltime + pilot count).
func ParseResource(data []byte) (cluster.Config, PilotSpec, error) {
	r, err := DecodeResource(data)
	if err != nil {
		return cluster.Config{}, PilotSpec{}, err
	}
	return r.Resolve()
}

// DecodeResource decodes a resource file without resolving it, so
// callers (cmd/repex) can apply command-line overrides before Resolve.
func DecodeResource(data []byte) (*Resource, error) {
	var r Resource
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("config: %v", err)
	}
	return &r, nil
}

// Resolve validates the resource and returns the machine config plus
// the pilot request. ParseResource calls it after decoding; the repexd
// launch path calls it on an in-memory Resource.
func (r *Resource) Resolve() (cluster.Config, PilotSpec, error) {
	var cfg cluster.Config
	switch r.Machine {
	case "stampede":
		cfg = cluster.Stampede()
	case "supermic":
		cfg = cluster.SuperMIC()
	case "small":
		n, c := r.Nodes, r.CoresPerNode
		if n <= 0 || c <= 0 {
			return cluster.Config{}, PilotSpec{}, fmt.Errorf("config: machine \"small\" needs nodes and cores_per_node")
		}
		cfg = cluster.Small(n, c)
	default:
		return cluster.Config{}, PilotSpec{}, fmt.Errorf("config: unknown machine %q", r.Machine)
	}
	if r.Nodes > 0 {
		cfg.Nodes = r.Nodes
	}
	if r.CoresPerNode > 0 {
		cfg.CoresPerNode = r.CoresPerNode
	}
	if r.QueueWaitSec > 0 {
		cfg.QueueWait = r.QueueWaitSec
	}
	if r.FailureProb > 0 {
		cfg.FailureProb = r.FailureProb
	}
	if r.PilotCores <= 0 {
		return cluster.Config{}, PilotSpec{}, fmt.Errorf("config: pilot_cores must be positive")
	}
	if r.WalltimeSec < 0 {
		return cluster.Config{}, PilotSpec{}, fmt.Errorf("config: walltime_sec must be non-negative")
	}
	if r.Pilots < 0 {
		return cluster.Config{}, PilotSpec{}, fmt.Errorf("config: pilots must be non-negative")
	}
	if r.Pilots > 1 && r.PilotCores/r.Pilots < 1 {
		return cluster.Config{}, PilotSpec{}, fmt.Errorf("config: %d pilot_cores cannot cover %d pilots", r.PilotCores, r.Pilots)
	}
	if r.PreemptNoticeSec < 0 {
		return cluster.Config{}, PilotSpec{}, fmt.Errorf("config: preempt_notice_sec must be non-negative")
	}
	plan, err := r.chaosPlan()
	if err != nil {
		return cluster.Config{}, PilotSpec{}, err
	}
	if err := cfg.Validate(); err != nil {
		return cluster.Config{}, PilotSpec{}, err
	}
	return cfg, PilotSpec{Cores: r.PilotCores, Walltime: r.WalltimeSec, Pilots: r.Pilots, Chaos: plan}, nil
}

// chaosPlan converts the resource's chaos script into a validated
// pilot.ChaosPlan, applying the preempt-notice default and checking
// every targeted slot against the configured pilot count.
func (r *Resource) chaosPlan() (*pilot.ChaosPlan, error) {
	if len(r.Chaos) == 0 {
		return nil, nil
	}
	slots := r.Pilots
	if slots < 1 {
		slots = 1
	}
	plan := &pilot.ChaosPlan{Events: make([]pilot.ChaosEvent, 0, len(r.Chaos))}
	for _, e := range r.Chaos {
		if e.Pilot >= slots {
			return nil, fmt.Errorf("config: chaos event at t=%g targets pilot %d, but only %d pilot slot(s) exist",
				e.At, e.Pilot, slots)
		}
		// e is a copy: the default lands in the plan, not the script.
		if e.Kind == pilot.ChaosPreempt && e.Notice == 0 {
			e.Notice = r.PreemptNoticeSec
		}
		plan.Events = append(plan.Events, e)
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("config: %v", err)
	}
	return plan, nil
}
