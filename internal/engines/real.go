package engines

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/md"
	"repro/internal/task"
)

// Real is an engine adapter that actually integrates the equations of
// motion with internal/md. It is used with the localexec backend for
// validation (Figure 4) and the examples; the generated tasks carry real
// Run closures instead of cost-model durations.
//
// Per-window trajectories (φ/ψ samples under each slot's parameters) are
// collected thread-safely for free-energy analysis: exactly the data the
// paper feeds to vFEP.
type Real struct {
	name string
	sys  *md.System
	base *md.State

	// SampleEvery sets the observable sampling stride in steps.
	SampleEvery int

	seed int64

	mu    sync.Mutex
	trajs map[int]*md.Trajectory // keyed by slot (window)
}

// The Langevin integrator's constants: the time step and the friction
// coefficient every real segment runs with.
const (
	langevinDt    float64 = 0.001 // ps
	langevinGamma float64 = 5.0   // 1/ps
)

// NewReal wraps a molecular system. The base state is cloned per
// replica. Flavor labels the adapter (Name is "<flavor>-real") and must
// be "amber" or "namd".
func NewReal(flavor string, sys *md.System, base *md.State, seed int64) (*Real, error) {
	if flavor != "amber" && flavor != "namd" {
		return nil, fmt.Errorf("engines: unknown flavor %q (want amber or namd)", flavor)
	}
	return &Real{
		name:        flavor + "-real",
		sys:         sys,
		base:        base,
		SampleEvery: 25,
		seed:        seed,
		trajs:       map[int]*md.Trajectory{},
	}, nil
}

// MustNewReal is NewReal but panics on error.
func MustNewReal(flavor string, sys *md.System, base *md.State, seed int64) *Real {
	e, err := NewReal(flavor, sys, base, seed)
	if err != nil {
		panic(err)
	}
	return e
}

// Name returns the adapter name.
func (e *Real) Name() string { return e.name }

// System exposes the wrapped molecular system.
func (e *Real) System() *md.System { return e.sys }

// InitReplica clones the base state, relaxes it briefly and draws
// Maxwell-Boltzmann velocities at the replica's window temperature.
func (e *Real) InitReplica(r *core.Replica, s *core.Spec) {
	r.State = e.base.Clone()
	md.Minimize(e.sys, r.State, r.Params, 200, 1e-2)
	rng := newRNG(e.seed, int64(r.ID))
	md.InitVelocities(e.sys, r.State, r.Params.TemperatureK, rng)
	r.Energy = e.sys.Energy(r.State, r.Params).Potential()
}

// MDTask builds a real MD segment task: the replica's parameters and
// the spec's step count go to the integrator as they are.
func (e *Real) MDTask(r *core.Replica, s *core.Spec, dim int) *task.Spec {
	// Capture everything the worker goroutine needs; the orchestrator
	// does not touch the replica until the task completes.
	st := r.State
	prm := r.Params.Clone()
	slot := r.Slot
	seed := mix(e.seed, int64(r.ID), int64(r.Cycle))
	steps := s.StepsPerCycle
	return &task.Spec{
		Kind:      task.MD,
		ReplicaID: r.ID,
		Cycle:     r.Cycle,
		Cores:     s.CoresPerReplica,
		CanFail:   true,
		Run: func() error {
			integ := md.NewLangevin(langevinDt, langevinGamma, seed)
			tr := md.RunSegment(e.sys, st, prm, integ, steps, e.SampleEvery)
			e.mu.Lock()
			if e.trajs[slot] == nil {
				e.trajs[slot] = &md.Trajectory{}
			}
			e.trajs[slot].Append(tr)
			e.mu.Unlock()
			return nil
		},
	}
}

// ExchangeTask for the real engine is client-side work of negligible
// cost; no separate cluster task is needed.
func (e *Real) ExchangeTask(dim int, n int, s *core.Spec) *task.Spec { return nil }

// SinglePointTasks: real cross energies are computed directly by
// CrossEnergy, so no extra tasks are required.
func (e *Real) SinglePointTasks(dim int, group []*core.Replica, s *core.Spec) []*task.Spec {
	return nil
}

// OwnEnergy evaluates the replica's current potential energy.
func (e *Real) OwnEnergy(r *core.Replica) float64 {
	return e.sys.Energy(r.State, r.Params).Potential()
}

// CrossEnergy evaluates the replica's coordinates under foreign
// parameters (the Hamiltonian-exchange single-point energy).
func (e *Real) CrossEnergy(r *core.Replica, under md.Params) float64 {
	return e.sys.Energy(r.State, under).Potential()
}

// TorsionIndex resolves a labelled torsion in the real topology, -1 for
// a label it does not have.
func (e *Real) TorsionIndex(label string) int { return e.sys.Top.FindDihedral(label) }

// PrepOverhead is negligible next to real integration.
func (e *Real) PrepOverhead(nTasks, ndims int) float64 { return 0 }

// WindowTrajectory returns the accumulated trajectory sampled under the
// given slot's parameters (nil if none).
func (e *Real) WindowTrajectory(slot int) *md.Trajectory {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.trajs[slot]
}

// WindowCount reports how many windows have collected samples.
func (e *Real) WindowCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.trajs)
}

var _ core.Engine = (*Real)(nil)

// Convenience constructors matching the paper's engine pairings.

// NewAmberVirtual returns a sander-modelled virtual adapter.
func NewAmberVirtual(natoms int, seed int64) *Virtual {
	return NewVirtual("amber", SanderModel(), natoms, seed)
}

// NewPmemdVirtual returns a pmemd.MPI-modelled virtual adapter for
// multi-core replicas.
func NewPmemdVirtual(natoms int, seed int64) *Virtual {
	return NewVirtual("amber-pmemd", PmemdModel(), natoms, seed)
}

// NewNAMDVirtual returns a NAMD-modelled virtual adapter.
func NewNAMDVirtual(natoms int, seed int64) *Virtual {
	return NewVirtual("namd", NAMDModel(), natoms, seed)
}

// NewNamedVirtual maps a config engine name ("amber", "amber-pmemd",
// "namd") to its virtual adapter; unknown names get the sander model,
// matching the config layer's default. cmd/repex and repexd share this
// mapping.
func NewNamedVirtual(engine string, natoms int, seed int64) *Virtual {
	switch engine {
	case "amber-pmemd":
		return NewPmemdVirtual(natoms, seed)
	case "namd":
		return NewNAMDVirtual(natoms, seed)
	default:
		return NewAmberVirtual(natoms, seed)
	}
}

// mix produces a deterministic seed from components.
func mix(parts ...int64) int64 {
	var h int64 = 1469598103934665603
	for _, p := range parts {
		h ^= p
		h *= 1099511628211
	}
	return h
}

func newRNG(seed, stream int64) *rand.Rand { return rand.New(rand.NewSource(mix(seed, stream))) }
