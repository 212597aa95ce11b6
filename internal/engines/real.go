package engines

import (
	"fmt"
	"math"
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

	// segs holds each replica's segment, indexed by replica ID. The first
	// InitReplica or MDTask sizes it, and every per-replica array, for
	// the run (newRun); an engine serves one run.
	segs []segment

	mu sync.Mutex
	// trajs holds each slot's (window's) samples, indexed by slot.
	trajs []md.Trajectory
}

// segment is one replica's state (positions and velocities, which only
// the engine reads and writes) and everything its MD segments reuse: the spec MDTask rewrites in place
// (the dispatcher asks for a replica's next segment only after it has
// taken the previous one's result), the Run closure built once, the
// integrator with its scratch and random source (reseeded per segment),
// the parameters a segment runs under, in an array of its own, and its
// samples before they join the slot's.
type segment struct {
	state   md.State
	spec    task.Spec
	run     func() error
	integ   md.LangevinBAOAB
	prm     md.Params
	slot    int
	seed    int64
	steps   int
	samples md.Trajectory
}

// The Langevin integrator's constants: the time step and the friction
// coefficient every real segment runs with.
const (
	langevinDt    float64 = 0.001 // ps
	langevinGamma float64 = 5.0   // 1/ps
)

// NewReal wraps a molecular system. The base state is copied per
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

// InitReplica gives the replica a copy of the base state, relaxes it
// briefly and draws Maxwell-Boltzmann velocities at the replica's window
// temperature, from the random source its segments reuse.
func (e *Real) InitReplica(r *core.Replica, s *core.Spec) {
	sg := e.segment(r.ID, s)
	st := &sg.state
	copy(st.Pos, e.base.Pos)
	copy(st.Vel, e.base.Vel)
	md.Minimize(e.sys, st, r.Params, 200, 1e-2)
	sg.integ.RNG.Seed(mix(e.seed, int64(r.ID)))
	md.InitVelocities(e.sys, st, r.Params.TemperatureK, sg.integ.RNG)
	r.Energy = e.sys.Energy(st, r.Params).Potential()
}

// MDTask describes a real MD segment: the replica's own spec, rewritten
// in place. The replica's parameters and the spec's step count go to the
// integrator as they are; the parameters are copied, because a swap may
// rewrite the replica's while the segment runs. If an exchange or a
// respacing moved the replica's temperature since its last segment, the
// velocities are first rescaled by sqrt(Tnew/Told), the standard T-REMD
// rule.
func (e *Real) MDTask(r *core.Replica, s *core.Spec, dim int) *task.Spec {
	sg := e.segment(r.ID, s)
	if told, tnew := sg.prm.TemperatureK, r.Params.TemperatureK; told > 0 && tnew != told {
		scale := math.Sqrt(tnew / told)
		for i := range sg.state.Vel {
			sg.state.Vel[i] = sg.state.Vel[i].Scale(scale)
		}
	}
	rs := append(sg.prm.Restraints[:0], r.Params.Restraints...)
	sg.prm = r.Params
	sg.prm.Restraints = rs
	sg.slot = r.Slot
	sg.seed = mix(e.seed, int64(r.ID), int64(r.Cycle))
	sg.steps = s.StepsPerCycle
	sg.spec = task.Spec{
		Kind:      task.MD,
		ReplicaID: r.ID,
		Cycle:     r.Cycle,
		Cores:     s.CoresPerReplica,
		CanFail:   true,
		Run:       sg.run,
	}
	return &sg.spec
}

// runSegment integrates one segment on the worker that runs its task,
// and appends its samples to its slot's.
func (e *Real) runSegment(sg *segment) {
	sg.integ.RNG.Seed(sg.seed)
	md.RunSegment(&sg.samples, e.sys, &sg.state, sg.prm, &sg.integ, sg.steps, e.SampleEvery)
	e.mu.Lock()
	e.trajs[sg.slot].Append(sg.samples)
	e.mu.Unlock()
}

// stateGap is the number of unused vectors (192 bytes) between two
// replicas' states in their backing array. Every step writes a state's
// positions and velocities, and a FIFO core queue runs replicas 2k and
// 2k+1 at once: without the gap the tail of one state and the head of
// the next share a cache line, and the two cores contend for it all
// segment long.
const stateGap = 8

// segment returns replica id's segment, sizing the run's tables first.
func (e *Real) segment(id int, s *core.Spec) *segment {
	if e.segs == nil {
		e.newRun(s)
	}
	return &e.segs[id]
}

// newRun sizes the per-run tables: a segment per replica, with its state,
// and a trajectory per slot with room for every sample a barrier run
// takes there (Cycles segments per dimension; a slot that takes more
// grows by append). The states' vectors come from one backing array and
// every series from another, each carved with a full-slice cap, so an
// append on one cannot write into its neighbour. Neighbouring states
// are stateGap vectors apart.
func (e *Real) newRun(s *core.Spec) {
	n, na := s.Replicas(), e.sys.Top.N()
	per := 1
	if e.SampleEvery > 0 {
		per = (s.StepsPerCycle + e.SampleEvery - 1) / e.SampleEvery
	}
	run := per * s.Cycles * len(s.Dims)
	vecs := make([]md.Vec3, n*(2*na+stateGap))
	floats := make([]float64, 4*n*(per+run))
	series := func(k int) md.Trajectory {
		b := floats[: 4*k : 4*k]
		floats = floats[4*k:]
		return md.Trajectory{Phi: b[0:0:k], Psi: b[k : k : 2*k], Potential: b[2*k : 2*k : 3*k], Kinetic: b[3*k : 3*k : 4*k]}
	}
	e.segs = make([]segment, n)
	trajs := make([]md.Trajectory, n)
	for i := range e.segs {
		sg := &e.segs[i]
		sg.state = md.State{Pos: vecs[0:na:na], Vel: vecs[na : 2*na : 2*na]}
		vecs = vecs[2*na+stateGap:]
		sg.integ = md.LangevinBAOAB{Dt: langevinDt, Gamma: langevinGamma, RNG: rand.New(rand.NewSource(0))}
		sg.run = func() error {
			e.runSegment(sg)
			return nil
		}
		sg.samples = series(per)
		trajs[i] = series(run)
	}
	e.mu.Lock()
	e.trajs = trajs
	e.mu.Unlock()
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
	return e.sys.Energy(&e.segs[r.ID].state, r.Params).Potential()
}

// CrossEnergy evaluates the replica's coordinates under foreign
// parameters (the Hamiltonian-exchange single-point energy).
func (e *Real) CrossEnergy(r *core.Replica, under md.Params) float64 {
	return e.sys.Energy(&e.segs[r.ID].state, under).Potential()
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
	if slot < 0 || slot >= len(e.trajs) || e.trajs[slot].Steps == 0 {
		return nil
	}
	return &e.trajs[slot]
}

// WindowCount reports how many windows have collected samples.
func (e *Real) WindowCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for i := range e.trajs {
		if e.trajs[i].Steps > 0 {
			n++
		}
	}
	return n
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
