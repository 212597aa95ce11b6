package engines

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/exchange"
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

	// min is the scratch every InitReplica minimisation reuses, and
	// minima the replicas it minimised from the base state, one for
	// each distinct potential (md.System.SamePotential) so far; another
	// replica of that potential copies their positions. A replica that
	// has run a segment has left its minimum, so MDTask empties minima.
	min    md.Minimizer
	minima []int

	mu sync.Mutex
	// trajs holds each slot's (window's) samples, indexed by slot.
	trajs []md.Trajectory
	// rngs are the random sources no segment holds: a segment takes one
	// for its run and reseeds it, so which one it takes moves no bit,
	// and a run makes as many as it runs segments at once.
	rngs []*rand.Rand
}

// segment is one replica's state (positions and velocities, which only
// the engine reads and writes) and everything its MD segments reuse: the
// spec MDTask rewrites in place (the dispatcher asks for a replica's
// next segment only after it has taken the previous one's result), the
// Run closure built once, the integrator with its scratch, the
// parameters a segment runs under, with a restraint array of their own,
// and its samples before they join the slot's.
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
	// The pad keeps this segment's per-step writes (the state's
	// evaluation count, the integrator's energy, the samples) 128 bytes
	// from its neighbour's: a cache line and the one an adjacent-line
	// prefetcher fetches with it.
	_ [128]byte
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

// NewDipeptide builds a real engine around the built-in alanine
// dipeptide model. Flavor is as for NewReal. Every engine shares one
// system and minimised base state, built at the first call.
func NewDipeptide(flavor string, seed int64) (*Real, error) {
	d, err := dipeptide()
	if err != nil {
		return nil, err
	}
	return NewReal(flavor, d.sys, d.base, seed)
}

// dipeptideModel is the built-in dipeptide's system and its minimised
// base state. Engines only read both, so one per process serves them all.
type dipeptideModel struct {
	sys  *md.System
	base *md.State
}

// dipeptide builds the model once per process.
var dipeptide = sync.OnceValues(func() (dipeptideModel, error) {
	top, st := md.BuildAlanineDipeptide()
	sys, err := md.NewSystem(top, md.Box{}, 0)
	if err != nil {
		return dipeptideModel{}, err
	}
	md.Minimize(sys, st, md.Params{TemperatureK: 300}, 2000, 1e-3)
	return dipeptideModel{sys: sys, base: st}, nil
})

// Name returns the adapter name.
func (e *Real) Name() string { return e.name }

// System exposes the wrapped molecular system.
func (e *Real) System() *md.System { return e.sys }

// InitReplica gives the replica the base state's positions relaxed
// briefly under its parameters, and draws Maxwell-Boltzmann velocities
// at its window temperature. The relaxation depends on the potential
// alone, so it runs once for each distinct potential, and the other
// replicas of that potential copy its positions.
func (e *Real) InitReplica(r *core.Replica, s *core.Spec) {
	sg := e.segment(r.ID, s)
	sg.setParams(r.Params)
	st := &sg.state
	if src := e.minimum(r.Params); src != nil {
		copy(st.Pos, src)
	} else {
		copy(st.Pos, e.base.Pos)
		e.min.Minimize(e.sys, st, r.Params, 200, 1e-2)
		e.minima = append(e.minima, r.ID)
	}
	rng := e.source()
	rng.Seed(mix(e.seed, int64(r.ID)))
	md.InitVelocities(e.sys, st, r.Params.TemperatureK, rng)
	e.release(rng)
	r.Energy = e.sys.Energy(st, r.Params).Potential()
}

// minimum returns the positions InitReplica minimised for prm's
// potential, nil if it has minimised none.
func (e *Real) minimum(prm md.Params) []md.Vec3 {
	for _, id := range e.minima {
		if sg := &e.segs[id]; e.sys.SamePotential(sg.prm, prm) {
			return sg.state.Pos
		}
	}
	return nil
}

// setParams makes prm the parameters the segment runs under, copying
// the restraints into the segment's own array: a swap may rewrite the
// replica's while the segment runs.
func (sg *segment) setParams(prm md.Params) {
	rs := append(sg.prm.Restraints[:0], prm.Restraints...)
	sg.prm = prm
	sg.prm.Restraints = rs
}

// MDTask describes a real MD segment: the replica's own spec, rewritten
// in place. The replica's parameters and the spec's step count go to the
// integrator as they are; the parameters are copied (setParams). If an
// exchange or a respacing moved the replica's temperature since its last
// segment (or its initialisation), the velocities are first rescaled by
// sqrt(Tnew/Told), the standard T-REMD rule.
func (e *Real) MDTask(r *core.Replica, s *core.Spec, dim int) *task.Spec {
	sg := e.segment(r.ID, s)
	e.minima = e.minima[:0]
	if told, tnew := sg.prm.TemperatureK, r.Params.TemperatureK; told > 0 && tnew != told {
		scale := math.Sqrt(tnew / told)
		for i := range sg.state.Vel {
			sg.state.Vel[i] = sg.state.Vel[i].Scale(scale)
		}
	}
	sg.setParams(r.Params)
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
// with a random source seeded for the segment, and appends its samples
// to its slot's.
func (e *Real) runSegment(sg *segment) {
	rng := e.source()
	rng.Seed(sg.seed)
	sg.integ.RNG = rng
	md.RunSegment(&sg.samples, e.sys, &sg.state, sg.prm, &sg.integ, sg.steps, e.SampleEvery)
	sg.integ.RNG = nil
	e.mu.Lock()
	e.trajs[sg.slot].Append(sg.samples)
	e.rngs = append(e.rngs, rng)
	e.mu.Unlock()
}

// source takes a random source off the free list, making one if every
// source is in use.
func (e *Real) source() *rand.Rand {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.rngs)
	if n == 0 {
		return rand.New(rand.NewSource(0))
	}
	rng := e.rngs[n-1]
	e.rngs = e.rngs[:n-1]
	return rng
}

// release puts a source back on the free list.
func (e *Real) release(rng *rand.Rand) {
	e.mu.Lock()
	e.rngs = append(e.rngs, rng)
	e.mu.Unlock()
}

// stateGap is the number of unused vectors (192 bytes) after each
// replica's working set in the run's vector block. Every step writes a
// replica's positions, velocities and forces, and a FIFO core queue
// runs replicas 2k and 2k+1 at once: without the gap the tail of one
// working set and the head of the next share a cache line, and the two
// cores contend for it all segment long. Every gap between two
// replicas' per-step writes is at least 128 bytes, a cache line and the
// one an adjacent-line prefetcher fetches with it.
const stateGap = 8

// segment returns replica id's segment, sizing the run's tables first.
func (e *Real) segment(id int, s *core.Spec) *segment {
	if e.segs == nil {
		e.newRun(s)
	}
	return &e.segs[id]
}

// newRun sizes the per-run tables: a segment per replica, with its
// working set, and a trajectory per slot with room for every sample a
// barrier run takes there (Cycles segments per dimension; a slot that
// takes more grows by append). A replica's working set is its
// positions, velocities and integrator scratch (forces, then per-atom
// constants), carved from one block of vectors stateGap vectors apart,
// its torsion scratch, carved from one block two entries apart, and its
// restraint array, carved from a third; every series comes from a
// fourth. Each carve has a full-slice cap, so an append on one cannot
// write into its neighbour.
func (e *Real) newRun(s *core.Spec) {
	n, na := s.Replicas(), e.sys.Top.N()
	per := 1
	if e.SampleEvery > 0 {
		per = (s.StepsPerCycle + e.SampleEvery - 1) / e.SampleEvery
	}
	run := per * s.Cycles * len(s.Dims)
	nu := 0
	for _, d := range s.Dims {
		if d.Type == exchange.Umbrella {
			nu++
		}
	}
	vecs := make([]md.Vec3, n*(4*na+stateGap))
	tors := e.sys.NewTorsionBlock(n, 2)
	rs := make([]md.TorsionRestraint, n*nu)
	floats := make([]float64, 4*n*(per+run))
	series := func(k int) md.Trajectory {
		b := floats[: 4*k : 4*k]
		floats = floats[4*k:]
		return md.Trajectory{Phi: b[0:0:k], Psi: b[k : k : 2*k], Potential: b[2*k : 2*k : 3*k], Kinetic: b[3*k : 3*k : 4*k]}
	}
	e.segs = make([]segment, n)
	e.minima = make([]int, 0, n)
	trajs := make([]md.Trajectory, n)
	for i := range e.segs {
		sg := &e.segs[i]
		sg.state = md.State{Pos: vecs[0:na:na], Vel: vecs[na : 2*na : 2*na]}
		tors.Carve(&sg.state)
		sg.integ = md.LangevinBAOAB{Dt: langevinDt, Gamma: langevinGamma}
		sg.integ.UseScratch(vecs[2*na : 4*na : 4*na])
		vecs = vecs[4*na+stateGap:]
		sg.prm.Restraints = rs[0:0:nu]
		rs = rs[nu:]
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
