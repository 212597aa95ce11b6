package engines

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/md"
	"repro/internal/slab"
	"repro/internal/task"
)

// Virtual is a cost-model-driven engine adapter: it describes tasks for
// the virtual-time pilot backend and synthesizes thermodynamically
// plausible energies so that exchange decisions have realistic
// acceptance statistics. It implements core.Engine.
//
// Synthetic thermodynamics: after each MD segment the replica's
// potential energy is redrawn from a Gaussian with temperature-dependent
// mean and width (effective heat capacity cvEff); umbrella dimensions
// maintain a pseudo torsion coordinate distributed around the window
// centre; salt dimensions maintain a pseudo ion-pairing coordinate whose
// energy couples to sqrt(concentration) (the Debye–Hückel leading
// order).
type Virtual struct {
	name   string
	cost   CostModel
	natoms int
	seed   int64
	rng    *rand.Rand
	// draws counts normal variates consumed from rng; together with seed
	// it makes the stochastic state replayable for checkpoint/restart
	// (core.ReplayableEngine).
	draws int64

	torsionIdx map[string]int
	// md holds each replica's MD task spec, indexed by replica ID and
	// rewritten in place by MDTask: the dispatcher asks for a replica's
	// next segment only after it has taken the previous one's result.
	md []task.Spec
	// spe holds each replica's single-point spec the same way, and speOut
	// is the slice SinglePointTasks returns, reused by every call: a
	// replica is in one exchange group per event, and the event awaits
	// its single-point tasks before the next one is described.
	spe    []task.Spec
	speOut []*task.Spec
	// ex holds each dimension's exchange-task spec.
	ex []task.Spec
	// synth is the storage InitReplica carves replicas' coordinate
	// vectors from: one chunk covers a whole run's replicas.
	synth slab.Slab[float64]
	// boundSpec is the one simulation spec this engine instance serves,
	// matching RepEx's one-AMM-per-simulation design; it is captured at
	// first task preparation and may not change.
	boundSpec *core.Spec
}

// Synthetic-thermodynamics parameters, tuned to paper-like acceptance
// ratios.
const (
	cvEff     float64 = 2.0   // kcal/mol/K: effective heat capacity
	refT      float64 = 300   // K: reference temperature for the energy mean
	e0        float64 = -2500 // kcal/mol: baseline energy
	kEff      float64 = 3.0   // kcal/mol/rad²: effective umbrella coupling
	sigmaU    float64 = 0.5   // rad: pseudo-torsion spread around the window
	saltMean  float64 = -10   // pseudo ion-pairing coordinate mean
	saltSigma float64 = 4     // its spread
	saltScale float64 = 8     // kcal/mol per sqrt(M): salt energy coupling
	phSites   int     = 8     // titratable sites of the pseudo protein
	phPKa     float64 = 6.5   // their common pKa
	phSigma   float64 = 1.2   // protonation-count spread
)

// NewVirtual returns a virtual adapter with the given executable cost
// model and system size (atom count).
func NewVirtual(name string, cost CostModel, natoms int, seed int64) *Virtual {
	if natoms <= 0 {
		panic(fmt.Sprintf("engines: non-positive atom count %d", natoms))
	}
	return &Virtual{
		name:       name,
		cost:       cost,
		natoms:     natoms,
		seed:       seed,
		rng:        rand.New(rand.NewSource(seed)),
		torsionIdx: map[string]int{},
	}
}

// Name returns the adapter name.
func (v *Virtual) Name() string { return v.name }

// InitReplica carves the synthetic coordinate vector, one slot per
// dimension plus a trailing base-energy fluctuation, from the engine's
// chunk, capped so an append on it cannot reach its neighbour's.
// Replicas are initialised in ID order, so the replicas from r on are
// the rows left to carve.
func (v *Virtual) InitReplica(r *core.Replica, s *core.Spec) {
	v.bind(s)
	left := s.Replicas() - r.ID
	r.Synth = v.synth.Carve(len(s.Dims)+1, left, left)
	v.resample(r, s)
	r.Energy = v.evalEnergy(r, r.Params, s)
}

// norm draws one standard normal, counting it for replayability.
func (v *Virtual) norm() float64 {
	v.draws++
	return v.rng.NormFloat64()
}

// RNGDraws returns the number of normal variates consumed so far
// (core.ReplayableEngine).
func (v *Virtual) RNGDraws() int64 { return v.draws }

// ReplayRNG resets the engine RNG to its seed and replays n draws,
// restoring the exact stochastic state of a checkpoint
// (core.ReplayableEngine).
func (v *Virtual) ReplayRNG(n int64) {
	v.rng = rand.New(rand.NewSource(v.seed))
	v.draws = 0
	for i := int64(0); i < n; i++ {
		v.norm()
	}
}

// resample redraws the synthetic coordinates, emulating the
// decorrelation of an MD segment.
func (v *Virtual) resample(r *core.Replica, s *core.Spec) {
	uSeen := 0
	for d, dim := range s.Dims {
		switch dim.Type {
		case exchange.Umbrella:
			center := v.restraintCenter(r.Params, uSeen)
			r.Synth[d] = md.WrapAngle(center + sigmaU*v.norm())
			uSeen++
		case exchange.Salt:
			r.Synth[d] = saltMean + saltSigma*v.norm()
		case exchange.PH:
			// Pseudo protonation count around the Henderson-
			// Hasselbalch mean at the replica's pH.
			mean := float64(phSites) / (1 + math.Pow(10, r.Params.PH-phPKa))
			r.Synth[d] = mean + phSigma*v.norm()
		}
	}
	t := r.Params.TemperatureK
	mean := cvEff * (t - refT)
	sigma := math.Sqrt(cvEff*md.KB) * t
	r.Synth[len(s.Dims)] = mean + sigma*v.norm()
}

// restraintCenter returns the centre of the i-th umbrella restraint in
// params (umbrella dims map to restraints in dimension order).
func (v *Virtual) restraintCenter(p md.Params, i int) float64 {
	if i < len(p.Restraints) {
		return p.Restraints[i].Center
	}
	return 0
}

// evalEnergy computes the synthetic potential of r's coordinates under
// arbitrary parameters.
func (v *Virtual) evalEnergy(r *core.Replica, under md.Params, s *core.Spec) float64 {
	e := e0 + r.Synth[len(s.Dims)]
	uSeen := 0
	for d, dim := range s.Dims {
		switch dim.Type {
		case exchange.Umbrella:
			dx := md.WrapAngle(r.Synth[d] - v.restraintCenter(under, uSeen))
			e += kEff * dx * dx
			uSeen++
		case exchange.Salt:
			e += saltScale * r.Synth[d] * math.Sqrt(under.SaltM)
		case exchange.PH:
			// Semi-grand-canonical protonation term: each bound proton
			// costs kT ln10 (pH - pKa).
			kT := md.KB * under.TemperatureK
			e += r.Synth[d] * math.Ln10 * kT * (under.PH - phPKa)
		}
	}
	return e
}

var (
	_ core.Engine           = (*Virtual)(nil)
	_ core.ReplayableEngine = (*Virtual)(nil)
)

// MDTask describes the MD segment task for a replica: the replica's own
// spec, rewritten in place.
func (v *Virtual) MDTask(r *core.Replica, s *core.Spec, dim int) *task.Spec {
	v.bind(s)
	if r.ID >= len(v.md) {
		v.md = perReplica(v.md, r.ID, s)
	}
	inFiles := v.cost.MDInFiles(s.Dims[dim].Type)
	outFiles := v.cost.MDOutFiles(s.Dims[dim].Type)
	sp := &v.md[r.ID]
	*sp = task.Spec{
		Kind:      task.MD,
		ReplicaID: r.ID,
		Cycle:     r.Cycle,
		Cores:     s.CoresPerReplica,
		Duration:  v.cost.MDSeconds(v.natoms, s.StepsPerCycle, s.CoresPerReplica),
		InFiles:   inFiles,
		InBytes:   int64(inFiles) * v.cost.MDFileBytes,
		OutFiles:  outFiles,
		OutBytes:  int64(outFiles) * v.cost.MDFileBytes,
		CanFail:   true,
	}
	return sp
}

// ExchangeTask describes the single exchange-computation task for a
// dimension over n replicas: the dimension's own spec, named once and
// rewritten in place (an event awaits its exchange task).
func (v *Virtual) ExchangeTask(dim int, n int, s *core.Spec) *task.Spec {
	v.bind(s)
	if v.ex == nil {
		v.ex = make([]task.Spec, len(s.Dims))
	}
	name := v.ex[dim].Name
	if name == "" {
		name = fmt.Sprintf("ex-%s-d%d", s.Dims[dim].Type.Code(), dim)
	}
	sp := &v.ex[dim]
	*sp = task.Spec{
		Name:     name,
		Kind:     task.Exchange,
		Cores:    1,
		Duration: v.cost.ExchangeSeconds(s.Dims[dim].Type, n),
		InFiles:  2,
		InBytes:  8 << 10,
		OutFiles: 1,
		OutBytes: 4 << 10,
	}
	return sp
}

// SinglePointTasks returns one per-replica energy task for salt
// dimensions, SPEWidth cores wide, and nothing otherwise. This is the
// task doubling that makes S exchange expensive (§4.2).
func (v *Virtual) SinglePointTasks(dim int, group []*core.Replica, s *core.Spec) []*task.Spec {
	v.bind(s)
	if s.Dims[dim].Type != exchange.Salt {
		return nil
	}
	width := SPEWidth
	if len(group) < width {
		width = len(group)
	}
	if width < 1 {
		width = 1
	}
	specs := v.speOut[:0]
	for _, r := range group {
		if r.ID >= len(v.spe) {
			v.spe = perReplica(v.spe, r.ID, s)
		}
		sp := &v.spe[r.ID]
		*sp = task.Spec{
			Kind:      task.SinglePoint,
			ReplicaID: r.ID,
			Cores:     width,
			Duration:  SPESecsPerAtom * float64(v.natoms),
			InFiles:   2,
			InBytes:   v.cost.MDFileBytes,
			OutFiles:  1,
			OutBytes:  4 << 10,
		}
		specs = append(specs, sp)
	}
	v.speOut = specs
	return specs
}

// perReplica extends a per-replica spec table to cover replica id, and
// the whole run at once: one allocation per table, not one per replica.
func perReplica(specs []task.Spec, id int, s *core.Spec) []task.Spec {
	n := max(id+1, s.Replicas())
	return append(specs, make([]task.Spec, n-len(specs))...)
}

// boundSpec is the one simulation spec this engine instance serves.
var errRebind = fmt.Errorf("engines: virtual engine reused across different simulations")

func (v *Virtual) bind(s *core.Spec) {
	if v.boundSpec == nil {
		v.boundSpec = s
	} else if v.boundSpec != s {
		panic(errRebind)
	}
}

// OwnEnergy redraws the replica's synthetic configuration (the MD
// segment decorrelated it) and returns its energy under its own
// parameters. Called once per completed MD segment.
func (v *Virtual) OwnEnergy(r *core.Replica) float64 {
	s := v.boundSpec
	if s == nil {
		panic("engines: OwnEnergy before any task preparation")
	}
	v.resample(r, s)
	return v.evalEnergy(r, r.Params, s)
}

// CrossEnergy evaluates the stored configuration under foreign
// parameters.
func (v *Virtual) CrossEnergy(r *core.Replica, under md.Params) float64 {
	s := v.boundSpec
	if s == nil {
		panic("engines: CrossEnergy before any task preparation")
	}
	return v.evalEnergy(r, under, s)
}

// TorsionIndex assigns stable indexes to torsion labels (virtual engines
// have no real topology).
func (v *Virtual) TorsionIndex(label string) int {
	if i, ok := v.torsionIdx[label]; ok {
		return i
	}
	i := len(v.torsionIdx)
	v.torsionIdx[label] = i
	return i
}

// PrepOverhead models RepEx's client-side task preparation: near-linear
// in the task count, larger for multi-dimensional simulations ("more
// data associated with each replica, complexity of data structures is
// increased" — §4.1).
func (v *Virtual) PrepOverhead(nTasks, ndims int) float64 {
	return (0.5 + 0.002*float64(nTasks)) * (1 + 0.7*float64(ndims-1))
}
