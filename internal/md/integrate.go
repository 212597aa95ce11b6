package md

import (
	"fmt"
	"math"
	"math/rand"
)

// Integrator advances a state in time under a system and parameters.
// A segment is one Begin and any number of Advance calls. Begin evaluates
// the forces once; after that every step costs exactly one evaluation,
// and Advance returns that evaluation's energy, so a caller that samples
// the potential between calls needs no evaluation of its own.
type Integrator interface {
	// Begin binds the integrator to st under sys and prm and evaluates
	// the forces there. Forces are never carried over from an earlier
	// segment: between two segments an exchange may have swapped the
	// parameters, so anything that changes st or prm from outside needs
	// a new Begin.
	Begin(sys *System, st *State, prm Params)
	// Advance advances the bound state by n time steps and returns the
	// potential energy of the state it ends on.
	Advance(n int) Energy
}

// segment is what Begin binds and Advance reads: the system, the state,
// the parameters, and the energy of the last force evaluation.
type segment struct {
	sys *System
	st  *State
	prm Params
	e   Energy
}

// VelocityVerlet is the symplectic NVE integrator, used mainly for
// energy-conservation verification.
type VelocityVerlet struct {
	// Dt is the time step in ps.
	Dt float64
	// scratch force buffers
	f []Vec3
	segment
}

// Begin binds the integrator and evaluates the forces on entry.
func (vv *VelocityVerlet) Begin(sys *System, st *State, prm Params) {
	na := sys.Top.N()
	if len(vv.f) != na {
		vv.f = make([]Vec3, na)
	}
	vv.segment = segment{sys: sys, st: st, prm: prm}
	vv.e = sys.EnergyForces(st, prm, vv.f)
}

// Advance advances n velocity-Verlet steps.
func (vv *VelocityVerlet) Advance(n int) Energy {
	sys, st := vv.sys, vv.st
	na := len(vv.f)
	dt := vv.Dt
	for step := 0; step < n; step++ {
		for i := 0; i < na; i++ {
			m := sys.Top.Atoms[i].Mass
			a := vv.f[i].Scale(AccelFactor / m)
			st.Vel[i] = st.Vel[i].Add(a.Scale(0.5 * dt))
			st.Pos[i] = st.Pos[i].Add(st.Vel[i].Scale(dt))
		}
		vv.e = sys.EnergyForces(st, vv.prm, vv.f)
		for i := 0; i < na; i++ {
			m := sys.Top.Atoms[i].Mass
			a := vv.f[i].Scale(AccelFactor / m)
			st.Vel[i] = st.Vel[i].Add(a.Scale(0.5 * dt))
		}
	}
	return vv.e
}

// LangevinBAOAB is the BAOAB splitting of Langevin dynamics
// (Leimkuhler & Matthews), a high-quality canonical sampler. The
// thermostat temperature comes from the replica Params, which is what
// makes temperature a swappable replica-exchange parameter.
type LangevinBAOAB struct {
	// Dt is the time step in ps.
	Dt float64
	// Gamma is the friction coefficient in 1/ps.
	Gamma float64
	// RNG drives the stochastic kick; required.
	RNG *rand.Rand

	// scratch is one allocation of 2·N entries: the forces, then per
	// atom the two mass-dependent constants of a segment (X the
	// half-kick factor, Y the noise amplitude).
	scratch []Vec3
	// c1 is the segment's velocity damping per step, exp(-Gamma·Dt).
	c1 float64
	segment
}

// UseScratch hands the integrator caller-owned scratch of 2·N vectors
// for an N-atom system, so Begin allocates none of its own.
func (lg *LangevinBAOAB) UseScratch(s []Vec3) { lg.scratch = s }

// NewLangevin returns a BAOAB integrator with the given step, friction
// and seed.
func NewLangevin(dt, gamma float64, seed int64) *LangevinBAOAB {
	return &LangevinBAOAB{Dt: dt, Gamma: gamma, RNG: rand.New(rand.NewSource(seed))}
}

// Begin binds the integrator at the temperature in prm and evaluates the
// forces on entry.
func (lg *LangevinBAOAB) Begin(sys *System, st *State, prm Params) {
	if lg.RNG == nil {
		panic("md: LangevinBAOAB requires an RNG")
	}
	if err := prm.Validate(); err != nil {
		panic(fmt.Sprintf("md: %v", err))
	}
	na := sys.Top.N()
	if len(lg.scratch) != 2*na {
		lg.scratch = make([]Vec3, 2*na)
	}
	lg.segment = segment{sys: sys, st: st, prm: prm}
	lg.e = sys.EnergyForces(st, prm, lg.scratch[:na])
	dt := lg.Dt
	lg.c1 = math.Exp(-lg.Gamma * dt)
	c2 := math.Sqrt(1 - lg.c1*lg.c1)
	kT := KB * prm.TemperatureK
	consts := lg.scratch[na:]
	for i := range consts {
		m := sys.Top.Atoms[i].Mass
		consts[i] = Vec3{X: 0.5 * dt * AccelFactor / m, Y: c2 * math.Sqrt(kT*AccelFactor/m)}
	}
}

// Advance advances n BAOAB steps.
func (lg *LangevinBAOAB) Advance(n int) Energy {
	sys, st, prm := lg.sys, lg.st, lg.prm
	na := len(lg.scratch) / 2
	f, consts := lg.scratch[:na], lg.scratch[na:]
	dt, c1 := lg.Dt, lg.c1
	pos, vel := st.Pos[:na], st.Vel[:na]
	for step := 0; step < n; step++ {
		// B, A, O, A touch one atom at a time, so they run as one pass;
		// the noise is still drawn in atom order, X then Y then Z.
		for i := range pos {
			halfKick, noise := consts[i].X, consts[i].Y
			// B: half kick.
			v := vel[i].Add(f[i].Scale(halfKick))
			// A: half drift.
			p := pos[i].Add(v.Scale(0.5 * dt))
			// O: Ornstein-Uhlenbeck exact step.
			v = Vec3{
				c1*v.X + noise*lg.RNG.NormFloat64(),
				c1*v.Y + noise*lg.RNG.NormFloat64(),
				c1*v.Z + noise*lg.RNG.NormFloat64(),
			}
			// A: half drift.
			pos[i] = p.Add(v.Scale(0.5 * dt))
			vel[i] = v
		}
		// B: half kick with fresh forces.
		lg.e = sys.EnergyForces(st, prm, f)
		for i := range vel {
			vel[i] = vel[i].Add(f[i].Scale(consts[i].X))
		}
	}
	return lg.e
}

// Step advances n BAOAB steps at the temperature in prm, as a segment of
// its own.
func (lg *LangevinBAOAB) Step(sys *System, st *State, prm Params, n int) {
	lg.Begin(sys, st, prm)
	lg.Advance(n)
}

// InitVelocities draws Maxwell-Boltzmann velocities at temperature tK and
// removes the centre-of-mass drift.
func InitVelocities(sys *System, st *State, tK float64, rng *rand.Rand) {
	kT := KB * tK
	var pTot Vec3
	mTot := 0.0
	for i, a := range sys.Top.Atoms {
		s := math.Sqrt(kT * AccelFactor / a.Mass)
		st.Vel[i] = Vec3{s * rng.NormFloat64(), s * rng.NormFloat64(), s * rng.NormFloat64()}
		pTot = pTot.Add(st.Vel[i].Scale(a.Mass))
		mTot += a.Mass
	}
	drift := pTot.Scale(1 / mTot)
	for i := range st.Vel {
		st.Vel[i] = st.Vel[i].Sub(drift)
	}
}

// Minimize performs simple steepest-descent energy minimisation for at
// most maxIter iterations or until the maximum force component falls
// below fTol (kcal/mol/Å). It returns the final potential energy.
func Minimize(sys *System, st *State, prm Params, maxIter int, fTol float64) float64 {
	var m Minimizer
	return m.Minimize(sys, st, prm, maxIter, fTol)
}

// Minimizer is Minimize with its scratch (the forces and one trial
// state) kept from call to call, so a caller that minimises many states
// of one system allocates it once.
type Minimizer struct {
	f     []Vec3
	trial State
}

// Minimize minimises st as the function Minimize does, bit for bit.
func (m *Minimizer) Minimize(sys *System, st *State, prm Params, maxIter int, fTol float64) float64 {
	n := sys.Top.N()
	if len(m.f) != n {
		m.f = make([]Vec3, n)
		// One trial state for every iteration; the energy never reads Vel.
		m.trial = State{Pos: make([]Vec3, n)}
	}
	f, trial := m.f, &m.trial
	step := 1e-4
	e := sys.EnergyForces(st, prm, f).Potential()
	for iter := 0; iter < maxIter; iter++ {
		fmax := 0.0
		for i := 0; i < n; i++ {
			fmax = math.Max(fmax, math.Abs(f[i].X))
			fmax = math.Max(fmax, math.Abs(f[i].Y))
			fmax = math.Max(fmax, math.Abs(f[i].Z))
		}
		if fmax < fTol {
			break
		}
		for i := 0; i < n; i++ {
			trial.Pos[i] = st.Pos[i].Add(f[i].Scale(step))
		}
		eTrial := sys.Energy(trial, prm).Potential()
		if eTrial < e {
			copy(st.Pos, trial.Pos)
			e = eTrial
			sys.EnergyForces(st, prm, f)
			step *= 1.2
		} else {
			step *= 0.5
			if step < 1e-12 {
				break
			}
		}
	}
	return e
}
