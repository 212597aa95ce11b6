// Package cluster models an HPC machine in virtual time: a pool of
// compute nodes, a batch queue with pilot provisioning delay, a shared
// parallel filesystem whose metadata server serializes per-file
// operations, per-task launch overheads and probabilistic task failures.
//
// The model substitutes for the XSEDE machines (Stampede, SuperMIC) used
// in the RepEx paper. Its purpose is not cycle accuracy but preserving the
// queueing, contention and overhead *shapes* the paper measures: data
// times dominated by metadata traffic, RADICAL-Pilot launch overhead
// proportional to the number of concurrently launched tasks, and the
// Execution Mode II wave-scheduling penalty.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sim"
)

// FSConfig describes the shared parallel filesystem.
type FSConfig struct {
	// MetaLatency is the service time of one metadata operation (file
	// create/open) at the metadata server, which handles operations one
	// at a time. Many small staged files therefore serialize here,
	// which is what makes the paper's "data time" grow with replica
	// count even though payloads are tiny.
	MetaLatency float64
	// Bandwidth is the aggregate transfer bandwidth in bytes/second.
	Bandwidth float64
}

// Config describes a machine.
type Config struct {
	Name         string
	Nodes        int
	CoresPerNode int
	// SpeedFactor scales compute durations: a task that takes D seconds
	// on the reference machine takes D/SpeedFactor here.
	SpeedFactor float64
	// QueueWait is the batch-queue wait before a pilot's allocation
	// becomes active.
	QueueWait float64
	// LaunchGap is the serialization gap of the pilot agent's task
	// launcher: successive task launches are spaced by at least this
	// much, making launch overhead proportional to the task count.
	LaunchGap float64
	// LaunchLatency is the fixed per-task launch cost once the launcher
	// picks the task up.
	LaunchLatency float64
	// WavePenalty is the extra scheduling delay charged to a task that
	// had to wait for cores (i.e. ran in a second or later wave). It
	// models the MPI task scheduling issue of RADICAL-Pilot 0.35 that
	// the paper blames for the Execution Mode II efficiency dip
	// (Figure 11b).
	WavePenalty float64
	// FailureProb is the per-task probability of failure.
	FailureProb float64
	// ExecJitter is the relative standard deviation of task execution
	// time (lognormal), modelling OS noise and per-replica variation.
	ExecJitter float64
	FS         FSConfig
}

// TotalCores returns Nodes*CoresPerNode.
func (c Config) TotalCores() int { return c.Nodes * c.CoresPerNode }

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cluster %q: nodes must be positive, got %d", c.Name, c.Nodes)
	case c.CoresPerNode <= 0:
		return fmt.Errorf("cluster %q: cores/node must be positive, got %d", c.Name, c.CoresPerNode)
	case c.SpeedFactor <= 0:
		return fmt.Errorf("cluster %q: speed factor must be positive, got %g", c.Name, c.SpeedFactor)
	case c.FS.MetaLatency < 0 || c.FS.Bandwidth <= 0:
		return fmt.Errorf("cluster %q: invalid filesystem config %+v", c.Name, c.FS)
	case c.FailureProb < 0 || c.FailureProb > 1:
		return fmt.Errorf("cluster %q: failure probability %g out of [0,1]", c.Name, c.FailureProb)
	}
	return nil
}

// Stampede returns a model of the TACC Stampede machine (Sandy Bridge,
// 16 cores/node) as used for the paper's M-REMD and multi-core-replica
// experiments.
func Stampede() Config {
	return Config{
		Name:          "stampede",
		Nodes:         6400,
		CoresPerNode:  16,
		SpeedFactor:   1.0,
		QueueWait:     30,
		LaunchGap:     0.040,
		LaunchLatency: 0.25,
		WavePenalty:   0.35,
		ExecJitter:    0.04,
		FS:            FSConfig{MetaLatency: 0.0010, Bandwidth: 1.5e9},
	}
}

// SuperMIC returns a model of the LSU SuperMIC machine (Ivy Bridge,
// 20 cores/node) used for the paper's 1D-REMD and overhead experiments.
func SuperMIC() Config {
	return Config{
		Name:          "supermic",
		Nodes:         360,
		CoresPerNode:  20,
		SpeedFactor:   1.18,
		QueueWait:     20,
		LaunchGap:     0.038,
		LaunchLatency: 0.22,
		WavePenalty:   0.35,
		ExecJitter:    0.04,
		FS:            FSConfig{MetaLatency: 0.0009, Bandwidth: 1.2e9},
	}
}

// Small returns a small commodity cluster, useful for Execution Mode II
// demonstrations (more replicas than cores).
func Small(nodes, coresPerNode int) Config {
	return Config{
		Name:          fmt.Sprintf("small-%dx%d", nodes, coresPerNode),
		Nodes:         nodes,
		CoresPerNode:  coresPerNode,
		SpeedFactor:   0.9,
		QueueWait:     5,
		LaunchGap:     0.030,
		LaunchLatency: 0.15,
		WavePenalty:   0.35,
		ExecJitter:    0.05,
		FS:            FSConfig{MetaLatency: 0.0040, Bandwidth: 5e8},
	}
}

// Cluster is a live machine instance in a simulation environment.
type Cluster struct {
	env   *sim.Env
	cfg   Config
	cores *sim.Resource
	// The metadata server serves one operation at a time, FIFO, each
	// taking MetaLatency: an operation's turn is known when it is asked
	// for, so it is booked, not queued. mdsFree is when the operations
	// booked so far are done.
	mdsFree float64
	meta    *sim.Delay // one metadata operation
	rng     *rand.Rand

	filesStaged   int
	bytesStaged   int64
	tasksLaunched int
	tasksFailed   int
}

// New instantiates a cluster on env with a deterministic RNG seed.
func New(env *sim.Env, cfg Config, seed int64) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cluster{
		env:   env,
		cfg:   cfg,
		cores: sim.NewResource(env, cfg.TotalCores()),
		meta:  env.Delay(cfg.FS.MetaLatency),
		rng:   rand.New(rand.NewSource(seed)),
	}, nil
}

// MustNew is New but panics on configuration error (for tests/examples).
func MustNew(env *sim.Env, cfg Config, seed int64) *Cluster {
	c, err := New(env, cfg, seed)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the machine configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Env returns the simulation environment.
func (c *Cluster) Env() *sim.Env { return c.env }

// TotalCores returns the machine-wide core count.
func (c *Cluster) TotalCores() int { return c.cfg.TotalCores() }

// CoresInUse returns the number of cores currently allocated.
func (c *Cluster) CoresInUse() int { return c.cores.InUse() }

// Allocation is a block of cores requested through the batch queue
// (Allocate), held once Step reports true, and released when done. It is
// a resumable request so that a stepped process can embed it and drive
// it across wakeups.
type Allocation struct {
	c        *Cluster
	Cores    int
	Granted  float64 // virtual time the allocation became active
	asked    uint8   // 0: armed; 1: in the queue wait; 2: cores requested
	released bool
}

// Allocate arms a for n cores of the machine, to be driven by Step from a
// simulation process. Nothing happens until the first Step.
func (c *Cluster) Allocate(a *Allocation, n int) error {
	if n <= 0 {
		return fmt.Errorf("cluster %s: allocation size must be positive, got %d", c.cfg.Name, n)
	}
	if n > c.TotalCores() {
		return fmt.Errorf("cluster %s: allocation of %d cores exceeds machine size %d",
			c.cfg.Name, n, c.TotalCores())
	}
	*a = Allocation{c: c, Cores: n}
	return nil
}

// Step advances the request on behalf of p: the batch-queue wait, then
// the cores, queued FIFO behind earlier requests. It reports true once
// they are held, with Granted set; otherwise it has registered p's next
// wakeup and must be called again when p wakes.
func (a *Allocation) Step(p *sim.Proc) (held bool) {
	switch a.asked {
	case 0:
		a.asked = 1
		p.WakeIn(a.c.cfg.QueueWait)
		return false
	case 1:
		a.asked = 2
		a.c.cores.Request(p, a.Cores, false)
	}
	if !p.Granted() {
		return false
	}
	a.Granted = p.Now()
	return true
}

// Release returns the allocation's cores to the machine.
func (a *Allocation) Release() {
	if a.released {
		return
	}
	a.released = true
	a.c.cores.Release(a.Cores)
}

// ReleasePartial returns n cores of the allocation to the machine
// without ending it — the node-loss path: the allocation keeps running,
// smaller. Returns the number actually released (clamped to the cores
// still held; 0 after Release).
func (a *Allocation) ReleasePartial(n int) int {
	if a.released || n <= 0 {
		return 0
	}
	if n > a.Cores {
		n = a.Cores
	}
	a.Cores -= n
	a.c.cores.Release(n)
	if a.Cores == 0 {
		a.released = true
	}
	return n
}

// Grow attempts to extend the allocation by n cores without queueing
// (an elastic resize must not deadlock behind the batch queue) and
// reports success.
func (a *Allocation) Grow(n int) bool {
	if a.released || n <= 0 {
		return false
	}
	if !a.c.cores.TryAcquire(n) {
		return false
	}
	a.Cores += n
	return true
}

// ScaleDuration converts a reference-machine compute duration to this
// machine, applying the speed factor and lognormal execution jitter.
func (c *Cluster) ScaleDuration(d float64) float64 {
	d /= c.cfg.SpeedFactor
	if c.cfg.ExecJitter > 0 {
		d *= lognormal(c.rng, c.cfg.ExecJitter)
	}
	return d
}

// lognormal returns a multiplicative jitter factor with mean 1 and the
// given relative standard deviation.
func lognormal(rng *rand.Rand, sigma float64) float64 {
	// For a lognormal with parameters (mu, s), mean = exp(mu + s^2/2).
	// Choosing mu = -s^2/2 gives mean 1.
	s := sigma
	x := rng.NormFloat64()*s - s*s/2
	return math.Exp(x)
}

// Staging is one in-progress staging operation: n metadata operations,
// each serialized through the metadata server, then one aggregate
// transfer of the byte volume. It is a resumable state machine so that a
// stepped process can embed it and drive it across wakeups; the zero
// value is ready for Begin and may be reused once Step has reported done.
type Staging struct {
	c      *Cluster
	nfiles int
	bytes  int64
	left   int // metadata operations not yet booked
	start  float64
	moving bool // the transfer is booked
}

// Begin arms s for nfiles metadata operations and bytes of transfer
// starting now. Nothing happens until the first Step.
func (s *Staging) Begin(c *Cluster, nfiles int, bytes int64) {
	nfiles, bytes = max(nfiles, 0), max(bytes, 0)
	*s = Staging{c: c, nfiles: nfiles, bytes: bytes, left: nfiles, start: c.env.Now()}
}

// Step advances the operation as far as it can go at the current virtual
// time on behalf of p. It reports true once staging is complete;
// otherwise it has registered p's next wakeup, the end of its next
// metadata operation or of the transfer, and must be called again when p
// wakes.
func (s *Staging) Step(p *sim.Proc) (done bool) {
	c := s.c
	if s.left > 0 {
		s.left--
		end := max(c.env.Now(), c.mdsFree) + c.meta.Len()
		c.mdsFree = end
		if s.left > 0 || s.bytes == 0 {
			c.meta.WakeAt(p, end)
			return false
		}
		// The transfer starts as the last operation ends: one wakeup, at
		// the transfer's end.
		q := s.transfer()
		q.WakeAt(p, end+q.Len())
		return false
	}
	if s.bytes > 0 && !s.moving {
		s.transfer().Wake(p)
		return false
	}
	c.filesStaged += s.nfiles
	c.bytesStaged += s.bytes
	return true
}

// transfer marks the transfer booked and returns its sleep. Tasks move a
// handful of distinct byte volumes, so each transfer time is a constant
// with a sleep queue of its own (past the kernel's cap on those, the
// heap).
func (s *Staging) transfer() *sim.Delay {
	s.moving = true
	return s.c.env.Delay(float64(s.bytes) / s.c.cfg.FS.Bandwidth)
}

// Elapsed returns the virtual time since Begin; after Step reported done
// and before the process moves on, the duration of the whole operation.
func (s *Staging) Elapsed() float64 { return s.c.env.Now() - s.start }

// StageFiles performs n metadata operations and one aggregate transfer of
// the given byte volume through the shared filesystem, blocking the
// calling process. It returns the elapsed virtual time.
func (c *Cluster) StageFiles(p *sim.Proc, nfiles int, bytes int64) float64 {
	var s Staging
	s.Begin(c, nfiles, bytes)
	for !s.Step(p) {
		p.Park()
	}
	return s.Elapsed()
}

// TaskFails draws whether a task fails under the configured probability.
func (c *Cluster) TaskFails() bool {
	c.tasksLaunched++
	if c.cfg.FailureProb > 0 && c.rng.Float64() < c.cfg.FailureProb {
		c.tasksFailed++
		return true
	}
	return false
}

// Stats reports cumulative staging and failure counters.
func (c *Cluster) Stats() (filesStaged int, bytesStaged int64, launched, failed int) {
	return c.filesStaged, c.bytesStaged, c.tasksLaunched, c.tasksFailed
}
