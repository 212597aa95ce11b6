package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/trace"
)

// ErrResume wraps every failure to load, decode, check or restore a
// launch's resume checkpoint, so front ends can add their own recovery
// hint.
var ErrResume = errors.New("serve: resume checkpoint")

// errRunPanicked wraps the error of a run whose goroutine recovered a
// panic.
var errRunPanicked = errors.New("serve: run panicked")

// Run is one assembled simulation and its lifecycle: its own spec,
// observers and per-run Server, executing on its own goroutine, so many
// runs share one process (and, under the registry, one core pool)
// without sharing any state. cmd/repex drives exactly one.
type Run struct {
	// ID is the registry-assigned identifier ("r1", "r2", ...); empty
	// for the single run of cmd/repex.
	ID string

	params bench.RunParams
	// replicas is the spec's replica count, read at assembly: a refit
	// rewrites spec.Dims under the simulation's lock (keeping every rung
	// count), so status reads must not walk the dimensions.
	replicas int
	col      *analysis.Collector
	srv      *Server
	engine   string
	log      *slog.Logger
	cancel   context.CancelFunc
	// finished, when set before Start, runs on the run's goroutine once
	// the outcome is recorded and before done closes: the registry's pool
	// release, retention and finish log.
	finished func(state core.RunState, err error)
	// done closes when report/err carry the outcome; the run goroutine
	// then only drains the collector a last time.
	done chan struct{}

	mu     sync.Mutex
	state  core.RunState
	report *core.Report
	err    error
	// sim is the constructed simulation once the run goroutine reaches
	// OnStart; status surfaces read its Respacing (itself mutex-guarded
	// against the dispatcher).
	sim *core.Simulation
	// frozen is the run's share of /metrics once the run has ended,
	// rendered by the first scrape that finds it terminal and kept until
	// the registry evicts the run (metricsView).
	frozen *fragment
}

// NewRun does all the fallible assembly of a launch and returns the run
// pending, so the registry admits it only once nothing can fail any
// more; ctx cancels the started run at its next exchange boundary.
// served says the caller will expose the run's Server, traced that it
// wants the recorder's timeline afterwards (cmd/repex's -listen and
// -trace); traceEvents sizes the recorder (0: its default depth).
//
// Observers attach by one rule. The bus and collector power the live
// endpoints, the checkpoint-embedded statistics and the respace
// planner's measured acceptance profile, so they attach iff the run is
// served, checkpointed or respacing; without a consumer the run stays
// bus-free. The flight recorder attaches iff someone can read it; it is
// bounded and touches neither the RNG nor the virtual clock, so a
// traced run is bit-identical to an untraced one.
func NewRun(ctx context.Context, l *config.Launch, served, traced bool, traceEvents int) (*Run, error) {
	params, err := bench.LaunchParams(l)
	if err != nil {
		return nil, err
	}
	spec := params.Spec
	if l.Resume != "" {
		// ckpt.Load's own message already names the path.
		data, err := ckpt.Load(l.Resume)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrResume, err)
		}
		// Refused here, a bad checkpoint never reaches admission: the
		// probe engine is a throwaway twin of the one the run builds.
		if spec.Resume, err = core.DecodeSnapshot(data); err == nil {
			err = core.CheckResume(spec, params.NewEngine(params.Seed+2))
		}
		if err != nil {
			return nil, fmt.Errorf("%w %s: %v", ErrResume, l.Resume, err)
		}
	}
	r := &Run{params: params, replicas: spec.Replicas(), engine: l.Sim.Engine,
		done: make(chan struct{}), state: core.RunPending}

	if served || l.Checkpoint != "" || spec.Respace != nil {
		spec.Bus = core.NewBus()
		colCfg := analysis.ConfigFromSpec(spec)
		colCfg.WindowEvents = l.Sim.WindowEvents
		r.col = analysis.New(colCfg)
		r.col.Attach(spec.Bus, analysis.RunBuffer(spec))
		if snap := spec.Resume; snap != nil {
			var err error
			if len(snap.Analysis) > 0 {
				err = r.col.Restore(snap.Analysis)
			} else {
				// No collector ran before the snapshot: continue the
				// event clock and slot baseline from the checkpoint so
				// walks are not measured against the fresh-run identity.
				err = r.col.SeedResume(snap)
			}
			if err != nil {
				return nil, fmt.Errorf("%w %s: %v", ErrResume, l.Resume, err)
			}
		}
	}
	// The respace planner re-fits saturated ladders from the collector's
	// measured per-pair acceptance; ToSpec left the field nil because
	// the collector did not exist yet.
	if spec.Respace != nil {
		spec.Respace.Planner = r.col
	}
	if served || traced {
		spec.Tracer = trace.New(traceEvents)
	}
	if l.Checkpoint != "" {
		// With CheckpointEvery 0 the dispatcher writes no periodic
		// snapshots, but a cancellation still delivers its final
		// boundary snapshot here.
		spec.SnapshotEvery = l.CheckpointEvery
		spec.OnSnapshot = func(sn *core.Snapshot) { r.writeCheckpoint(l.Checkpoint, sn) }
	}
	r.srv = New(r.col, r.baseStatus)
	r.srv.metrics = r.metricsView
	r.srv.SetTracer(spec.Tracer)
	r.params.OnStart = func(sim *core.Simulation) {
		r.mu.Lock()
		r.state = core.RunRunning
		r.sim = sim
		r.mu.Unlock()
	}
	r.params.Context, r.cancel = context.WithCancel(ctx)
	return r, nil
}

// writeCheckpoint is the OnSnapshot hook: it embeds the collector's
// state so a resumed run's statistics continue.
func (r *Run) writeCheckpoint(path string, sn *core.Snapshot) {
	if data, err := r.col.EncodeState(); err == nil {
		sn.Analysis = data
	} else {
		r.log.Error("encoding analysis state", "error", err)
	}
	data, err := sn.Encode()
	if err == nil {
		err = ckpt.WriteAtomic(path, data)
	}
	if err != nil {
		r.log.Error("checkpoint write failed", "path", path, "error", err)
	}
}

// Start launches the run goroutine, once; log receives the run's
// diagnostics (the registry passes a logger carrying run=<id>). A panic
// anywhere under the run — its processes are coroutines of this
// goroutine, so that is the engine, the trigger, the dispatcher and the
// virtual cluster alike — ends this run as failed and no other, with the
// panic value and this goroutine's stack as its error (a process's own
// frames are gone by then: its panic is raised again from the kernel's
// resume). The run still finishes — the registry gets its pool cores back
// and done closes — so whoever waits on it goes on.
func (r *Run) Start(log *slog.Logger) {
	r.log = log
	if snap := r.params.Spec.Resume; snap != nil && r.col != nil && len(snap.Analysis) == 0 {
		log.Warn("checkpoint carries no analysis state; statistics cover the resumed portion only")
	}
	go func() {
		defer func() {
			if p := recover(); p != nil {
				r.finish(nil, fmt.Errorf("%w: %v\n%s", errRunPanicked, p, debug.Stack()))
			}
		}()
		r.finish(bench.Run(r.params))
	}()
}

// State returns the run's lifecycle state.
func (r *Run) State() core.RunState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Done closes when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Result returns the run's final report and error; the report may be
// the partial report of a failed or cancelled run, and both are nil/nil
// until Done closes.
func (r *Run) Result() (*core.Report, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.report, r.err
}

// Cancel requests cancellation; the dispatcher honours it at the next
// fired exchange boundary (idempotent, safe after completion).
func (r *Run) Cancel() { r.cancel() }

// Spec returns the assembled spec; read-only once the run has started.
func (r *Run) Spec() *core.Spec { return r.params.Spec }

// Collector returns the run's collector, nil for a bus-free run.
func (r *Run) Collector() *analysis.Collector { return r.col }

// Server returns the run's endpoints; Listen serves its Handler.
func (r *Run) Server() *Server { return r.srv }

// baseStatus is the run's status-source for its Server: the static
// configuration plus the lifecycle state (the Server merges in the
// collector's live counters).
func (r *Run) baseStatus() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.baseStatusLocked()
}

func (r *Run) baseStatusLocked() RunStatus {
	spec := r.params.Spec
	st := RunStatus{
		ID:           r.ID,
		Name:         spec.Name,
		Engine:       r.engine,
		Trigger:      spec.TriggerName(),
		State:        r.state.String(),
		Replicas:     r.replicas,
		Cores:        r.params.PilotCores,
		CyclesTarget: spec.Cycles,
		HistoryTail:  spec.HistoryTail,
		BusPublished: spec.Bus.Published(),
	}
	if fb, ok := spec.Trigger.(*core.FeedbackTrigger); ok {
		// ControllerStatus is mutex-guarded inside the trigger, so the
		// live scrape is race-free against the dispatcher.
		st.Feedback = fb.ControllerStatus()
	}
	if rs := spec.Respace; rs != nil {
		respaceSt := &RespaceStatus{
			Enabled:    true,
			AfterSteps: rs.AfterSteps,
			MaxRefits:  rs.MaxRefits,
		}
		if r.sim != nil {
			// One read: the ladders, the history and the counts derived
			// from it always describe the same refits.
			respaceSt.Ladders, respaceSt.History = r.sim.Respacing()
			respaceSt.Refits = make([]int, len(respaceSt.Ladders))
			for _, rec := range respaceSt.History {
				respaceSt.Refits[rec.Dim]++
			}
		}
		st.Respace = respaceSt
	}
	if r.sim != nil {
		loop := r.sim.LoopSeconds()
		st.Loop = &loop
	}
	if r.err != nil && !errors.Is(r.err, core.ErrRunCancelled) {
		st.Error = r.err.Error()
	}
	return st
}

// Status merges the base status with the collector's counters, the same
// view /status serves.
func (r *Run) Status() RunStatus { return r.srv.view().st }

// metricsView is the run as both /metrics routes render it: live while
// the run is active; once it has ended, its share of every family,
// rendered once under mu and copied by every later scrape. The state is
// read terminal before the collector snapshot is taken, so the frozen
// share holds every event the run published. A live scrape takes one
// view and no second one: a run that ends under it is rendered as that
// view read it, and frozen, complete, by the next scrape.
func (r *Run) metricsView() runView {
	r.mu.Lock()
	if r.frozen == nil && r.state.Terminal() {
		v := r.srv.viewWith(r.baseStatusLocked)
		r.frozen = freeze(&v)
	}
	fr := r.frozen
	r.mu.Unlock()
	if fr == nil {
		return r.srv.viewWith(r.srv.status)
	}
	return runView{run: r.srv.runLabel, frozen: fr}
}

func (r *Run) finish(report *core.Report, err error) {
	state := core.RunFailed
	switch {
	case err == nil:
		state = core.RunCompleted
	case errors.Is(err, core.ErrRunCancelled):
		state = core.RunCancelled
	}
	r.mu.Lock()
	r.report, r.err, r.state = report, err, state
	r.mu.Unlock()
	if r.finished != nil {
		r.finished(state, err)
	}
	close(r.done)
	// The collector's last drain comes after done closes: a stream's done
	// frame does not wait on it, and the first read of the finished run
	// would have drained the same records anyway.
	if r.col != nil {
		r.col.FinalSync()
	}
}
