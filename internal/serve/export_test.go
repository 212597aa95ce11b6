package serve

import (
	"context"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/pilot"
)

// Pool exposes the shared admission pool (nil when unbounded), so the
// registry tests can check that every run hands its cores back.
func (g *Registry) Pool() *pilot.Pool { return g.pool }

// LaunchDoomed launches l as Launch does, with an engine that panics in
// the run's third round (blowingEngine).
func (g *Registry) LaunchDoomed(l *config.Launch) (*Run, error) {
	run, err := NewRun(context.Background(), l, true, false, g.traceEvents)
	if err != nil {
		return nil, err
	}
	newEngine := run.params.NewEngine
	run.params.NewEngine = func(seed int64) core.Engine { return &blowingEngine{Engine: newEngine(seed)} }
	return run, g.admit(run)
}
