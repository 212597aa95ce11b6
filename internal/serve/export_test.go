package serve

import "repro/internal/pilot"

// Pool exposes the shared admission pool (nil when unbounded), so the
// registry tests can check that every run hands its cores back.
func (g *Registry) Pool() *pilot.Pool { return g.pool }
