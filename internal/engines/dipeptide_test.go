package engines

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/localexec"
	"repro/internal/md"
)

// mustNewReal is NewReal for the tests' known flavors.
func mustNewReal(flavor string, sys *md.System, base *md.State, seed int64) *Real {
	e, err := NewReal(flavor, sys, base, seed)
	if err != nil {
		panic(err)
	}
	return e
}

// TestDipeptideBaseStaysUntouched: engines from NewDipeptide share the
// process's one dipeptide system and base state, and a run on them
// leaves the base state as a fresh build minimises it (an engine that
// wrote into the shared positions, or evaluated forces on them, would
// show here).
func TestDipeptideBaseStaysUntouched(t *testing.T) {
	d, err := dipeptide()
	if err != nil {
		t.Fatal(err)
	}
	for _, flavor := range []string{"amber", "namd"} {
		eng, err := NewDipeptide(flavor, 5)
		if err != nil {
			t.Fatal(err)
		}
		if eng.sys != d.sys || eng.base != d.base {
			t.Fatalf("%s: the engine does not share the process's dipeptide", flavor)
		}
		spec := &core.Spec{
			Name: "shared-base",
			Dims: []core.Dimension{
				{Type: exchange.Temperature, Values: core.GeometricTemperatures(280, 340, 2)},
				{Type: exchange.Umbrella, Values: core.UniformWindows(2), Torsion: "phi", K: core.UmbrellaK002},
			},
			Pattern:         core.PatternSynchronous,
			CoresPerReplica: 1,
			StepsPerCycle:   30,
			Cycles:          2,
			Seed:            5,
		}
		simu, err := core.New(spec, eng, localexec.New(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := simu.Run(); err != nil {
			t.Fatal(err)
		}
	}
	top, want := md.BuildAlanineDipeptide()
	md.Minimize(md.MustNewSystem(top, md.Box{}, 0), want, md.Params{TemperatureK: 300}, 2000, 1e-3)
	for i := range want.Pos {
		if d.base.Pos[i] != want.Pos[i] || d.base.Vel[i] != want.Vel[i] {
			t.Fatalf("base atom %d at %v / %v after two runs, a fresh build at %v / %v",
				i, d.base.Pos[i], d.base.Vel[i], want.Pos[i], want.Vel[i])
		}
	}
}
