package engines

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/localexec"
	"repro/internal/md"
)

var updateReal = flag.Bool("update", false, "rewrite testdata/real_run.golden from the current real engine")

const realGolden = "testdata/real_run.golden"

// realRunFingerprint runs a small T x U barrier run on the real engine
// and a two-worker localexec runtime, and hashes everything the run
// leaves behind: each replica's energy, slot and final positions and
// velocities, the slot fingerprint and every window's sampled
// trajectory. Under a barrier each slot's segments append in cycle
// order, so the result does not depend on which worker finishes first.
func realRunFingerprint(t *testing.T) []string {
	t.Helper()
	top, st := md.BuildAlanineDipeptide()
	sys := md.MustNewSystem(top, md.Box{}, 0)
	md.Minimize(sys, st, md.Params{TemperatureK: 300}, 500, 1e-3)
	eng := mustNewReal("amber", sys, st, 7)
	spec := &core.Spec{
		Name: "real-golden",
		Dims: []core.Dimension{
			{Type: exchange.Temperature, Values: core.GeometricTemperatures(280, 360, 2)},
			{Type: exchange.Umbrella, Values: core.UniformWindows(3), Torsion: "phi", K: core.UmbrellaK002},
		},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   110,
		Cycles:          4,
		Seed:            7,
	}
	simu, err := core.New(spec, eng, localexec.New(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := simu.Run()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	f := func(x float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	sum := func() string {
		s := fmt.Sprintf("%016x", h.Sum64())
		h.Reset()
		return s
	}
	var lines []string
	for _, r := range simu.Replicas() {
		f(r.Energy)
		st := &eng.segs[r.ID].state
		for i := range st.Pos {
			p, v := st.Pos[i], st.Vel[i]
			f(p.X)
			f(p.Y)
			f(p.Z)
			f(v.X)
			f(v.Y)
			f(v.Z)
		}
		lines = append(lines, fmt.Sprintf("replica %d slot=%d cycle=%d energy=%.9f state=%s", r.ID, r.Slot, r.Cycle, r.Energy, sum()))
	}
	lines = append(lines, fmt.Sprintf("slots fingerprint=%016x rows=%d exchanges=%d", rep.SlotFingerprint, rep.SlotRows, rep.ExchangeEvents))
	for slot := 0; slot < spec.Replicas(); slot++ {
		tr := eng.WindowTrajectory(slot)
		if tr == nil {
			lines = append(lines, fmt.Sprintf("window %d none", slot))
			continue
		}
		for _, s := range [][]float64{tr.Phi, tr.Psi, tr.Potential, tr.Kinetic} {
			f(float64(len(s)))
			for _, x := range s {
				f(x)
			}
		}
		lines = append(lines, fmt.Sprintf("window %d steps=%d samples=%d series=%s", slot, tr.Steps, len(tr.Potential), sum()))
	}
	return lines
}

// TestRealRunGolden pins a real-engine run bit for bit: the trajectories
// the integrator writes, the samples the engine collects per window, the
// energies the exchanges read and the slots they leave. The golden was
// written by the engine that built a fresh integrator, random source and
// sample buffer for every segment and re-evaluated the forces at every
// sampling stride, so a match means reusing them moved no bit.
func TestRealRunGolden(t *testing.T) {
	got := realRunFingerprint(t)
	if *updateReal {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(realGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(realGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, run has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("real run diverged:\n got  %s\n want %s", got[i], want[i])
		}
	}
}

// TestRealSegmentAllocatesNothing: once a replica has run a segment, its
// next segments (the task MDTask describes and the task's Run) allocate
// nothing. An integrator, random source, sample buffer, spec or Run
// closure built per segment, or parameters cloned per segment, fail it.
func TestRealSegmentAllocatesNothing(t *testing.T) {
	top, st := md.BuildAlanineDipeptide()
	sys := md.MustNewSystem(top, md.Box{}, 0)
	e := mustNewReal("amber", sys, st, 3)
	spec := &core.Spec{
		Name: "real-allocs",
		Dims: []core.Dimension{
			{Type: exchange.Temperature, Values: []float64{290, 310}},
			{Type: exchange.Umbrella, Values: core.UniformWindows(2), Torsion: "phi", K: core.UmbrellaK002},
		},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   30,
		Cycles:          50,
	}
	r := &core.Replica{ID: 1, Slot: 1, Alive: true, Params: md.Params{TemperatureK: 310,
		Restraints: []md.TorsionRestraint{{Dihedral: top.FindDihedral("phi"), Center: 1, K: core.UmbrellaK002}}}}
	e.InitReplica(r, spec)
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.MDTask(r, spec, 0).Run(); err != nil {
			t.Fatal(err)
		}
		r.Cycle++
	})
	if allocs != 0 {
		t.Errorf("a real segment allocates %v objects, want 0", allocs)
	}
	if tr := e.WindowTrajectory(1); tr == nil || tr.Steps != 21*30 || len(tr.Potential) != 21*2 {
		t.Fatalf("window 1 trajectory %+v, want 21 segments of 30 steps, 2 samples each", tr)
	}
}

// TestRealRunAllocationsPerSegment: a whole real run, through core and
// localexec, allocates per run and per exchange round, and per segment
// only the goroutine its task runs on. Runs of 2 and 10 cycles on 16
// replicas differ by 256 segments; their allocations must differ by less
// than one and a half objects per segment. A runtime that allocates a
// handle or channel per task fails it, as does an engine that allocates
// per segment.
func TestRealRunAllocationsPerSegment(t *testing.T) {
	top, st := md.BuildAlanineDipeptide()
	sys := md.MustNewSystem(top, md.Box{}, 0)
	md.Minimize(sys, st, md.Params{TemperatureK: 300}, 200, 1e-2)
	run := func(cycles int) float64 {
		return testing.AllocsPerRun(2, func() {
			spec := &core.Spec{
				Name: "real-scaling",
				Dims: []core.Dimension{
					{Type: exchange.Temperature, Values: core.GeometricTemperatures(280, 360, 4)},
					{Type: exchange.Umbrella, Values: core.UniformWindows(4), Torsion: "phi", K: core.UmbrellaK002},
				},
				Pattern:         core.PatternSynchronous,
				CoresPerReplica: 1,
				StepsPerCycle:   50,
				Cycles:          cycles,
				Seed:            1,
			}
			simu, err := core.New(spec, mustNewReal("amber", sys, st, 1), localexec.New(2))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := simu.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := run(2), run(10)
	segments := float64(16 * 2 * (10 - 2))
	if per := (long - short) / segments; per >= 1.5 {
		t.Errorf("%v objects for 2 cycles, %v for 10: %.2f a segment, want under 1.5", short, long, per)
	} else {
		t.Logf("%v objects for 2 cycles, %v for 10: %.3f a segment", short, long, per)
	}
}

// TestRealWindowsOwnTheirArrays: a window that takes more samples than
// its room in the run's backing array grows by append into an array of
// its own, and no sample moves: the same segments, run where every
// window has room, leave the same series. A carve without its cap lets
// the overflow write into the next series or the next window.
func TestRealWindowsOwnTheirArrays(t *testing.T) {
	top, st := md.BuildAlanineDipeptide()
	sys := md.MustNewSystem(top, md.Box{}, 0)
	windows := func(cycles int) [2]md.Trajectory {
		e := mustNewReal("amber", sys, st, 5)
		spec := &core.Spec{
			Name:            "real-windows",
			Dims:            []core.Dimension{{Type: exchange.Temperature, Values: []float64{290, 310}}},
			Pattern:         core.PatternSynchronous,
			CoresPerReplica: 1,
			StepsPerCycle:   50,
			Cycles:          cycles,
		}
		rs := []*core.Replica{
			{ID: 0, Slot: 0, Alive: true, Params: md.Params{TemperatureK: 290}},
			{ID: 1, Slot: 1, Alive: true, Params: md.Params{TemperatureK: 310}},
		}
		for _, r := range rs {
			e.InitReplica(r, spec)
		}
		// Window 1 fills first, then window 0 takes four segments.
		for _, r := range []*core.Replica{rs[1], rs[0], rs[0], rs[0], rs[0]} {
			if err := e.MDTask(r, spec, 0).Run(); err != nil {
				t.Fatal(err)
			}
			r.Cycle++
		}
		return [2]md.Trajectory{*e.WindowTrajectory(0), *e.WindowTrajectory(1)}
	}
	tight, roomy := windows(1), windows(4)
	for w := range tight {
		got, want := tight[w], roomy[w]
		for i, pair := range [][2][]float64{{got.Phi, want.Phi}, {got.Psi, want.Psi}, {got.Potential, want.Potential}, {got.Kinetic, want.Kinetic}} {
			if !slices.Equal(pair[0], pair[1]) {
				t.Errorf("window %d series %d: %v after outgrowing its room, %v with room", w, i, pair[0], pair[1])
			}
		}
	}
	if n := len(tight[0].Kinetic); n != 8 {
		t.Fatalf("window 0 holds %d samples, want 8", n)
	}
}
