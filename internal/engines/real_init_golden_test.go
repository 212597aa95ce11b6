package engines

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/localexec"
	"repro/internal/md"
)

const realInitGolden = "testdata/real_init.golden"

// realInitFingerprint initialises every replica of three small grids
// whose Hamiltonians repeat along the temperature axis (T x U, T x S,
// and T x pH on the titratable dipeptide), then runs each replica's
// first segment, and hashes per replica the minimised positions, the
// initial energy and the segment's sampled energies.
func realInitFingerprint(t *testing.T) []string {
	t.Helper()
	grids := []struct {
		name       string
		titratable bool
		dims       []core.Dimension
	}{
		{"TxU", false, []core.Dimension{
			{Type: exchange.Temperature, Values: []float64{280, 310, 340}},
			{Type: exchange.Umbrella, Values: core.UniformWindows(2), Torsion: "phi", K: core.UmbrellaK002},
		}},
		{"TxS", false, []core.Dimension{
			{Type: exchange.Temperature, Values: []float64{290, 330}},
			{Type: exchange.Salt, Values: []float64{0.1, 0.5}},
		}},
		{"TxpH", true, []core.Dimension{
			{Type: exchange.Temperature, Values: []float64{290, 330}},
			{Type: exchange.PH, Values: []float64{4, 7}},
		}},
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
	for _, g := range grids {
		top, st := md.BuildAlanineDipeptide()
		if g.titratable {
			top, st = md.BuildTitratableDipeptide()
		}
		sys := md.MustNewSystem(top, md.Box{}, 0)
		md.Minimize(sys, st, md.Params{TemperatureK: 300}, 500, 1e-3)
		eng := mustNewReal("amber", sys, st, 11)
		spec := &core.Spec{
			Name:            "real-init-" + g.name,
			Dims:            g.dims,
			Pattern:         core.PatternSynchronous,
			CoresPerReplica: 1,
			StepsPerCycle:   40,
			Cycles:          1,
			Seed:            11,
		}
		simu, err := core.New(spec, eng, localexec.New(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range simu.Replicas() {
			for _, p := range eng.segs[r.ID].state.Pos {
				f(p.X)
				f(p.Y)
				f(p.Z)
			}
			pos := sum()
			if err := eng.MDTask(r, spec, 0).Run(); err != nil {
				t.Fatal(err)
			}
			tr := eng.WindowTrajectory(r.Slot)
			for _, x := range tr.Potential {
				f(x)
			}
			for _, x := range tr.Kinetic {
				f(x)
			}
			lines = append(lines, fmt.Sprintf("%s replica %d T=%g S=%g pH=%g restraints=%d energy=%.9f pos=%s segment=%s",
				g.name, r.ID, r.Params.TemperatureK, r.Params.SaltM, r.Params.PH, len(r.Params.Restraints), r.Energy, pos, sum()))
		}
	}
	return lines
}

// TestRealInitGolden pins InitReplica bit for bit on grids where
// several replicas share a Hamiltonian: each replica's minimised
// positions, its initial energy and the energies of its first segment
// (which also read the velocities InitReplica drew). The golden was
// written by the engine that minimised every replica from the base
// state on its own, so a match means sharing a minimisation between
// replicas of one Hamiltonian moved no bit; salt and pH rows are there
// because both change the potential a minimisation descends.
func TestRealInitGolden(t *testing.T) {
	got := realInitFingerprint(t)
	if *updateReal {
		if err := os.WriteFile(realInitGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(realInitGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, run has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("initialisation diverged:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
