package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

// respaceSmallParams loads the committed respace walkthrough config
// (the pair the respace smoke runs) with the collector-backed planner
// wired the way serve.NewRun wires it (bench cannot import serve).
func respaceSmallParams(t *testing.T) (RunParams, **core.Simulation) {
	t.Helper()
	p := shippedParams(t, "respace_small.json", "small_cluster_16.json")
	spec := p.Spec
	if spec.Respace == nil {
		t.Fatal("configs/respace_small.json does not enable respacing")
	}
	spec.Bus = core.NewBus()
	col := analysis.New(analysis.ConfigFromSpec(spec))
	col.Attach(spec.Bus, analysis.RunBuffer(spec))
	spec.Respace.Planner = col
	simPtr := new(*core.Simulation)
	p.OnStart = func(s *core.Simulation) { *simPtr = s }
	return p, simPtr
}

// respacings is a finished simulation's refit history.
func respacings(s *core.Simulation) []core.RespaceRecord {
	_, hist := s.Respacing()
	return hist
}

// TestRespaceSmallGolden locks the committed respace walkthrough to its
// golden slot fingerprint: the mis-spaced ladder must refit at least
// once, the post-refit trajectory is bit-reproducible, and any change
// to the respacing pipeline that moves the refit (different event,
// different grid) shows up as a fingerprint diff against
// configs/respace_small.golden.
func TestRespaceSmallGolden(t *testing.T) {
	run := func() (*core.Report, []core.RespaceRecord) {
		p, simPtr := respaceSmallParams(t)
		rep, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return rep, respacings(*simPtr)
	}
	a, histA := run()
	if a.Dropped != 0 {
		t.Fatalf("respace-small dropped %d replicas, want 0", a.Dropped)
	}
	if len(histA) == 0 {
		t.Fatal("respace-small never refitted its ladder")
	}
	b, histB := run()
	if a.SlotFingerprint != b.SlotFingerprint || a.SlotRows != b.SlotRows {
		t.Fatalf("respace-small not reproducible: %d rows %016x vs %d rows %016x",
			a.SlotRows, a.SlotFingerprint, b.SlotRows, b.SlotFingerprint)
	}
	if len(histA) != len(histB) || histA[0].Event != histB[0].Event {
		t.Fatalf("refit schedule not reproducible: %+v vs %+v", histA, histB)
	}

	golden, err := os.ReadFile(filepath.Join("..", "..", "configs", "respace_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%d %016x", a.SlotRows, a.SlotFingerprint)
	if want := strings.TrimSpace(string(golden)); got != want {
		t.Fatalf("slot history diverged from configs/respace_small.golden: got %q, want %q\n"+
			"(if the change is intentional, update the golden file)", got, want)
	}
}
