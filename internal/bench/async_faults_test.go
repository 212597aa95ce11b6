package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

// asyncTriggers are the asynchronous policies testdata/async_faults.golden
// pins, each run under every barrier fault shape: the plain window, the
// window with an early-fire threshold, the count criterion, the adaptive
// window and the feedback controller with online respacing.
var asyncTriggers = []struct {
	name string
	mk   func() core.Trigger
}{
	{"window", func() core.Trigger { return core.NewWindowTrigger(60, 0) }},
	{"window-minready", func() core.Trigger { return core.NewWindowTrigger(60, 8) }},
	{"count", func() core.Trigger { return core.NewCountTrigger(6) }},
	{"adaptive", func() core.Trigger { return core.NewAdaptiveTrigger(60) }},
	{"feedback-respace", func() core.Trigger {
		tr := core.NewFeedbackTrigger(60)
		tr.Target, tr.WindowEvents, tr.SaturationSteps = 0.35, 12, 4
		return tr
	}},
}

// asyncFaultParams turns a barrier fault shape into the same run under
// an asynchronous trigger. A feedback trigger runs three times the
// cycles on a mis-spaced ladder (tight rungs below one wide gap, so its
// controller saturates and the ladder is refitted) with the
// respacing planner wired as serve.NewRun wires it (bench cannot import
// serve).
func asyncFaultParams(p RunParams, tr core.Trigger) RunParams {
	spec := p.Spec
	spec.Pattern, spec.Trigger = core.PatternAsynchronous, tr
	spec.Bus = core.NewBus()
	if _, ok := tr.(*core.FeedbackTrigger); ok {
		spec.Cycles *= 3
		values := spec.Dims[0].Values
		for i := range values[:len(values)-1] {
			values[i] = 273 + 18*float64(i)/float64(len(values)-2)
		}
		col := analysis.New(analysis.ConfigFromSpec(spec))
		col.Attach(spec.Bus, analysis.RunBuffer(spec))
		spec.Respace = &core.RespaceSpec{Planner: col, AfterSteps: 4, MaxRefits: 2}
	}
	return p
}

// TestAsyncFaultsGolden pins, for every asynchronous trigger under every
// barrier fault shape (15 % unit failures, a walltime expiry, a
// preemption on two pilots, Mode II with a node loss, the committed
// chaos plan), the slot fingerprint, the relaunches and drops, the bits
// of the run's end time, every bus record in publication order with its
// time stamp, the refits and the feedback controller's final status
// against testdata/async_faults.golden, written while the orchestrator
// woke at every MD completion. It is never regenerated: a mismatch means
// a relaunch went out at another time, a completion was stamped or
// observed at another time, or a record reached the bus in another
// order — fix the code.
func TestAsyncFaultsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, trig := range asyncTriggers {
		for _, shape := range barrierFaultShapes(t) {
			tr := trig.mk()
			p := asyncFaultParams(shape.params(), tr)
			sub := p.Spec.Bus.Subscribe(1 << 16)
			var simu *core.Simulation
			p.OnStart = func(s *core.Simulation) { simu = s }
			rep, err := Run(p)
			if err != nil {
				t.Fatalf("%s/%s: %v", trig.name, shape.name, err)
			}
			recs := sub.Drain(nil)
			if sub.Dropped() != 0 {
				t.Fatalf("%s/%s: the subscription dropped %d records", trig.name, shape.name, sub.Dropped())
			}
			bus, kinds := busDigest(recs)
			fmt.Fprintf(&got, "%s/%s fingerprint=%#x events=%d relaunches=%d dropped=%d end=%#x records=%d bus=%#x kinds=%v",
				trig.name, shape.name, rep.SlotFingerprint, rep.ExchangeEvents, rep.Relaunches, rep.Dropped,
				math.Float64bits(rep.End), len(recs), bus, kinds)
			if fb, ok := tr.(*core.FeedbackTrigger); ok {
				_, refits := simu.Respacing()
				c := fnv.New64a()
				fmt.Fprintf(c, "%+v", fb.ControllerStatus())
				fmt.Fprintf(&got, " refits=%d controller=%#x", len(refits), c.Sum64())
			}
			got.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "async_faults.golden")
	if *updateBooking {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("async fault shapes moved off %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
