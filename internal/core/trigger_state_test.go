package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// update rewrites the testdata goldens of the tests -run selects
// (testdata/trigger_state.golden, testdata/exchange_large.golden); never
// pass it without -run.
var update = flag.Bool("update", false, "rewrite the testdata goldens of the tests -run selects")

// testdata/trigger_state.golden holds the EncodeState bytes of the two
// stateful triggers, one "name<TAB>state" line a case, as written by
// the json.Marshal of the DTO structs those methods used before they
// moved onto internal/jsonx. It is never regenerated: a snapshot's
// trigger_data is these bytes, so a mismatch means a written checkpoint
// changed — fix the encoder.

// stateCase is one pinned controller state: a constructor for a fresh
// trigger with the case's options, and the inputs that bring it there.
type stateCase struct {
	name  string
	fresh func() core.StatefulTrigger
	drive func(core.StatefulTrigger)
}

func adaptiveCase(name string, latencies ...float64) stateCase {
	return stateCase{
		name:  "adaptive/" + name,
		fresh: func() core.StatefulTrigger { return core.NewAdaptiveTrigger(100) },
		drive: func(tr core.StatefulTrigger) {
			for _, l := range latencies {
				tr.(*core.AdaptiveTrigger).ObserveLatency(l)
			}
		},
	}
}

func feedbackCase(name string, targets []float64, drive func(*core.FeedbackTrigger)) stateCase {
	return stateCase{
		name: "feedback/" + name,
		fresh: func() core.StatefulTrigger {
			tr := core.NewFeedbackTrigger(100)
			tr.Targets = targets
			tr.WindowEvents = 8
			tr.MinReady = 3
			return tr
		},
		drive: func(tr core.StatefulTrigger) { drive(tr.(*core.FeedbackTrigger)) },
	}
}

func stateCases() []stateCase {
	return []stateCase{
		adaptiveCase("fresh"),
		adaptiveCase("observed", 90, 110, 130, 95, 140),
		// Exponent-form floats on both sides of encoding/json's 1e-6 and
		// 1e21 switch-overs.
		adaptiveCase("tiny", 1e-9, 3e-9, 2.5e-7),
		adaptiveCase("huge", 1e22, 3e22, 1e21),
		feedbackCase("fresh", nil, func(*core.FeedbackTrigger) {}),
		feedbackCase("warm-only", nil, func(tr *core.FeedbackTrigger) {
			for _, l := range []float64{141.5, 139.25, 150, 1e-7} {
				tr.ObserveLatency(l)
			}
		}),
		// Dimension 0 steering inside its clamps, dimension 1 pinned
		// narrow with the second actuator at 2.
		feedbackCase("two-dim", []float64{0.5, 0.2}, func(tr *core.FeedbackTrigger) {
			tr.ObserveLatency(120)
			tr.ObserveLatency(131)
			for i := 0; i < 14; i++ {
				tr.ObserveExchange(dimEvent(0, i%2 == 0, i%3 == 0))
				tr.ObserveExchange(dimEvent(1, true, true))
			}
		}),
		// Pinned wide: override 0, a saturation run, a frozen integral.
		feedbackCase("saturated-wide", []float64{0.5}, func(tr *core.FeedbackTrigger) {
			feedFill(tr)
			for i := 0; i < 40; i++ {
				tr.ObserveExchange(dimEvent(0, false, false))
			}
		}),
		// Acceptance above target: a negative integral off the clamps.
		feedbackCase("narrowing", []float64{0.3}, func(tr *core.FeedbackTrigger) {
			feedFill(tr)
			tr.ObserveExchange(dimEvent(0, true))
			tr.ObserveExchange(dimEvent(0, true, false))
		}),
		// Only dimension 2 observed and its ring not yet full: two
		// untouched controllers in front of a warming one.
		feedbackCase("partial-third-dim", nil, func(tr *core.FeedbackTrigger) {
			tr.ObserveExchange(dimEvent(2, true, false, true))
		}),
		// A respaced dimension re-warms from nothing beside a live one.
		feedbackCase("reset-dim", []float64{0.5, 0.2}, func(tr *core.FeedbackTrigger) {
			for i := 0; i < 14; i++ {
				tr.ObserveExchange(dimEvent(0, i%2 == 0, i%3 == 0))
				tr.ObserveExchange(dimEvent(1, true, true))
			}
			tr.ResetDim(1)
		}),
	}
}

// TestTriggerStateGolden checks EncodeState of both stateful triggers
// against the pinned bytes, and that each pinned state restores into a
// fresh trigger that encodes the same bytes again.
func TestTriggerStateGolden(t *testing.T) {
	path := filepath.Join("testdata", "trigger_state.golden")
	var got bytes.Buffer
	states := map[string][]byte{}
	for _, c := range stateCases() {
		tr := c.fresh()
		c.drive(tr)
		data, err := tr.EncodeState()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		states[c.name] = data
		fmt.Fprintf(&got, "%s\t%s\n", c.name, data)
	}
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := readPinned(t, "trigger_state.golden"); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("EncodeState moved off testdata/trigger_state.golden:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
	for _, c := range stateCases() {
		tr := c.fresh()
		if err := tr.RestoreState(states[c.name]); err != nil {
			t.Fatalf("%s: restoring the pinned state: %v", c.name, err)
		}
		back, err := tr.EncodeState()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(back, states[c.name]) {
			t.Fatalf("%s: restored state encodes to\n%s\nwant\n%s", c.name, back, states[c.name])
		}
	}
}

// fuzzRestore is the property the resume path asks of a stateful
// trigger's decoder, run from a controller that already holds the state
// of the named pinned case: RestoreState never panics; when it fails,
// the controller still encodes to the bytes it encoded to before; when
// it succeeds, the bytes it then encodes to restore into a fresh trigger
// that encodes the same bytes again. The corpus starts from the pinned
// states of that trigger and whatever else the caller seeds.
func fuzzRestore(f *testing.F, held string, seeds ...[]byte) {
	kind, _, _ := strings.Cut(held, "/")
	for _, line := range strings.Split(strings.TrimSpace(string(readPinned(f, "trigger_state.golden"))), "\n") {
		if name, state, _ := strings.Cut(line, "\t"); strings.HasPrefix(name, kind+"/") {
			f.Add([]byte(state))
		}
	}
	for _, seed := range seeds {
		f.Add(seed)
	}
	var c stateCase
	for _, sc := range stateCases() {
		if sc.name == held {
			c = sc
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := c.fresh()
		c.drive(tr)
		before, err := tr.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.RestoreState(data); err != nil {
			if after, err := tr.EncodeState(); err != nil || !bytes.Equal(after, before) {
				t.Fatalf("a failed restore left the controller at (err %v)\n%s\nwas\n%s", err, after, before)
			}
			return
		}
		enc, err := tr.EncodeState()
		if err != nil {
			t.Fatalf("a restored controller does not encode: %v", err)
		}
		again := c.fresh()
		if err := again.RestoreState(enc); err != nil {
			t.Fatalf("EncodeState's output does not restore: %v\n%s", err, enc)
		}
		if enc2, err := again.EncodeState(); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("encoding is not a fixed point (err %v):\n%s\n%s", err, enc, enc2)
		}
	})
}

func FuzzFeedbackRestore(f *testing.F) {
	sn, err := core.DecodeSnapshot(readPinned(f, "snapshot_v2_feedback_respaced.json"))
	if err != nil {
		f.Fatal(err)
	}
	fuzzRestore(f, "feedback/two-dim", sn.TriggerData,
		// The single-controller layout of snapshot format 1, and bad values.
		[]byte(`{"outcomes":[true,false],"cur":140,"active":true,"warm_n":3,"warm_mean":90,"warm_m2":4}`),
		[]byte(`{"dims":[null,{"outcomes":null,"cur":-0,"active":true,"min_ready_override":-7}],"warm_n":-1}`))
}

func FuzzAdaptiveRestore(f *testing.F) {
	fuzzRestore(f, "adaptive/observed", []byte(`{"n":-3,"mean":1e400,"m2":-0,"later":[{}]}`))
}
