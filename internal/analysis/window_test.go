package analysis_test

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

// pairEvent builds an exchange event attempting the single neighbour
// pair (lo, lo+1) along dimension 0 with the given outcome.
func pairEvent(event, lo int, accepted bool) core.ExchangeEvent {
	return core.ExchangeEvent{
		Event: event, Dim: 0,
		Pairs: []core.PairOutcome{{Lo: lo, Hi: lo + 1, Accepted: accepted}},
	}
}

// TestWindowExactRatiosOnHandBuiltTrace drives one pair with a fully
// known outcome sequence and checks the rolling window against a hand
// computation at every step: with WindowEvents=4, the windowed stats
// must cover exactly the last four outcomes while the cumulative stats
// keep counting everything.
func TestWindowExactRatiosOnHandBuiltTrace(t *testing.T) {
	col := analysis.New(analysis.Config{DimSizes: []int{2}, Replicas: 2, WindowEvents: 4})
	outcomes := []bool{true, true, false, true, false, false, true, false, false, false}
	for e, acc := range outcomes {
		col.Apply(pairEvent(e, 0, acc))

		st := col.Snapshot()
		if st.WindowEvents != 4 {
			t.Fatalf("window depth %d, want 4", st.WindowEvents)
		}
		// Hand-built expectation over the last <=4 outcomes.
		start := 0
		if e+1 > 4 {
			start = e + 1 - 4
		}
		wantAtt, wantAcc := 0, 0
		for _, a := range outcomes[start : e+1] {
			wantAtt++
			if a {
				wantAcc++
			}
		}
		got := st.AcceptanceWindow[0][0]
		if got.Attempted != uint64(wantAtt) || got.Accepted != uint64(wantAcc) {
			t.Fatalf("after %d outcomes: window %d/%d, want %d/%d",
				e+1, got.Accepted, got.Attempted, wantAcc, wantAtt)
		}
		cum := st.Acceptance[0][0]
		if cum.Attempted != uint64(e+1) {
			t.Fatalf("cumulative attempts %d, want %d", cum.Attempted, e+1)
		}
	}
	// Final state: cumulative 4/10, window covers the last 4 (F T F F).
	st := col.Snapshot()
	if r := st.Acceptance[0][0].Ratio(); r != 0.4 {
		t.Fatalf("cumulative ratio %v, want 0.4", r)
	}
	if r := st.AcceptanceWindow[0][0].Ratio(); r != 0.25 {
		t.Fatalf("windowed ratio %v, want 0.25 (1 accept in last 4)", r)
	}
}

// TestWindowWrapAround exercises the ring across many times its
// capacity: after a long rejected prefix, a window-full of accepts must
// read exactly 1.0 — no stale outcome may survive the wrap.
func TestWindowWrapAround(t *testing.T) {
	col := analysis.New(analysis.Config{DimSizes: []int{2}, Replicas: 2, WindowEvents: 8})
	for e := 0; e < 100; e++ {
		col.Apply(pairEvent(e, 0, false))
	}
	for e := 100; e < 108; e++ {
		col.Apply(pairEvent(e, 0, true))
	}
	st := col.Snapshot()
	got := st.AcceptanceWindow[0][0]
	if got.Attempted != 8 || got.Accepted != 8 {
		t.Fatalf("window %d/%d after wrap, want 8/8", got.Accepted, got.Attempted)
	}
	if cum := st.Acceptance[0][0]; cum.Attempted != 108 || cum.Accepted != 8 {
		t.Fatalf("cumulative %d/%d, want 8/108", cum.Accepted, cum.Attempted)
	}
}

// TestWindowSkipsGapPairs is the controller-safety assertion: an
// attempt bridging a dead replica's window (Hi > Lo+1) must not enter
// the rolling window either, or a feedback trigger consuming it would
// chase dead-replica artifacts.
func TestWindowSkipsGapPairs(t *testing.T) {
	col := analysis.New(analysis.Config{DimSizes: []int{4}, Replicas: 4, WindowEvents: 4})
	col.Apply(core.ExchangeEvent{
		Event: 0, Dim: 0,
		Pairs: []core.PairOutcome{
			{Lo: 0, Hi: 1, Accepted: true},
			{Lo: 1, Hi: 3, Accepted: true}, // window 2 dead: bridged pair
		},
		Slots: []int{1, 0, 2, 3},
	})
	st := col.Snapshot()
	if got := st.AcceptanceWindow[0][0]; got.Attempted != 1 || got.Accepted != 1 {
		t.Fatalf("pair (0,1) window %+v, want 1/1", got)
	}
	for _, i := range []int{1, 2} {
		if got := st.AcceptanceWindow[0][i]; got.Attempted != 0 {
			t.Fatalf("gap attempt (1,3) leaked into windowed pair %d: %+v", i, got)
		}
	}
}

// TestWindowSurvivesRestore: the rolling windows round-trip through
// EncodeState/Restore, and a snapshot from a collector with a larger
// WindowEvents restores into a smaller one keeping the newest outcomes.
func TestWindowSurvivesRestore(t *testing.T) {
	big := analysis.New(analysis.Config{DimSizes: []int{2}, Replicas: 2, WindowEvents: 8})
	outcomes := []bool{true, true, true, true, false, true, false, false}
	for e, acc := range outcomes {
		big.Apply(pairEvent(e, 0, acc))
	}
	data, err := big.EncodeState()
	if err != nil {
		t.Fatal(err)
	}

	same := analysis.New(analysis.Config{DimSizes: []int{2}, Replicas: 2, WindowEvents: 8})
	if err := same.Restore(data); err != nil {
		t.Fatal(err)
	}
	if got := same.Snapshot().AcceptanceWindow[0][0]; got.Attempted != 8 || got.Accepted != 5 {
		t.Fatalf("same-size restore window %d/%d, want 5/8", got.Accepted, got.Attempted)
	}

	small := analysis.New(analysis.Config{DimSizes: []int{2}, Replicas: 2, WindowEvents: 4})
	if err := small.Restore(data); err != nil {
		t.Fatal(err)
	}
	// Newest four outcomes are F T F F -> 1/4.
	if got := small.Snapshot().AcceptanceWindow[0][0]; got.Attempted != 4 || got.Accepted != 1 {
		t.Fatalf("shrinking restore window %d/%d, want 1/4", got.Accepted, got.Attempted)
	}
	// The shrunk ring must keep rolling correctly.
	small.Apply(pairEvent(8, 0, true))
	if got := small.Snapshot().AcceptanceWindow[0][0]; got.Attempted != 4 || got.Accepted != 2 {
		t.Fatalf("post-restore push window %d/%d, want 2/4", got.Accepted, got.Attempted)
	}
}

// TestRestoreRejectsPreWindowState: a state without pair windows (the
// collector layout of snapshot format 1) is rejected with an error, not
// restored with empty windows and never a panic; so is one whose window
// list is present but short.
func TestRestoreRejectsPreWindowState(t *testing.T) {
	src := analysis.New(analysis.Config{DimSizes: []int{3}, Replicas: 3, WindowEvents: 4})
	src.Apply(pairEvent(0, 0, true))
	data, err := src.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for name, windows := range map[string]string{"absent": "", "null": "null", "short": "[[{}]]"} {
		if windows == "" {
			delete(raw, "pair_windows")
		} else {
			raw["pair_windows"] = json.RawMessage(windows)
		}
		old, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		col := analysis.New(analysis.Config{DimSizes: []int{3}, Replicas: 3, WindowEvents: 4})
		if err := col.Restore(old); err == nil {
			t.Errorf("%s pair windows: state accepted", name)
		}
		// The rejected restore left the collector usable.
		col.Apply(pairEvent(1, 1, false))
		if got := col.Snapshot().AcceptanceWindow[0][1]; got.Attempted != 1 {
			t.Errorf("%s pair windows: collector broken after rejection: %+v", name, got)
		}
	}
}

// TestRestoreRejectsCorruptWindow: ring internals come from untrusted
// checkpoint JSON; out-of-range indices or an inconsistent accepted
// count must fail Restore instead of panicking on the first
// post-resume push.
func TestRestoreRejectsCorruptWindow(t *testing.T) {
	src := analysis.New(analysis.Config{DimSizes: []int{2}, Replicas: 2, WindowEvents: 4})
	for e := 0; e < 4; e++ {
		src.Apply(pairEvent(e, 0, e%2 == 0))
	}
	data, err := src.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(field string, value int) []byte {
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatal(err)
		}
		var wins [][]map[string]json.RawMessage
		if err := json.Unmarshal(raw["pair_windows"], &wins); err != nil {
			t.Fatal(err)
		}
		wins[0][0][field] = json.RawMessage(fmt.Sprintf("%d", value))
		patched, err := json.Marshal(wins)
		if err != nil {
			t.Fatal(err)
		}
		raw["pair_windows"] = patched
		out, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// Histograms are indexed the same way: Observe picks the bucket by
	// the sample's position among the bounds.
	histogram := func(name, value string) []byte {
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatal(err)
		}
		raw[name] = json.RawMessage(value)
		out, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, tc := range []struct {
		what  string
		state []byte
	}{
		{"head=70", corrupt("head", 70)},
		{"n=9", corrupt("n", 9)},
		{"accepted=4", corrupt("accepted", 4)},
		{"exchange_overhead without counts", histogram("exchange_overhead", `{"bounds":[1,2,3],"counts":[]}`)},
		{"md_exec one count short", histogram("md_exec", `{"bounds":[1,2,3],"counts":[0,0,0],"sum":0,"count":0}`)},
		{"md_exec null", histogram("md_exec", `null`)},
		{"exchange_overhead bounds out of order", histogram("exchange_overhead", `{"bounds":[1,3,2],"counts":[0,0,0,0]}`)},
	} {
		col := analysis.New(analysis.Config{DimSizes: []int{2}, Replicas: 2, WindowEvents: 4})
		col.Apply(pairEvent(0, 0, true))
		if err := col.Restore(tc.state); err == nil {
			t.Errorf("corrupt %s accepted by Restore", tc.what)
		}
		// The rejected state left the collector as it was, and usable: the
		// next events must not index a histogram the state made too short.
		col.Apply(core.ExchangeEvent{Event: 1, Slots: []int{1, 0}, EXWall: 2.5})
		col.Apply(core.MDEvent{Exec: 2.5})
		if st := col.Snapshot(); st.Events != 2 || st.Acceptance[0][0].Attempted != 1 || st.MDExec.Count != 1 {
			t.Errorf("corrupt %s: collector state after the rejection: %+v", tc.what, st)
		}
	}
}

// TestWeightedRatio: the attempt-weighted mean over pairs.
func TestWeightedRatio(t *testing.T) {
	pairs := []analysis.PairStat{
		{Attempted: 8, Accepted: 4},
		{Attempted: 2, Accepted: 2},
		{Attempted: 0, Accepted: 0},
	}
	if got := analysis.WeightedRatio(pairs); got != 0.6 {
		t.Fatalf("weighted ratio %v, want 0.6", got)
	}
	if got := analysis.WeightedRatio(nil); got != 0 {
		t.Fatalf("empty weighted ratio %v, want 0", got)
	}
}

// TestPairWindowsShareFewChunks: a 1 024-rung ladder's pair windows take
// their storage from a few chunks, not an allocation each, and no two
// windows share any: each pair's rolling ratio matches its own outcomes.
func TestPairWindowsShareFewChunks(t *testing.T) {
	const n, events = 1024, 100
	col := analysis.New(analysis.Config{DimSizes: []int{n}, Replicas: n, WindowEvents: 16})
	accepted := func(lo, e int) bool { return (lo*7+e)%(lo%5+2) == 0 }
	evs := make([]core.Event, events)
	for e := range evs {
		ev := core.ExchangeEvent{Event: e}
		for lo := e % 2; lo+1 < n; lo += 2 {
			ev.Pairs = append(ev.Pairs, core.PairOutcome{Lo: lo, Hi: lo + 1, Accepted: accepted(lo, e)})
		}
		evs[e] = ev
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ev := range evs {
		col.Apply(ev)
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > 16 {
		t.Errorf("%d allocations for the windows of %d pairs, want the 8 chunks", got, n-1)
	}
	win := col.Snapshot().AcceptanceWindow[0]
	for lo := 0; lo+1 < n; lo++ {
		var want analysis.PairStat
		for e := events - 1; e >= 0 && want.Attempted < 16; e-- {
			if e%2 == lo%2 {
				want.Attempted++
				if accepted(lo, e) {
					want.Accepted++
				}
			}
		}
		if win[lo] != want {
			t.Fatalf("pair (%d,%d) window %+v, want %+v", lo, lo+1, win[lo], want)
		}
	}
}
