package core_test

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// TestBusRingOverflowDropsOldest: a ring holds the newest events up to
// its capacity, whether it was filled in one go, grew on the way there
// (the ring doubles with its backlog) or is refilled after a drain.
func TestBusRingOverflowDropsOldest(t *testing.T) {
	for _, c := range []struct{ capacity, published int }{{4, 10}, {200, 150}, {200, 250}} {
		bus := core.NewBus()
		sub := bus.Subscribe(c.capacity)
		for round := 0; round < 2; round++ {
			for i := 0; i < c.published; i++ {
				bus.PublishBatch([]core.Event{core.MDEvent{At: float64(i), Replica: i}})
			}
			got := sub.Drain(nil)
			kept := min(c.capacity, c.published)
			if len(got) != kept {
				t.Fatalf("drained %d of %d events from a %d-slot ring, want %d", len(got), c.published, c.capacity, kept)
			}
			for i, rec := range got {
				if want := c.published - kept + i; rec.Other != nil || rec.MD.Replica != want {
					t.Fatalf("record %d is %+v, want MD replica %d (oldest must be dropped first)",
						i, rec, want)
				}
			}
			if want := uint64((round + 1) * (c.published - kept)); sub.Dropped() != want {
				t.Fatalf("dropped %d, want %d", sub.Dropped(), want)
			}
			if want := uint64((round + 1) * c.published); bus.Published() != want {
				t.Fatalf("published %d, want %d", bus.Published(), want)
			}
			if again := sub.Drain(nil); len(again) != 0 {
				t.Fatalf("second drain returned %d events, want 0", len(again))
			}
		}
	}
}

// TestDrainThroughOneBuffer drains a subscription again and again
// through one fixed buffer, as a caller may: the buffer becomes the ring
// at one drain and is passed back at the next, so Drain must copy the
// records out of it rather than hand it back cleared, and the records a
// drain returned must not change when more are published. Every other
// round overflows the ring, so it is also drained wrapped.
func TestDrainThroughOneBuffer(t *testing.T) {
	bus := core.NewBus()
	sub := bus.Subscribe(4)
	buf := make([]core.BusRecord, 0, 16)
	var got []core.BusRecord
	var want []int // the replicas got should hold
	check := func(round int, when string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("round %d %s: drained %d records, want %d", round, when, len(got), len(want))
		}
		for i, rec := range got {
			if rec.MD.Replica != want[i] {
				t.Fatalf("round %d %s: record %d is replica %d, want %d", round, when, i, rec.MD.Replica, want[i])
			}
		}
	}
	next := 0
	for round := 0; round < 8; round++ {
		published := 3
		if round%2 == 1 {
			published = 10
		}
		for i := 0; i < published; i++ {
			bus.PublishBatch([]core.Event{core.MDEvent{Replica: next}})
			next++
		}
		if round > 0 {
			check(round-1, "after more publications")
		}
		got = sub.Drain(buf[:0])
		want = want[:0]
		for i := next - min(published, 4); i < next; i++ {
			want = append(want, i)
		}
		check(round, "at the drain")
	}
}

// TestStalledSubscriberDoesNotPerturbGoldenRun is the non-blocking
// guarantee of the event bus: a subscriber that never drains its
// (tiny) ring must not change the golden BarrierTrigger output in any
// way — same exchanges, same makespan, same slot history.
func TestStalledSubscriberDoesNotPerturbGoldenRun(t *testing.T) {
	spec := goldenTREMDSpec()
	spec.Bus = core.NewBus()
	sub := spec.Bus.Subscribe(2) // deliberately stalled: never drained
	rep := runVirtual(t, spec, cluster.SuperMIC(), 8, 2881)

	att, acc := sumExchanges(rep)
	if att != 14 || acc != 5 {
		t.Fatalf("exchanges %d/%d with stalled subscriber, golden 5/14", acc, att)
	}
	if math.Abs(rep.Makespan()-625.788863) > 1e-4 {
		t.Fatalf("makespan %.6f with stalled subscriber, golden 625.788863", rep.Makespan())
	}
	if fp := historyFingerprint(rep.SlotHistory); fp != 0xc1c22324216858e1 {
		t.Fatalf("slot-history fingerprint %#x with stalled subscriber, golden 0xc1c22324216858e1", fp)
	}
	if sub.Dropped() == 0 {
		t.Fatal("stalled 2-slot subscriber dropped nothing: the stall was not exercised")
	}
}

func TestBusDeliversEventStream(t *testing.T) {
	spec := smallTREMD(8, 3)
	spec.Bus = core.NewBus()
	sub := spec.Bus.Subscribe(4096)
	rep := runVirtual(t, spec, quietCluster(), 8, 2881)

	var mds, exs int
	var lastEx core.ExchangeEvent
	nextEvent := 0
	for _, rec := range sub.Drain(nil) {
		switch e := rec.Other.(type) {
		case nil:
			mds++
			if rec.MD.Failed {
				t.Fatalf("failed MD event on a quiet cluster: %+v", rec.MD)
			}
		case core.ExchangeEvent:
			if e.Event != nextEvent {
				t.Fatalf("exchange event index %d, want %d (sequential)", e.Event, nextEvent)
			}
			nextEvent++
			exs++
			lastEx = e
		case core.FaultEvent:
			t.Fatalf("fault event on a quiet cluster: %+v", e)
		}
	}
	wantMD := 0
	for _, rec := range rep.Records {
		wantMD += rec.MD.Tasks
	}
	if mds != wantMD {
		t.Fatalf("%d MD events, want %d (one per processed segment)", mds, wantMD)
	}
	if exs != rep.ExchangeEvents {
		t.Fatalf("%d exchange events, want %d", exs, rep.ExchangeEvents)
	}
	// The final event's slots are the final slot assignment, and its
	// pair outcomes sum to the record's counts.
	final := rep.SlotHistory[len(rep.SlotHistory)-1]
	for i, slot := range lastEx.Slots {
		if slot != final[i] {
			t.Fatalf("final exchange event slots %v, history row %v", lastEx.Slots, final)
		}
	}
	att, acc := 0, 0
	for _, p := range lastEx.Pairs {
		if p.Hi != p.Lo+1 {
			t.Fatalf("pair %+v not adjacent with all replicas alive", p)
		}
		att++
		if p.Accepted {
			acc++
		}
	}
	lastRec := rep.Records[len(rep.Records)-1]
	if att != lastRec.Attempted || acc != lastRec.Accepted {
		t.Fatalf("final event pairs %d/%d, record %d/%d", acc, att, lastRec.Accepted, lastRec.Attempted)
	}
}

func TestNoBusMeansNoPublications(t *testing.T) {
	// A nil Spec.Bus must be completely inert (and Published on a nil
	// bus must be safe for status readers).
	var b *core.Bus
	if b.Published() != 0 {
		t.Fatal("nil bus reports publications")
	}
	spec := smallTREMD(4, 2)
	runVirtual(t, spec, quietCluster(), 4, 2881) // would panic on a nil-deref
}
