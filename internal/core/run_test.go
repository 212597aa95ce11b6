package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/pilot"
	"repro/internal/sim"
)

// runVirtualCtx is runVirtual with a caller-supplied context and no
// fatal error handling: cancellation tests need the partial report, the
// final run state (read off the returned error, the way a run's owner
// records it) and the error itself.
func runVirtualCtx(t *testing.T, ctx context.Context, spec *core.Spec, cfg cluster.Config, cores, natoms int) (*core.Report, core.RunState, error) {
	t.Helper()
	env := sim.NewEnv()
	cl := cluster.MustNew(env, cfg, spec.Seed+1)
	pl, err := pilot.Launch(cl, pilot.Description{Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	eng := engines.NewAmberVirtual(natoms, spec.Seed+2)
	var report *core.Report
	var state core.RunState
	var runErr error
	env.Go("emm", func(p *sim.Proc) {
		rt := pilot.NewRuntime(pl, p)
		simu, err := core.New(spec, eng, rt)
		if err != nil {
			runErr = err
			return
		}
		report, runErr = simu.RunContext(ctx)
		switch {
		case runErr == nil:
			state = core.RunCompleted
		case errors.Is(runErr, core.ErrRunCancelled):
			state = core.RunCancelled
		default:
			state = core.RunFailed
		}
	})
	env.Run()
	return report, state, runErr
}

func TestRunStateMachine(t *testing.T) {
	rep, state, err := runVirtualCtx(t, context.Background(), smallTREMD(4, 2), quietCluster(), 4, 2881)
	if err != nil {
		t.Fatal(err)
	}
	if state != core.RunCompleted {
		t.Fatalf("state after clean run %v, want completed", state)
	}
	if rep.CancelledUnits != 0 {
		t.Fatalf("clean run discarded %d units", rep.CancelledUnits)
	}
	// State names are the status-payload vocabulary; terminality drives
	// registry bookkeeping.
	names := map[core.RunState]string{
		core.RunPending: "pending", core.RunRunning: "running",
		core.RunCompleted: "completed", core.RunFailed: "failed",
		core.RunCancelled: "cancelled",
	}
	for st, want := range names {
		if st.String() != want {
			t.Fatalf("state %d renders %q, want %q", st, st.String(), want)
		}
		wantTerm := st != core.RunPending && st != core.RunRunning
		if st.Terminal() != wantTerm {
			t.Fatalf("state %v terminal=%v, want %v", st, st.Terminal(), wantTerm)
		}
	}
}

func TestCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var snaps []*core.Snapshot
	spec := smallTREMD(4, 2)
	spec.OnSnapshot = func(sn *core.Snapshot) { snaps = append(snaps, sn) }
	rep, state, err := runVirtualCtx(t, ctx, spec, quietCluster(), 4, 2881)
	if !errors.Is(err, core.ErrRunCancelled) {
		t.Fatalf("pre-cancelled context returned %v, want ErrRunCancelled", err)
	}
	if state != core.RunCancelled {
		t.Fatalf("state %v, want cancelled", state)
	}
	if rep.ExchangeEvents != 0 {
		t.Fatalf("%d exchange events fired under a pre-cancelled context", rep.ExchangeEvents)
	}
	if len(snaps) != 1 || snaps[0].Events != 0 {
		t.Fatalf("want one boundary snapshot at event 0, got %d", len(snaps))
	}
}

// TestCancelledRunResumesBitExactBarrier is the tentpole acceptance
// test on the synchronous path: a run cancelled mid-flight leaves a
// final snapshot that, resumed, reproduces the uninterrupted run's slot
// history bit for bit. Cancellation is injected from inside OnSnapshot
// — which the dispatcher invokes at the exchange-event boundary — so
// the cancel lands at a deterministic event.
func TestCancelledRunResumesBitExactBarrier(t *testing.T) {
	full := runVirtual(t, smallTREMD(8, 4), quietCluster(), 8, 2881)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snaps []*core.Snapshot
	spec := smallTREMD(8, 4)
	spec.SnapshotEvery = 2
	spec.OnSnapshot = func(sn *core.Snapshot) {
		snaps = append(snaps, sn)
		cancel()
	}
	rep, state, err := runVirtualCtx(t, ctx, spec, quietCluster(), 8, 2881)
	if !errors.Is(err, core.ErrRunCancelled) {
		t.Fatalf("cancelled run returned %v, want ErrRunCancelled", err)
	}
	if state != core.RunCancelled {
		t.Fatalf("state %v, want cancelled", state)
	}
	if rep == nil || rep.ExchangeEvents != 2 {
		t.Fatalf("cancelled at the event-2 boundary, report says %+v", rep)
	}
	// The periodic snapshot triggered the cancel; the forced boundary
	// snapshot follows at the same event with identical state.
	final := snaps[len(snaps)-1]
	if final.Events != 2 {
		t.Fatalf("final snapshot at event %d, want 2", final.Events)
	}

	data, err := final.Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	resumedSpec := smallTREMD(8, 4)
	resumedSpec.Resume = snap
	resumed := runVirtual(t, resumedSpec, quietCluster(), 8, 2881)
	if resumed.ExchangeEvents != full.ExchangeEvents {
		t.Fatalf("resumed run fired %d events, uninterrupted %d",
			resumed.ExchangeEvents, full.ExchangeEvents)
	}
	if historyFingerprint(resumed.SlotHistory) != historyFingerprint(full.SlotHistory) {
		t.Fatalf("resume after cancel diverged from the uninterrupted run:\nfull    %v\nresumed %v",
			full.SlotHistory, resumed.SlotHistory)
	}
}

// TestCancelledRunResumesBitExactAsync covers the non-aligned path,
// where cancellation after an exchange event must leave a snapshot that
// resumes exactly like a periodic one. The spec mirrors
// TestFeedbackResumeDeterminism — the feedback trigger is the
// asynchronous policy with snapshot-deterministic resume (count-style
// ready-subset policies reconstruct a different post-resume completion
// interleaving with or without cancellation).
func TestCancelledRunResumesBitExactAsync(t *testing.T) {
	full := runVirtual(t, asyncFeedbackSpec(), quietCluster(), 8, 2881)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snaps []*core.Snapshot
	spec := asyncFeedbackSpec()
	spec.SnapshotEvery = 3
	spec.OnSnapshot = func(sn *core.Snapshot) {
		snaps = append(snaps, sn)
		cancel()
	}
	rep, state, err := runVirtualCtx(t, ctx, spec, quietCluster(), 8, 2881)
	if !errors.Is(err, core.ErrRunCancelled) {
		t.Fatalf("cancelled run returned %v, want ErrRunCancelled", err)
	}
	if state != core.RunCancelled {
		t.Fatalf("state %v, want cancelled", state)
	}
	if rep.ExchangeEvents != 3 {
		t.Fatalf("cancelled at the event-3 boundary, report fired %d", rep.ExchangeEvents)
	}

	final := snaps[len(snaps)-1]
	data, err := final.Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	resumedSpec := asyncFeedbackSpec()
	resumedSpec.Resume = snap
	resumed := runVirtual(t, resumedSpec, quietCluster(), 8, 2881)
	if resumed.ExchangeEvents != full.ExchangeEvents {
		t.Fatalf("resumed run fired %d events, uninterrupted %d",
			resumed.ExchangeEvents, full.ExchangeEvents)
	}
	if historyFingerprint(resumed.SlotHistory) != historyFingerprint(full.SlotHistory) {
		t.Fatalf("async resume after cancel diverged:\nfull    %v\nresumed %v",
			full.SlotHistory, resumed.SlotHistory)
	}
}

func asyncFeedbackSpec() *core.Spec {
	tr := core.NewFeedbackTrigger(150)
	tr.Target = 0.5
	tr.WindowEvents = 12
	return &core.Spec{
		Name:            "cancel-async",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 8)}},
		Pattern:         core.PatternAsynchronous,
		Trigger:         tr,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          8,
		AsyncWindow:     150,
		Seed:            21,
	}
}

// TestCancelDrainsInFlightSegments oversubscribes the pilot (8 replicas
// on 4 cores) so exchange events fire with MD segments genuinely in
// flight: cancellation must await and discard them — never absorb them
// into replica state — count them, and publish one cancelled fault
// event each. The final snapshot stays valid and resumable; the redone
// segments mean the resumed interleaving differs from the uninterrupted
// one, exactly as it would for a kill+restart from a periodic snapshot
// of the same boundary (snapshots deliberately do not record in-flight
// progress).
func TestCancelDrainsInFlightSegments(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snaps []*core.Snapshot
	spec := asyncFeedbackSpec()
	spec.SnapshotEvery = 1
	spec.OnSnapshot = func(sn *core.Snapshot) {
		snaps = append(snaps, sn)
		cancel()
	}
	bus := core.NewBus()
	sub := bus.Subscribe(1 << 14)
	spec.Bus = bus
	rep, state, err := runVirtualCtx(t, ctx, spec, quietCluster(), 4, 2881)
	if !errors.Is(err, core.ErrRunCancelled) {
		t.Fatalf("cancelled run returned %v, want ErrRunCancelled", err)
	}
	if state != core.RunCancelled {
		t.Fatalf("state %v, want cancelled", state)
	}
	if rep.CancelledUnits == 0 {
		t.Fatal("oversubscribed async cancel drained no in-flight segments; expected > 0")
	}
	cancelledEvents := 0
	for _, rec := range sub.Drain(nil) {
		if f, ok := rec.Other.(core.FaultEvent); ok && f.Kind == core.FaultKindCancelled {
			cancelledEvents++
		}
	}
	if cancelledEvents != rep.CancelledUnits {
		t.Fatalf("%d cancelled fault events on the bus, report counted %d",
			cancelledEvents, rep.CancelledUnits)
	}

	// The snapshot was captured before the drain, so it is exactly the
	// boundary state: resuming it must run to completion.
	final := snaps[len(snaps)-1]
	data, err := final.Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	resumedSpec := asyncFeedbackSpec()
	resumedSpec.Resume = snap
	resumed := runVirtual(t, resumedSpec, quietCluster(), 4, 2881)
	if resumed.ExchangeEvents <= final.Events {
		t.Fatalf("resume made no progress past the cancel boundary: %d events", resumed.ExchangeEvents)
	}
}

func TestBusUnsubscribe(t *testing.T) {
	bus := core.NewBus()
	keep := bus.Subscribe(8)
	gone := bus.Subscribe(8)
	bus.PublishBatch([]core.Event{core.MDEvent{At: 1}})
	bus.Unsubscribe(gone)
	bus.Unsubscribe(gone) // double-remove is a no-op
	bus.Unsubscribe(nil)
	bus.PublishBatch([]core.Event{core.MDEvent{At: 2}})
	if n := len(keep.Drain(nil)); n != 2 {
		t.Fatalf("surviving subscriber saw %d events, want 2", n)
	}
	if n := len(gone.Drain(nil)); n != 1 {
		t.Fatalf("unsubscribed ring holds %d events, want only the pre-unsubscribe 1", n)
	}
}
