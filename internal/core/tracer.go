package core

import (
	"repro/internal/task"
	"repro/internal/trace"
)

// This file is the dispatcher's flight-recorder side: every record*
// helper is a no-op without an attached Spec.Tracer (a nil Recorder's
// Record returns at once), and none of them touches the RNG stream or
// the virtual clock — recording can reorder nothing and delay nothing,
// which is what keeps a traced run bit-identical to an untraced one
// (see TestTracerDoesNotPerturbRun).

// recordMD emits one MD-segment span at the segment's final processing:
// first submission to final completion, spanning every relaunch retry
// in between. Failed terminal segments (replica dropped) carry the
// "failed" label.
func (s *Simulation) recordMD(f *mdFlight) {
	// Once per completion: skip building the span on untraced runs.
	if s.tracer == nil {
		return
	}
	res, r := &f.res, s.replicas[f.id]
	sp := trace.Span{
		Kind:    trace.KindMD,
		Start:   f.start,
		Dur:     res.Finished - f.start,
		Replica: r.ID,
		Dim:     int(f.dim),
		Pilot:   res.Pilot,
		Retries: int(f.infra + f.rel),
	}
	if res.Failed() {
		// finishMD left Cycle at the failed segment's index.
		sp.Event = r.Cycle
		sp.Label = "failed"
	} else {
		sp.Event = r.Cycle - 1
	}
	s.tracer.Record(sp)
}

// recordExchange emits the whole-phase exchange span of one fired
// event.
func (s *Simulation) recordExchange(event, dim int, start float64, rec *CycleRecord) {
	s.tracer.Record(trace.Span{
		Kind:     trace.KindExchange,
		Start:    start,
		Dur:      s.rt.Now() - start,
		Dim:      dim,
		Event:    event,
		Pairs:    rec.Attempted,
		Accepted: rec.Accepted,
	})
}

// recordSPE emits the single-point-energy task-wave sub-span of one
// exchange phase (salt dimensions submit one SPE task per replica).
func (s *Simulation) recordSPE(dim, event, tasks int, start float64) {
	s.tracer.Record(trace.Span{
		Kind:  trace.KindSPE,
		Start: start,
		Dur:   s.rt.Now() - start,
		Dim:   dim,
		Event: event,
		Pairs: tasks,
	})
}

// recordPairs emits the Metropolis pair-sweep sub-span of one exchange
// phase: one serial pass in pair order, each pair drawing its uniform,
// computing its probability, deciding and swapping. The sweep consumes
// no virtual time, so the span is usually an instant marking where in
// the phase it happened.
func (s *Simulation) recordPairs(dim, event, pairs, accepted int, start float64) {
	s.tracer.Record(trace.Span{
		Kind:     trace.KindPairs,
		Start:    start,
		Dur:      s.rt.Now() - start,
		Dim:      dim,
		Event:    event,
		Pairs:    pairs,
		Accepted: accepted,
	})
}

// recordController emits one feedback-controller decision span right
// after the trigger's ObserveExchange ran its control step for the
// fired dimension. Non-feedback policies record nothing.
func (s *Simulation) recordController(fb *FeedbackTrigger, dim, event int) {
	// DimStatus takes the trigger's mutex: not on untraced runs.
	if s.tracer == nil || fb == nil {
		return
	}
	st := fb.DimStatus(dim)
	sp := trace.Span{
		Kind:     trace.KindController,
		Start:    s.rt.Now(),
		Dim:      dim,
		Event:    event,
		Pairs:    st.Outcomes,
		Window:   st.Window,
		Measured: st.Measured,
		MinReady: st.MinReady,
	}
	if st.Saturated {
		sp.Label = "saturated"
	}
	s.tracer.Record(sp)
}

// recordRespace emits one ladder re-fit instant on the dimension's
// controller track; Retries carries the dimension's refit ordinal.
func (s *Simulation) recordRespace(dim, event, refit int) {
	s.tracer.Record(trace.Span{
		Kind:    trace.KindRespace,
		Start:   s.rt.Now(),
		Dim:     dim,
		Event:   event,
		Retries: refit,
	})
}

// recordCheckpoint emits one snapshot-write span (instant in virtual
// time: capture and delivery consume no simulated clock).
func (s *Simulation) recordCheckpoint(events int, label string) {
	s.tracer.Record(trace.Span{
		Kind:  trace.KindCheckpoint,
		Start: s.rt.Now(),
		Event: events,
		Label: label,
	})
}

// recordResource emits one pilot lifecycle instant on the pilot's
// track (launch, shrink, preempt, resize, expire).
func (s *Simulation) recordResource(ev task.ResourceEvent) {
	s.tracer.Record(trace.Span{
		Kind:  trace.KindResource,
		Start: ev.At,
		Pilot: ev.Pilot,
		Pairs: ev.Cores,
		Label: ev.Kind,
	})
}

// recordFault emits one fault-action instant on the replica's track.
func (s *Simulation) recordFault(replica int, kind string, retries int) {
	s.tracer.Record(trace.Span{
		Kind:    trace.KindFault,
		Start:   s.rt.Now(),
		Replica: replica,
		Retries: retries,
		Label:   kind,
	})
}
