package core

import (
	"sync/atomic"
	"time"
)

// LoopPhases names the parts of a run's wall clock that
// Simulation.LoopSeconds reports, in its order:
//
//   - setup: core.New through the first MD submission;
//   - await: waiting in the runtime for completions (the kernel, or the
//     real MD, runs meanwhile), a fire-at-deadline's sleep, and the
//     orchestrator's own sleeps: its preparation overheads and the
//     exchange tasks' awaits (pause and resume, two clock reads a sleep);
//   - complete: processing delivered completions, and the barrier's
//     deferred absorption at its fire;
//   - decide: a fire's resubmission to MD and the policy's next round;
//   - exchange: the exchange phase (single-point tasks, pair pass,
//     swaps);
//   - publish: the fire's record, slot history, bus records and drained
//     resource events;
//   - snapshot: capturing, encoding and writing a checkpoint;
//   - respace: the ladder refit check and any refit.
//
// Every fire is timed exactly, and so is the loop as a whole; the rest
// of the loop is await and complete. A wakeup is timed when it waits for
// loopSample completions or more (a batching runtime, task.BatchAwaiter),
// or once in loopSample wakeups, and a wakeup that delivered loopSample
// completions or more has its complete phase timed from its return. The wall time between timed points is
// split into await and complete in the ratio the sampled wakeups
// measured, so the phases always add up to the run's wall clock.
var LoopPhases = [...]string{"setup", "await", "complete", "decide", "exchange", "publish", "snapshot", "respace"}

// The indices of LoopPhases.
const (
	phaseSetup = iota
	phaseAwait
	phaseComplete
	phaseDecide
	phaseExchange
	phasePublish
	phaseSnapshot
	phaseRespace
)

// LoopSeconds is a run's wall clock in seconds, by LoopPhases index.
type LoopSeconds [len(LoopPhases)]float64

// loopSample is the sampling period of per-completion wakeups: a clock
// read costs about as much as a twentieth of a virtual completion, so
// reading one a wakeup would show in the run it measures.
const loopSample = 64

// loopClock is a run's phase clock. Only the dispatcher's goroutine
// writes it; ns is read concurrently (Simulation.LoopSeconds).
type loopClock struct {
	ns [len(LoopPhases)]atomic.Int64
	// mark is the last clock read: the wall time since it is not charged
	// to any phase yet.
	mark time.Time
	// wakeups counts the loop's waits; sampled holds the await and
	// complete time of the sampled ones, the ratio split charges by.
	wakeups int
	sampled [2]time.Duration
	// held is wall time read as a sleep began (pause): it belongs to the
	// phase in progress, and the next lap or split charges it there.
	held time.Duration
}

// read returns the wall time since the last read and moves the mark.
func (c *loopClock) read() time.Duration {
	now := time.Now()
	d := now.Sub(c.mark)
	c.mark = now
	return d
}

// lap charges the wall time since the last read, and any held, to phase.
func (c *loopClock) lap(phase int) {
	c.ns[phase].Add(int64(c.read() + c.held))
	c.held = 0
}

// pause and resume bracket one of the orchestrator's own sleeps in the
// runtime: the wall time before it is held for the phase in progress,
// and the time inside it, in which the kernel runs everyone else's
// events, is charged to await.
func (c *loopClock) pause()  { c.held += c.read() }
func (c *loopClock) resume() { c.ns[phaseAwait].Add(int64(c.read())) }

// sample charges the wall time since the last read to phase, await or
// complete, and counts it towards their ratio.
func (c *loopClock) sample(phase int) {
	d := c.read()
	c.ns[phase].Add(int64(d))
	c.sampled[phase-phaseAwait] += d
}

// split charges the wall time since the last read, spent in wakeups
// that were not timed, to await and complete in the sampled ratio (all
// to await before any sample).
func (c *loopClock) split() {
	d := c.read() + c.held
	c.held = 0
	a := d
	if total := c.sampled[0] + c.sampled[1]; total > 0 {
		a = time.Duration(float64(d) * float64(c.sampled[0]) / float64(total))
	}
	c.ns[phaseAwait].Add(int64(a))
	c.ns[phaseComplete].Add(int64(d - a))
}

// LoopSeconds returns the run's wall clock so far by phase (see
// LoopPhases). It is safe to call while the run is going.
func (s *Simulation) LoopSeconds() LoopSeconds {
	var out LoopSeconds
	for i := range out {
		out[i] = time.Duration(s.clock.ns[i].Load()).Seconds()
	}
	return out
}
