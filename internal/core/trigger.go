package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/jsonx"
	"repro/internal/ring"
	"repro/internal/task"
)

// TriggerState is the dispatcher bookkeeping snapshot handed to trigger
// policies when they are consulted.
type TriggerState struct {
	// Now is the runtime clock.
	Now float64
	// Pending counts replicas whose MD segment is still executing.
	Pending int
	// Ready counts replicas that have completed their MD segment and
	// await an exchange.
	Ready int
	// ReadyBudget counts the ready replicas that still have MD segments
	// left after the next exchange (i.e. waiting for a window boundary
	// is not pointless).
	ReadyBudget int
	// Alive counts live replicas.
	Alive int
	// Dim is the exchange dimension the next fire will exchange along.
	// Multi-dimensional grids rotate dimensions round-robin, and
	// per-dimension policies (FeedbackTrigger) pick that dimension's
	// actuator settings from it.
	Dim int
}

// TriggerDecision is a trigger policy's verdict for the current
// dispatcher state.
type TriggerDecision int

const (
	// TriggerWait keeps collecting MD completions.
	TriggerWait TriggerDecision = iota
	// TriggerFire runs the exchange step now.
	TriggerFire
	// TriggerFireAtDeadline idles the orchestrator until the policy's
	// deadline (the window boundary) and then runs the exchange step —
	// the utilization cost of fixed-window asynchronous RE (§4.6).
	TriggerFireAtDeadline
)

// Trigger is a pluggable exchange-trigger criterion: the policy deciding
// *when* replicas transition from the MD phase to the exchange phase.
// The paper's two Replica Exchange Patterns are the two canonical
// policies (BarrierTrigger for synchronous, WindowTrigger for
// asynchronous); CountTrigger, AdaptiveTrigger and FeedbackTrigger
// extend the taxonomy. All policies drive the same event-driven
// dispatcher loop (dispatcher.run).
type Trigger interface {
	// Name identifies the policy in reports.
	Name() string
	// Aligned reports a global-barrier policy: the dispatcher then waits
	// for the full replica set, processes MD results in submission order
	// and uses synchronous (cycle, dimension) accounting. Non-aligned
	// policies exchange among ready subsets with free-running accounting.
	Aligned() bool
	// Deadline returns the absolute runtime time until which the
	// dispatcher may block waiting for completions; +Inf blocks until
	// the next completion.
	Deadline(st TriggerState) float64
	// Decide is consulted whenever the dispatcher state changes (after
	// completions are absorbed, or after the deadline passes with none).
	Decide(st TriggerState) TriggerDecision
	// Observe is invoked for every completed MD segment, letting
	// adaptive policies track execution-time statistics.
	Observe(res task.Result)
	// Reset begins a new collection round; called once when the run
	// starts and again after every exchange step.
	Reset(st TriggerState)
}

// ExchangeObserver is an optional Trigger extension: a policy that also
// implements it is fed every completed exchange event's outcomes by the
// dispatcher, synchronously and independently of Spec.Bus. This is the
// feedback path of closed-loop policies (FeedbackTrigger): unlike a bus
// subscription, the hook cannot drop events, so resumed runs replay the
// same controller inputs deterministically.
type ExchangeObserver interface {
	// ObserveExchange is invoked right after the dispatcher publishes an
	// exchange event, before the next collection round opens. The event
	// (including its Pairs and Slots slices) is shared with other
	// consumers and must not be mutated or retained.
	ObserveExchange(ev ExchangeEvent)
}

// LatencyObserver is an optional Trigger extension: a policy that also
// implements it is fed each MD segment's completion latency — first
// submission to final successful completion, including every relaunch
// retry and any queueing delay. This is the dispersion signal
// window-adapting policies (AdaptiveTrigger, FeedbackTrigger's warm-up)
// track: the raw per-attempt exec times Observe sees miss fault-driven
// delay entirely, so a flaky replica would never widen the window.
type LatencyObserver interface {
	// ObserveLatency is invoked once per finally-completed MD segment
	// with its completion latency in runtime seconds.
	ObserveLatency(latency float64)
}

// StatefulTrigger is an optional Trigger extension for policies whose
// accumulated controller state must survive checkpoint/restart (e.g.
// FeedbackTrigger's rolling outcome window and controlled window
// length). The dispatcher embeds EncodeState's bytes in each Snapshot
// and replays them through RestoreState on resume, so a resumed run
// makes the same trigger decisions as the uninterrupted one.
type StatefulTrigger interface {
	Trigger
	// EncodeState serializes the controller state.
	EncodeState() ([]byte, error)
	// RestoreState replaces the controller state with one produced by
	// EncodeState.
	RestoreState(data []byte) error
}

// ---------------------------------------------------------------------------
// The two families' shared halves.

// untimed is the part of Trigger the completion-driven policies
// (BarrierTrigger, CountTrigger) share: no deadline, nothing to observe
// and no round state to reset.
type untimed struct{}

// Deadline is +Inf: the policy waits for the next completion.
func (untimed) Deadline(TriggerState) float64 { return math.Inf(1) }

// Observe is a no-op.
func (untimed) Observe(task.Result) {}

// Reset is a no-op.
func (untimed) Reset(TriggerState) {}

// windowed is the boundary bookkeeping the window family (WindowTrigger,
// AdaptiveTrigger, FeedbackTrigger) shares: each policy's Reset sets
// windowEnd, the boundary of the window it opens.
type windowed struct {
	windowEnd float64
}

// Aligned reports false: windows exchange among ready subsets.
func (w *windowed) Aligned() bool { return false }

// Deadline is the current window boundary.
func (w *windowed) Deadline(TriggerState) float64 { return w.windowEnd }

// Observe is a no-op: the window-adapting policies are fed completion
// latencies through ObserveLatency instead, so fault-driven relaunch
// delay widens the window (raw per-attempt exec times would miss it).
func (w *windowed) Observe(task.Result) {}

// ---------------------------------------------------------------------------
// BarrierTrigger: the synchronous pattern.

// BarrierTrigger fires only when every alive replica has finished its MD
// segment: the paper's synchronous RE pattern (global barrier after the
// MD phase and after the exchange phase).
type BarrierTrigger struct{ untimed }

// NewBarrierTrigger returns the synchronous-pattern policy.
func NewBarrierTrigger() *BarrierTrigger { return &BarrierTrigger{} }

// Name identifies the policy.
func (t *BarrierTrigger) Name() string { return "barrier" }

// Aligned reports true: the barrier is a phase-aligned policy.
func (t *BarrierTrigger) Aligned() bool { return true }

// Decide fires once no MD segment is outstanding.
func (t *BarrierTrigger) Decide(st TriggerState) TriggerDecision {
	if st.Pending == 0 {
		return TriggerFire
	}
	return TriggerWait
}

// ---------------------------------------------------------------------------
// WindowTrigger: the asynchronous pattern.

// WindowTrigger fires at fixed real-time window boundaries: the paper's
// asynchronous RE pattern (§3.2.1, Figure 1b). Replicas that finished
// their MD segment when the window closes exchange among themselves
// while the rest keep simulating. A positive MinReady additionally fires
// as soon as that many replicas are ready, before the boundary.
type WindowTrigger struct {
	// Window is the real-time period in runtime seconds.
	Window float64
	// MinReady, when positive, triggers an exchange before the window
	// expires once that many replicas are ready.
	MinReady int

	windowed
}

// NewWindowTrigger returns the asynchronous-pattern policy.
func NewWindowTrigger(window float64, minReady int) *WindowTrigger {
	return &WindowTrigger{Window: window, MinReady: minReady}
}

// Validate rejects parameterizations that cannot make progress.
func (t *WindowTrigger) Validate() error {
	if t.Window <= 0 {
		return fmt.Errorf("window trigger requires a positive window, got %g", t.Window)
	}
	return nil
}

// Name identifies the policy.
func (t *WindowTrigger) Name() string { return "window" }

// Decide fires at the window boundary, early once MinReady replicas are
// ready, or immediately when nothing is left to wait for.
func (t *WindowTrigger) Decide(st TriggerState) TriggerDecision {
	return windowDecision(st, t.windowEnd, t.MinReady)
}

// Reset opens the next window.
func (t *WindowTrigger) Reset(st TriggerState) { t.windowEnd = st.Now + t.Window }

// windowDecision is the fire rule shared by the window-style policies:
// fire early once minReady replicas are ready, fire at the window
// boundary, idle to the boundary when every running segment has
// finished but replicas will resubmit, and flush immediately when
// nothing is left to wait for.
func windowDecision(st TriggerState, windowEnd float64, minReady int) TriggerDecision {
	if minReady > 0 && st.Ready >= minReady && st.Ready >= 2 {
		return TriggerFire
	}
	if st.Now >= windowEnd {
		return TriggerFire
	}
	if st.Pending == 0 {
		if st.ReadyBudget == 0 {
			// Final flush: no replica will resubmit, so idling to the
			// boundary would be pure waste.
			return TriggerFire
		}
		// Pure window criterion: ready replicas idle until the boundary
		// even though every running MD segment has finished — the
		// utilization cost of fixed-window asynchronous RE (§4.6).
		return TriggerFireAtDeadline
	}
	return TriggerWait
}

// ---------------------------------------------------------------------------
// CountTrigger: exchange as soon as N replicas are ready.

// CountTrigger fires as soon as Count replicas are ready, with no
// real-time window at all: the "number of replicas" transition criterion
// from the paper's flexibility argument. Lagging replicas never block
// the exchange and ready replicas never idle at a boundary.
type CountTrigger struct {
	// Count is the ready-replica threshold (values below 2 behave as 2,
	// the smallest exchangeable subset).
	Count int

	untimed
}

// NewCountTrigger returns a count-criterion policy.
func NewCountTrigger(count int) *CountTrigger { return &CountTrigger{Count: count} }

// Name identifies the policy.
func (t *CountTrigger) Name() string { return "count" }

// Aligned reports false: counts exchange among ready subsets.
func (t *CountTrigger) Aligned() bool { return false }

// Decide fires at the threshold, or when no MD segment is outstanding
// (so the tail of a run always drains).
func (t *CountTrigger) Decide(st TriggerState) TriggerDecision {
	n := t.Count
	if n < 2 {
		n = 2
	}
	if st.Ready >= n {
		return TriggerFire
	}
	if st.Pending == 0 {
		return TriggerFire
	}
	return TriggerWait
}

// ---------------------------------------------------------------------------
// AdaptiveTrigger: a window that tracks observed MD-time dispersion.

// execStats is a Welford accumulator over completed MD segments'
// completion latencies (submission to final completion, including
// relaunch retries): the dispersion estimate behind the adaptive window
// (AdaptiveTrigger, and FeedbackTrigger's warm-up fallback). The
// dispatcher feeds it through the LatencyObserver hook.
type execStats struct {
	n        int
	mean, m2 float64
}

// add folds one completion latency in.
func (e *execStats) add(x float64) {
	e.n++
	d := x - e.mean
	e.mean += d / float64(e.n)
	e.m2 += d * (x - e.mean)
}

// check rejects a restored accumulator that no sequence of add calls
// leaves behind (its window would be NaN).
func (e *execStats) check() error {
	if e.n < 0 || e.m2 < 0 {
		return fmt.Errorf("dispersion state n=%d m2=%g is invalid", e.n, e.m2)
	}
	return nil
}

// window returns mean + gain·stddev clamped to [lo, hi], or initial
// until two segments were observed.
func (e *execStats) window(initial, gain, lo, hi float64) float64 {
	if e.n < 2 {
		return initial
	}
	sigma := math.Sqrt(e.m2 / float64(e.n-1))
	return math.Min(math.Max(e.mean+gain*sigma, lo), hi)
}

// AdaptiveTrigger is a window trigger whose period adapts to the
// observed MD completion latencies (including relaunch retries): the
// window is mean + 2·stddev of the segments seen so far, clamped to
// [Initial/4, Initial·4]. Under uniform
// replica performance the window shrinks towards the mean segment time
// (fast exchanges, little idling); under heterogeneous or jittery
// performance it grows so that most replicas make each exchange — the
// flexible transition criterion the paper argues patterns should expose.
type AdaptiveTrigger struct {
	// Initial is the window used until enough segments were observed.
	Initial float64
	// MinReady, when positive, fires early once that many replicas are
	// ready (as in WindowTrigger).
	MinReady int

	stats execStats

	windowed
}

// NewAdaptiveTrigger returns an adaptive-window policy starting from the
// given initial window.
func NewAdaptiveTrigger(initial float64) *AdaptiveTrigger {
	return &AdaptiveTrigger{Initial: initial}
}

// Validate rejects parameterizations that cannot make progress.
func (t *AdaptiveTrigger) Validate() error {
	if t.Initial <= 0 {
		return fmt.Errorf("adaptive trigger requires a positive initial window, got %g", t.Initial)
	}
	return nil
}

// Name identifies the policy.
func (t *AdaptiveTrigger) Name() string { return "adaptive" }

// Decide mirrors WindowTrigger against the adapted boundary.
func (t *AdaptiveTrigger) Decide(st TriggerState) TriggerDecision {
	return windowDecision(st, t.windowEnd, t.MinReady)
}

// ObserveLatency folds a completed MD segment's completion latency —
// including relaunch retries — into the dispersion estimate
// (LatencyObserver).
func (t *AdaptiveTrigger) ObserveLatency(latency float64) { t.stats.add(latency) }

// dispersionGain is the σ multiplier of the adaptive window (and of the
// feedback trigger's warm-up window): mean + 2σ covers most replicas of
// a jittery ensemble.
const dispersionGain = 2

// window returns the current adapted window length.
func (t *AdaptiveTrigger) window() float64 {
	return t.stats.window(t.Initial, dispersionGain, t.Initial/4, t.Initial*4)
}

// Reset opens the next window at the adapted length.
func (t *AdaptiveTrigger) Reset(st TriggerState) { t.windowEnd = st.Now + t.window() }

// adaptiveLayout is the adaptive trigger's state: its dispersion
// estimate.
var adaptiveLayout = jsonx.NewLayout(
	jsonx.Int("n", func(t *AdaptiveTrigger) *int { return &t.stats.n }),
	jsonx.Float("mean", func(t *AdaptiveTrigger) *float64 { return &t.stats.mean }),
	jsonx.Float("m2", func(t *AdaptiveTrigger) *float64 { return &t.stats.m2 }),
)

// EncodeState serializes the dispersion estimate (StatefulTrigger), so
// a resumed adaptive run reopens its window at the adapted length
// instead of falling back to Initial.
func (t *AdaptiveTrigger) EncodeState() ([]byte, error) { return adaptiveLayout.Encode(nil, t) }

// RestoreState replaces the dispersion estimate with one produced by
// EncodeState (StatefulTrigger). Unknown keys are skipped.
func (t *AdaptiveTrigger) RestoreState(data []byte) error {
	var read AdaptiveTrigger
	if _, err := adaptiveLayout.Decode(data, &read); err != nil {
		return fmt.Errorf("core: decoding adaptive trigger state: %v", err)
	}
	if err := read.stats.check(); err != nil {
		return fmt.Errorf("core: adaptive trigger %v", err)
	}
	t.stats = read.stats
	return nil
}

// ---------------------------------------------------------------------------
// FeedbackTrigger: closed-loop acceptance control.

// DefaultTargetAcceptance is FeedbackTrigger's default acceptance-ratio
// set point, in the band REMD practice aims exchange ladders at.
const DefaultTargetAcceptance = 0.3

// DefaultWindowEvents is the default rolling-window depth per neighbour
// pair: FeedbackTrigger's measurement window and the analysis
// collector's AcceptanceWindow.
const DefaultWindowEvents = 64

// DefaultMaxRetries is the relaunch budget per replica that New gives a
// spec leaving MaxRetries 0.
const DefaultMaxRetries = 3

// FeedbackTrigger is a window trigger that closes the loop on the
// quantity REMD is actually judged by: the neighbour-pair acceptance
// ratio. The dispatcher feeds it every exchange event's outcomes
// through the ExchangeObserver hook, and it runs one independent PI
// controller per exchange dimension: a temperature ladder and an
// umbrella ladder have very different natural acceptance, so a
// multi-dimensional grid (the paper's TSU/TUU runs) must not steer
// both with one blended measurement. Each dimension owns a rolling
// measurement ring of its last WindowEvents true-neighbour outcomes
// and an actuator pair — the exchange window opened before that
// dimension's fires, plus a steered MinReady threshold — and the
// control step is
//
//	window *= 1 + 1.5·err + 0.1·∑err,   err = target − measured
//
// clamped per step to [0.5, 2] and overall to [Initial/8, Initial·8]
// (wider than AdaptiveTrigger's, since the controller is expected to
// explore). Measured acceptance below the target widens the window —
// more replicas make each exchange, ready subsets stay contiguous and
// fewer attempts straddle window gaps — while acceptance above it
// narrows the window so ready replicas exchange (and re-enter MD)
// sooner. The integral term
// removes the steady-state error a pure-P controller leaves inside the
// deadband; it accumulates only while the window is strictly inside
// its clamps (anti-windup), so a long saturated stretch cannot wind up
// a correction that would overshoot for dozens of events after
// conditions change.
//
// When a dimension's window is pinned at a clamp for SaturationSteps
// consecutive control steps with the error still outside the deadband,
// the plant cannot reach the set point — typically the ladder spacing
// yields a natural acceptance far from the target. Instead of silently
// parking, the controller raises a per-dimension saturation diagnostic
// (ControllerStatus, surfaced on /status and as the
// repex_feedback_saturated{dim} gauge) and engages its second
// actuator: pinned wide with acceptance still below target it disables
// early firing (MinReady 0) so every boundary collects the largest
// possible subset; pinned narrow with acceptance still above target it
// drops MinReady to 2 so exchanges fire the moment an exchangeable
// pair exists. The diagnostic clears as soon as the measurement
// returns to the deadband or the window comes off its clamp.
//
// A deadband of ±0.02 around the target provides hysteresis so
// measurement noise does not jitter the window, and gap pairs (Hi > Lo+1,
// bridging dead replicas or ready-subset holes) never enter the
// measurement, so the controller cannot chase dead-replica artifacts.
// Until a dimension's ring has filled once, that dimension falls back
// to AdaptiveTrigger behaviour: the window tracks mean + 2σ of the
// observed MD execution times, giving the controller a sane operating
// point to take over from.
type FeedbackTrigger struct {
	// Initial is the window used until enough data accumulates.
	Initial float64
	// Target is the acceptance-ratio set point shared by every
	// dimension without a per-dimension override (default
	// DefaultTargetAcceptance).
	Target float64
	// Targets optionally overrides the set point per exchange
	// dimension (index = dimension index); entries <= 0 fall back to
	// Target. A nil slice applies Target everywhere.
	Targets []float64
	// WindowEvents is the rolling measurement window: the number of
	// recent neighbour-pair outcomes each dimension's acceptance is
	// computed over (default DefaultWindowEvents).
	WindowEvents int
	// SaturationSteps is the number of consecutive clamp-pinned control
	// steps after which a dimension raises its saturation diagnostic
	// (default 8).
	SaturationSteps int
	// MinReady, when positive, fires early once that many replicas are
	// ready (as in WindowTrigger). It is the base value of the second
	// actuator: saturated dimensions override it until they recover.
	MinReady int

	// mu guards warm and dims: the dispatcher mutates them between
	// events while status readers (the live HTTP server) snapshot
	// ControllerStatus concurrently.
	mu sync.Mutex

	// warm is the warm-up dispersion estimate over observed MD
	// execution times (the AdaptiveTrigger fallback). MD segment times
	// are not dimension-specific, so it is shared.
	warm execStats

	// dims holds one controller per exchange dimension, grown lazily as
	// dimensions are observed.
	dims []feedbackDim

	windowed
}

// feedbackDim is one dimension's controller state.
type feedbackDim struct {
	// win is the rolling ring of this dimension's neighbour-pair
	// outcomes, the same structure the analysis collector keeps per
	// pair.
	win ring.Bool
	// cur is the controlled window length; valid once active.
	cur    float64
	active bool
	// integ is the accumulated acceptance error (the I term), clamped
	// to ±feedbackIntegralClamp.
	integ float64
	// satRun counts consecutive control steps pinned at a clamp with
	// the error outside the deadband; saturated raises at
	// SaturationSteps.
	satRun    int
	saturated bool
	// minReadyOverride is the second actuator: -1 follows the base
	// MinReady, otherwise it replaces it while the dimension is
	// saturated.
	minReadyOverride int
}

// FeedbackDimStatus is one dimension's controller state as exposed to
// status surfaces (cmd/repex /status, the repex_feedback_* gauges).
type FeedbackDimStatus struct {
	// Dim is the exchange dimension index.
	Dim int `json:"dim"`
	// Target is the dimension's acceptance set point.
	Target float64 `json:"target"`
	// Measured is the rolling acceptance over Outcomes buffered
	// outcomes (0 while empty).
	Measured float64 `json:"measured"`
	Outcomes int     `json:"outcomes"`
	// Window is the exchange window the next fire along this dimension
	// would open.
	Window float64 `json:"window_sec"`
	// MinReady is the dimension's effective early-fire threshold after
	// second-actuator steering.
	MinReady int `json:"min_ready"`
	// Integral is the accumulated acceptance error (the I term).
	Integral float64 `json:"integral"`
	// Active reports that the measurement ring has filled and the
	// controller has taken over from the warm-up window.
	Active bool `json:"active"`
	// Saturated reports the ladder-spacing diagnostic: the window is
	// pinned at a clamp and the target remains unreachable.
	Saturated bool `json:"saturated"`
	// SatSteps counts the consecutive clamp-pinned control steps behind
	// Saturated (the respace planner waits for it to exceed its own,
	// longer threshold before re-fitting the ladder).
	SatSteps int `json:"sat_steps,omitempty"`
}

// NewFeedbackTrigger returns an acceptance-targeting policy starting
// from the given initial window.
func NewFeedbackTrigger(initial float64) *FeedbackTrigger {
	return &FeedbackTrigger{Initial: initial}
}

// Validate rejects parameterizations that cannot make progress.
func (t *FeedbackTrigger) Validate() error {
	if t.Initial <= 0 {
		return fmt.Errorf("feedback trigger requires a positive initial window, got %g", t.Initial)
	}
	if t.Target < 0 || t.Target >= 1 {
		return fmt.Errorf("feedback trigger target acceptance %g outside [0, 1) (0 selects the default %g)",
			t.Target, DefaultTargetAcceptance)
	}
	for d, v := range t.Targets {
		if v < 0 || v >= 1 {
			return fmt.Errorf("feedback trigger dimension-%d target acceptance %g outside [0, 1)", d, v)
		}
	}
	if t.WindowEvents < 0 {
		return fmt.Errorf("feedback trigger window events must be non-negative, got %d", t.WindowEvents)
	}
	if t.SaturationSteps < 0 {
		return fmt.Errorf("feedback trigger saturation steps must be non-negative, got %d", t.SaturationSteps)
	}
	return nil
}

// Name identifies the policy.
func (t *FeedbackTrigger) Name() string { return "feedback" }

// Decide mirrors WindowTrigger against the controlled boundary of the
// upcoming dimension, with one closed-loop refinement: when no MD
// segment is outstanding the exchange fires immediately instead of
// idling to the boundary. The window exists to gather more
// participants per exchange — once nothing more can arrive, waiting
// cannot raise acceptance, only burn allocation.
func (t *FeedbackTrigger) Decide(st TriggerState) TriggerDecision {
	if st.Pending == 0 {
		return TriggerFire
	}
	t.mu.Lock()
	minReady := t.dim(st.Dim).effectiveMinReady(t.MinReady)
	t.mu.Unlock()
	return windowDecision(st, t.windowEnd, minReady)
}

// effectiveMinReady resolves the second actuator: the saturation
// override when set, the configured base otherwise.
func (d *feedbackDim) effectiveMinReady(base int) int {
	if d.minReadyOverride >= 0 {
		return d.minReadyOverride
	}
	return base
}

// ObserveLatency folds a completed MD segment's completion latency —
// including relaunch retries — into the warm-up dispersion estimate (the
// AdaptiveTrigger fallback).
func (t *FeedbackTrigger) ObserveLatency(latency float64) {
	t.mu.Lock()
	t.warm.add(latency)
	t.mu.Unlock()
}

// dim returns dimension d's controller, growing the per-dimension
// state as higher dimensions are first observed. Callers hold mu.
func (t *FeedbackTrigger) dim(d int) *feedbackDim {
	if d < 0 {
		d = 0
	}
	for len(t.dims) <= d {
		t.dims = append(t.dims, feedbackDim{minReadyOverride: -1})
	}
	return &t.dims[d]
}

// ObserveExchange feeds the exchange event's true-neighbour outcomes
// into its dimension's rolling measurement ring and, once that ring
// has filled, applies one PI control step to that dimension's
// actuators. Gap pairs (Hi > Lo+1) are excluded, and events
// contributing no fresh neighbour outcome apply no step — stale
// measurements must not keep pushing the window.
func (t *FeedbackTrigger) ObserveExchange(ev ExchangeEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	dd := t.dim(ev.Dim)
	fresh := false
	for _, p := range ev.Pairs {
		if p.Hi != p.Lo+1 {
			continue
		}
		dd.win.Push(p.Accepted, t.windowEvents())
		fresh = true
	}
	if !dd.active && dd.win.N > 0 && dd.win.N == len(dd.win.Outcomes) {
		// The measurement ring filled for the first time: this
		// dimension's controller takes over from the warm-up window.
		dd.active = true
		dd.cur = t.warmWindow()
	}
	if !dd.active || !fresh {
		return
	}
	t.controlStep(ev.Dim, dd)
}

// The control law's tuning. No caller ever set these, so they are
// constants of the law rather than options of the trigger.
const (
	// feedbackGain is the proportional gain: relative window change per
	// unit of acceptance error.
	feedbackGain = 1.5
	// feedbackIntegralGain is the relative window change per unit of
	// accumulated acceptance error; feedbackIntegralClamp bounds that
	// accumulation (anti-windup).
	feedbackIntegralGain  = 0.1
	feedbackIntegralClamp = 3
	// feedbackDeadband is the hysteresis half-width: errors within it
	// leave the window unchanged.
	feedbackDeadband = 0.02
)

// controlStep applies one PI step to dimension d's actuators; callers
// hold mu and have verified the controller is active with fresh
// evidence.
func (t *FeedbackTrigger) controlStep(d int, dd *feedbackDim) {
	err := t.target(d) - float64(dd.win.Accepted)/float64(dd.win.N)
	if math.Abs(err) <= feedbackDeadband {
		// On target: stand down the diagnostic and the second actuator.
		// The integral is kept — it encodes the steady-state correction
		// that brought the error inside the deadband.
		dd.satRun, dd.saturated, dd.minReadyOverride = 0, false, -1
		return
	}
	factor := 1 + feedbackGain*err + feedbackIntegralGain*dd.integ
	// Bound a single step: one noisy window must not collapse or
	// explode the operating point.
	factor = math.Min(math.Max(factor, 0.5), 2)
	lo, hi := t.clamps()
	next := math.Min(math.Max(dd.cur*factor, lo), hi)
	if (next == hi && err > 0) || (next == lo && err < 0) {
		// Pinned at a clamp with the error still pushing outward: the
		// set point is unreachable from here. Freeze the integral
		// (anti-windup) and, after SaturationSteps consecutive pinned
		// steps, raise the ladder-spacing diagnostic and engage the
		// MinReady actuator.
		dd.satRun++
		if dd.satRun >= t.saturationSteps() {
			dd.saturated = true
			if err > 0 {
				// Even the widest window cannot buy enough acceptance:
				// disable early fires so every boundary collects the
				// largest possible subset.
				dd.minReadyOverride = 0
			} else {
				// Even the narrowest window leaves acceptance above
				// target: fire the moment a pair can exchange.
				dd.minReadyOverride = 2
			}
		}
	} else {
		dd.integ = math.Min(math.Max(dd.integ+err, -feedbackIntegralClamp), feedbackIntegralClamp)
		dd.satRun, dd.saturated, dd.minReadyOverride = 0, false, -1
	}
	dd.cur = next
}

// windowFor returns the window length the next Reset would open for
// exchange dimension d; callers hold mu.
func (t *FeedbackTrigger) windowFor(d int) float64 {
	dd := t.dim(d)
	if dd.active {
		return dd.cur
	}
	return t.warmWindow()
}

// ControllerStatus snapshots every observed dimension's controller
// state for status surfaces. Safe for concurrent use with a running
// dispatcher (the live HTTP server polls it mid-run).
func (t *FeedbackTrigger) ControllerStatus() []FeedbackDimStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]FeedbackDimStatus, len(t.dims))
	for d := range t.dims {
		out[d] = t.dimStatus(d)
	}
	return out
}

// DimStatus snapshots one dimension's controller state; dimensions the
// controller has not observed yet report a zero status. Safe for
// concurrent use like ControllerStatus.
func (t *FeedbackTrigger) DimStatus(d int) FeedbackDimStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d < 0 || d >= len(t.dims) {
		return FeedbackDimStatus{Dim: d}
	}
	return t.dimStatus(d)
}

// ResetDim discards one dimension's controller state — measurement
// ring, integral, saturation run and second-actuator override — so the
// controller re-warms against a freshly re-fitted ladder instead of
// steering from measurements of the grid that no longer exists. The
// dispatcher calls it immediately after an online respace; resetting a
// dimension the controller has not observed is a no-op.
func (t *FeedbackTrigger) ResetDim(d int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d < 0 || d >= len(t.dims) {
		return
	}
	t.dims[d] = feedbackDim{minReadyOverride: -1}
}

// dimStatus builds dimension d's status with mu held; d must be in
// range.
func (t *FeedbackTrigger) dimStatus(d int) FeedbackDimStatus {
	dd := &t.dims[d]
	st := FeedbackDimStatus{
		Dim:       d,
		Target:    t.target(d),
		Outcomes:  dd.win.N,
		Window:    t.windowFor(d),
		MinReady:  dd.effectiveMinReady(t.MinReady),
		Integral:  dd.integ,
		Active:    dd.active,
		Saturated: dd.saturated,
		SatSteps:  dd.satRun,
	}
	if dd.win.N > 0 {
		st.Measured = float64(dd.win.Accepted) / float64(dd.win.N)
	}
	return st
}

// target resolves dimension d's set point: the per-dimension override
// when given, Target otherwise, DefaultTargetAcceptance when neither.
func (t *FeedbackTrigger) target(d int) float64 {
	if d >= 0 && d < len(t.Targets) && t.Targets[d] > 0 {
		return t.Targets[d]
	}
	return orDefault(t.Target, DefaultTargetAcceptance)
}

// orDefault resolves a parameter whose zero (or negative) value selects
// its documented default.
func orDefault[T int | float64](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

func (t *FeedbackTrigger) saturationSteps() int { return orDefault(t.SaturationSteps, 8) }
func (t *FeedbackTrigger) windowEvents() int    { return orDefault(t.WindowEvents, DefaultWindowEvents) }

// clamps bounds the controlled window around the initial one.
func (t *FeedbackTrigger) clamps() (lo, hi float64) { return t.Initial / 8, t.Initial * 8 }

// warmWindow is the AdaptiveTrigger-style fallback: mean + 2σ of the
// observed MD execution times, clamped.
func (t *FeedbackTrigger) warmWindow() float64 {
	lo, hi := t.clamps()
	return t.warm.window(t.Initial, dispersionGain, lo, hi)
}

// Reset opens the next window at the upcoming dimension's controlled
// (or warm-up) length.
func (t *FeedbackTrigger) Reset(st TriggerState) {
	t.mu.Lock()
	t.windowEnd = st.Now + t.windowFor(st.Dim)
	t.mu.Unlock()
}

// The feedback trigger's state: one controller a dimension, then the
// shared warm-up estimate. A dimension's zero fields are left out,
// except the override: its -1 is "follow the base MinReady" and its 0 a
// setting. Its measurement ring is written oldest first and read back
// as a plain list, which RestoreState re-rings.
var (
	feedbackDimLayout = jsonx.NewLayout(
		jsonx.Custom("outcomes",
			func(w *jsonx.Writer, dd *feedbackDim) {
				jsonx.WriteArray(w, dd.win.Linear(), false, (*jsonx.Writer).Bool)
			},
			func(r *jsonx.Reader, dd *feedbackDim) {
				dd.win.Outcomes = jsonx.ReadArray(r, new([]bool), (*jsonx.Reader).Bool)
			},
			func(dd *feedbackDim) bool { return dd.win.N == 0 }).OmitEmpty(),
		jsonx.Float("cur", func(dd *feedbackDim) *float64 { return &dd.cur }).OmitEmpty(),
		jsonx.Bool("active", func(dd *feedbackDim) *bool { return &dd.active }).OmitEmpty(),
		jsonx.Float("integ", func(dd *feedbackDim) *float64 { return &dd.integ }).OmitEmpty(),
		jsonx.Int("sat_run", func(dd *feedbackDim) *int { return &dd.satRun }).OmitEmpty(),
		jsonx.Bool("saturated", func(dd *feedbackDim) *bool { return &dd.saturated }).OmitEmpty(),
		jsonx.Int("min_ready_override", func(dd *feedbackDim) *int { return &dd.minReadyOverride }),
	)
	feedbackLayout = jsonx.NewLayout(
		jsonx.At("dims", func(t *FeedbackTrigger) *[]feedbackDim { return &t.dims },
			jsonx.Array(jsonx.Object(feedbackDimLayout), false)).OmitEmpty(),
		jsonx.Int("warm_n", func(t *FeedbackTrigger) *int { return &t.warm.n }),
		jsonx.Float("warm_mean", func(t *FeedbackTrigger) *float64 { return &t.warm.mean }),
		jsonx.Float("warm_m2", func(t *FeedbackTrigger) *float64 { return &t.warm.m2 }),
	)
)

// EncodeState serializes the controller state (StatefulTrigger).
func (t *FeedbackTrigger) EncodeState() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return feedbackLayout.Encode(nil, t)
}

// RestoreState replaces the controller state with one produced by
// EncodeState (StatefulTrigger), dropping outcomes beyond this
// trigger's WindowEvents oldest-first.
func (t *FeedbackTrigger) RestoreState(data []byte) error {
	// The controllers are read aside and swapped in only on success, so
	// a caller that handles the error keeps a consistent trigger instead
	// of a half-restored one.
	var read FeedbackTrigger
	unknown, err := feedbackLayout.Decode(data, &read)
	if err != nil {
		return fmt.Errorf("core: decoding feedback trigger state: %v", err)
	}
	// Strict: state with fields this build does not know (the
	// single-controller layout of snapshot format 1) is an error, never a
	// silently empty controller.
	if unknown != nil {
		return fmt.Errorf("core: decoding feedback trigger state: unknown field %q", unknown)
	}
	if err := read.warm.check(); err != nil {
		return fmt.Errorf("core: feedback trigger warm-up %v", err)
	}
	for d := range read.dims {
		dd := &read.dims[d]
		if dd.active && dd.cur <= 0 {
			return fmt.Errorf("core: feedback trigger state for dimension %d is active with window %g", d, dd.cur)
		}
		if dd.minReadyOverride < -1 {
			return fmt.Errorf("core: feedback trigger state for dimension %d has min-ready override %d", d, dd.minReadyOverride)
		}
		outcomes := dd.win.Outcomes
		dd.win = ring.Bool{}
		for _, v := range outcomes {
			dd.win.Push(v, t.windowEvents())
		}
	}
	t.mu.Lock()
	t.dims, t.warm = read.dims, read.warm
	t.mu.Unlock()
	return nil
}
