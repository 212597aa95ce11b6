// Package analysis implements online exchange statistics for a running
// REMD simulation: per-neighbour-pair acceptance ratios per dimension,
// per-replica slot random walks with round-trip times through the
// ladder, an end-to-end mixing metric (fraction of replicas that
// traversed the full ladder) and rolling MD/exchange overhead
// histograms. A Collector consumes the typed event bus published by the
// dispatcher (core.Bus) through a bounded subscription, so it can run
// behind a live HTTP status server without ever touching the hot loop.
//
// All collector state is serializable: EncodeState/Restore round-trip it
// through core.Snapshot's Analysis field, so statistics survive
// checkpoint/restart exactly. To keep that exactness, the collector's
// internal clock is the exchange-event index, not virtual seconds — a
// resumed run replays the same event sequence even though its absolute
// runtime times shift by a fresh batch-queue wait.
//
// The rolling per-pair windows (Stats.AcceptanceWindow, the last
// WindowEvents outcomes of each neighbour pair) are the observable
// counterpart of the signal core.FeedbackTrigger steers on: the
// trigger measures per dimension over the same ring structure
// (internal/ring), so the dashboard's rolling view and the
// controller's measurement cannot drift apart.
package analysis

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/jsonx"
	"repro/internal/respace"
	"repro/internal/ring"
	"repro/internal/task"
)

// Config sizes a Collector for one simulation.
type Config struct {
	// DimSizes is the number of windows along each exchange dimension.
	DimSizes []int
	// Replicas is the total replica count (product of DimSizes).
	Replicas int
	// TraceLen bounds the per-replica slot-trace tail kept for
	// inspection (default 64; snapshots grow with it).
	TraceLen int
	// WindowEvents is the rolling-window depth of the per-pair
	// acceptance statistics: the last WindowEvents outcomes of each
	// neighbour pair (default core.DefaultWindowEvents). Cumulative ratios
	// answer "how did the run go"; windowed ratios answer "how is it
	// going right now" — the signal a feedback trigger consumes.
	WindowEvents int
}

// ConfigFromSpec derives the collector configuration from a simulation
// spec.
func ConfigFromSpec(spec *core.Spec) Config {
	sizes := make([]int, len(spec.Dims))
	for i, d := range spec.Dims {
		sizes[i] = len(d.Values)
	}
	return Config{DimSizes: sizes, Replicas: spec.Replicas()}
}

// DefaultSecondsBounds are the bucket upper bounds of the MD and
// exchange overhead histograms: milliseconds (localexec) to hours
// (virtual supercomputer cycles).
var DefaultSecondsBounds = []float64{
	0.001, 0.01, 0.1, 1, 10, 30, 60, 120, 300, 600, 1800, 3600,
}

// PairStat counts the exchange attempts of one neighbour pair.
type PairStat struct {
	Attempted uint64 `json:"attempted"`
	Accepted  uint64 `json:"accepted"`
}

// Ratio returns accepted/attempted (0 if never attempted).
func (p PairStat) Ratio() float64 {
	if p.Attempted == 0 {
		return 0
	}
	return float64(p.Accepted) / float64(p.Attempted)
}

// windowStat summarizes one pair's rolling window as a PairStat
// (attempted = buffered outcomes). The window itself is the shared
// ring.Bool, the same structure core.FeedbackTrigger measures on.
func windowStat(r *ring.Bool) PairStat {
	return PairStat{Attempted: uint64(r.N), Accepted: uint64(r.Accepted)}
}

// Histogram is a fixed-bound histogram in the Prometheus style: Counts
// has one bucket per bound plus a final overflow (+Inf) bucket.
type Histogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// NewHistogram builds an empty histogram over the given bucket bounds.
func NewHistogram(bounds []float64) Histogram {
	return Histogram{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.Bounds) && v > h.Bounds[i] {
		i++
	}
	h.Counts[i]++
	h.Sum += v
	h.Count++
}

// walk is one replica's random-walk state through the flattened slot
// ladder (slot 0 = bottom, nSlots-1 = top). The collector's clock for
// round trips is the exchange-event index: the initial assignment is
// time 0 and exchange event e completes at time e+1.
type walk struct {
	// Slot is the replica's current slot.
	Slot int `json:"slot"`
	// StartEnd is the endpoint the current round started at (-1 none,
	// 0 bottom, 1 top); StartAt its event time (last unarmed touch).
	StartEnd int `json:"start_end"`
	StartAt  int `json:"start_at"`
	// Armed marks that the opposite endpoint was visited since StartAt.
	Armed bool `json:"armed,omitempty"`
	// SeenBottom/SeenTop feed the full-traversal mixing metric.
	SeenBottom bool `json:"seen_bottom,omitempty"`
	SeenTop    bool `json:"seen_top,omitempty"`
	// RoundTrips counts completed endpoint-to-endpoint-and-back
	// traversals; TripEvents sums their durations in exchange events.
	RoundTrips int `json:"round_trips,omitempty"`
	TripEvents int `json:"trip_events,omitempty"`
	// Trace is the tail window of recent slots (after each event).
	Trace []int `json:"trace,omitempty"`
}

// state is the complete serializable collector state.
type state struct {
	Events      int               `json:"events"`
	MDSegments  int               `json:"md_segments"`
	MDFailures  int               `json:"md_failures"`
	Faults      map[string]uint64 `json:"faults"`
	Pairs       [][]PairStat      `json:"pairs"`
	PairWindows [][]ring.Bool     `json:"pair_windows,omitempty"`
	Walks       []walk            `json:"walks"`
	MDExec      Histogram         `json:"md_exec"`
	ExchangeOvh Histogram         `json:"exchange_overhead"`
	// ResourceEvents counts pilot lifecycle events, Preemptions the
	// preemption notices among them; PilotCores is the cores currently
	// held per routing slot, the running sum of the events' deltas (nil
	// until a resource event arrives — quiet runs publish none). It is
	// not serialized: the pilots a snapshot counted die with the process
	// that wrote it, and a resumed run's own launches rebuild the gauge.
	ResourceEvents uint64      `json:"resource_events,omitempty"`
	Preemptions    uint64      `json:"preemptions,omitempty"`
	PilotCores     map[int]int `json:"-"`
}

// Collector accumulates online statistics from simulation events. All
// methods are safe for concurrent use; a live HTTP server can read while
// the simulation publishes.
type Collector struct {
	mu      sync.Mutex
	cfg     Config
	sub     *core.Subscription
	scratch []core.BusRecord
	st      state
	// traceCap is the per-walk capacity of the trace arena, the one block
	// of memory every walk's trace lives in (0 before the first event).
	traceCap int
}

// New builds a collector for the given configuration. Replica i is
// assumed to start in slot i (the simulation's initial assignment);
// Restore overwrites this for resumed runs.
func New(cfg Config) *Collector {
	if cfg.TraceLen <= 0 {
		cfg.TraceLen = 64
	}
	if cfg.WindowEvents <= 0 {
		cfg.WindowEvents = core.DefaultWindowEvents
	}
	c := &Collector{cfg: cfg}
	c.st = state{
		Faults:      map[string]uint64{},
		Pairs:       make([][]PairStat, len(cfg.DimSizes)),
		PairWindows: make([][]ring.Bool, len(cfg.DimSizes)),
		Walks:       make([]walk, cfg.Replicas),
		MDExec:      NewHistogram(DefaultSecondsBounds),
		ExchangeOvh: NewHistogram(DefaultSecondsBounds),
	}
	for d, n := range cfg.DimSizes {
		if n > 1 {
			c.st.Pairs[d] = make([]PairStat, n-1)
			c.st.PairWindows[d] = make([]ring.Bool, n-1)
		}
	}
	for i := range c.st.Walks {
		w := &c.st.Walks[i]
		w.Slot = i
		w.StartEnd = -1
		c.touchEndpoint(w, 0)
	}
	return c
}

// Attach subscribes the collector to a bus with the given ring capacity
// (Bus.Subscribe's default when non-positive). Call Sync to drain.
//
// The ring must cover every event published between two Syncs or the
// oldest are lost (Stats.BusDropped counts them). A collector that is
// only drained on demand — an HTTP scrape, a checkpoint, the final
// report — should size the ring for the whole run: see RunBuffer.
func (c *Collector) Attach(bus *core.Bus, buffer int) {
	c.mu.Lock()
	c.sub = bus.Subscribe(buffer)
	c.mu.Unlock()
}

// RunBuffer returns a ring capacity covering every event a run of the
// spec can publish — one MDEvent per segment, one ExchangeEvent per
// exchange, FaultEvents bounded by the retry budgets — so a collector
// drained only on demand still sees the complete stream. Capped at 2^20
// entries (16 MB, if the backlog ever gets there) for truly enormous
// specs; beyond that, drain periodically.
func RunBuffer(spec *core.Spec) int {
	segments := spec.Replicas() * spec.Cycles * (len(spec.Dims) + 1)
	retries := spec.MaxRetries
	if retries <= 0 {
		retries = core.DefaultMaxRetries
	}
	n := segments*(2+retries) + 4096
	if n > 1<<20 {
		n = 1 << 20
	}
	return n
}

// Sync drains the subscription and applies every pending event. It is
// called by readers (the HTTP server, the checkpoint hook) so statistics
// are current at observation time without polling goroutines.
func (c *Collector) Sync() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sub == nil {
		return
	}
	c.scratch = c.sub.Drain(c.scratch[:0])
	for i := range c.scratch {
		if rec := &c.scratch[i]; rec.Other == nil {
			c.applyMD(&rec.MD)
		} else {
			c.apply(rec.Other)
		}
	}
}

// FinalSync is Sync for a collector whose bus will publish nothing
// more: it also lets the drain buffer go, so a finished run's collector
// keeps its statistics and no copy of the records that built them.
func (c *Collector) FinalSync() {
	c.Sync()
	c.mu.Lock()
	c.scratch = nil
	c.mu.Unlock()
}

// Apply feeds one event directly (tests, or callers without a bus); an
// MDEvent takes the same by-value path as an MD record off the bus.
func (c *Collector) Apply(ev core.Event) {
	c.mu.Lock()
	c.apply(ev)
	c.mu.Unlock()
}

func (c *Collector) applyMD(e *core.MDEvent) {
	c.st.MDSegments++
	if e.Failed {
		c.st.MDFailures++
	}
	c.st.MDExec.Observe(e.Exec)
}

func (c *Collector) apply(ev core.Event) {
	switch e := ev.(type) {
	case core.MDEvent:
		c.applyMD(&e)
	case core.FaultEvent:
		c.st.Faults[e.Kind]++
		// Relaunched attempts never reach an MDEvent; their exec feeds
		// the histogram here so every attempt is observed exactly once
		// (a drop's exec arrives on its terminal MDEvent instead).
		// MDSegments/MDFailures stay final-result counters.
		if e.Kind != core.FaultKindDrop {
			c.st.MDExec.Observe(e.Exec)
		}
	case core.ResourceEvent:
		c.st.ResourceEvents++
		if c.st.PilotCores == nil {
			c.st.PilotCores = map[int]int{}
		}
		// Sum the deltas rather than copy Cores: under failover a slot's
		// replacement can launch while the retired pilot still drains, and
		// that pilot's late expire (Cores 0) says nothing about the live one.
		c.st.PilotCores[e.Pilot] += e.Delta
		if e.Kind == task.ResourcePreempt {
			c.st.Preemptions++
		}
	case core.ExchangeEvent:
		c.applyExchange(e)
	}
}

func (c *Collector) applyExchange(e core.ExchangeEvent) {
	for _, p := range e.Pairs {
		// Only true neighbour attempts feed the per-pair ladder stats;
		// pairs bridging a dead replica's window (Hi > Lo+1) would
		// pollute the (Lo, Lo+1) ratio with swaps that never involved
		// that pair.
		if p.Hi != p.Lo+1 {
			continue
		}
		if e.Dim < len(c.st.Pairs) && p.Lo >= 0 && p.Lo < len(c.st.Pairs[e.Dim]) {
			ps := &c.st.Pairs[e.Dim][p.Lo]
			ps.Attempted++
			if p.Accepted {
				ps.Accepted++
			}
			c.st.PairWindows[e.Dim][p.Lo].Push(p.Accepted, c.cfg.WindowEvents)
		}
	}
	c.st.ExchangeOvh.Observe(e.EXWall)
	c.st.Events++
	now := c.st.Events // event e completes at collector time e+1
	for id, slot := range e.Slots {
		if id >= len(c.st.Walks) {
			break
		}
		w := &c.st.Walks[id]
		w.Slot = slot
		switch {
		// >= (with trim), not ==: a Restore can hand us a trace longer
		// than this collector's TraceLen.
		case len(w.Trace) >= c.cfg.TraceLen:
			n := copy(w.Trace, w.Trace[len(w.Trace)-c.cfg.TraceLen+1:])
			w.Trace = w.Trace[:n]
		case len(w.Trace) == cap(w.Trace):
			c.growTraces(len(w.Trace) + 1)
		}
		w.Trace = append(w.Trace, slot)
		c.touchEndpoint(w, now)
	}
}

// growTraces moves every walk's trace into a new arena with room for at
// least n entries a walk: one allocation for all walks, doubling like
// append would, and never past TraceLen. A restored trace longer than the
// new block keeps its own array; it is at TraceLen already and only
// shifts from now on.
func (c *Collector) growTraces(n int) {
	size := min(max(n, 2*c.traceCap), c.cfg.TraceLen)
	arena := make([]int, size*len(c.st.Walks))
	for i := range c.st.Walks {
		w := &c.st.Walks[i]
		if len(w.Trace) <= size {
			block := arena[i*size : i*size : (i+1)*size]
			w.Trace = append(block, w.Trace...)
		}
	}
	c.traceCap = size
}

// touchEndpoint advances the round-trip state machine for a replica
// observed at its current slot at collector time t.
func (c *Collector) touchEndpoint(w *walk, t int) {
	top := c.cfg.Replicas - 1
	var end int
	switch w.Slot {
	case 0:
		end = 0
		w.SeenBottom = true
	case top:
		end = 1
		w.SeenTop = true
	default:
		return
	}
	if top == 0 {
		return // degenerate one-slot ladder
	}
	switch {
	case w.StartEnd == -1:
		w.StartEnd = end
		w.StartAt = t
	case end == w.StartEnd:
		if w.Armed {
			// Completed start -> opposite -> start: one round trip.
			w.RoundTrips++
			w.TripEvents += t - w.StartAt
			w.Armed = false
		}
		// Unarmed revisits restart the clock: a round trip is measured
		// from the last departure of the starting endpoint.
		w.StartAt = t
	default:
		w.Armed = true
	}
}

// Stats is the collector's externally visible snapshot (the /stats
// payload).
type Stats struct {
	// Events is the number of exchange events observed; MDSegments and
	// MDFailures count finally-processed MD segments.
	Events     int               `json:"events"`
	MDSegments int               `json:"md_segments"`
	MDFailures int               `json:"md_failures"`
	Faults     map[string]uint64 `json:"faults"`
	// Acceptance holds, per dimension, the per-neighbour-pair exchange
	// statistics: entry i covers the pair of windows (i, i+1).
	Acceptance [][]PairStat `json:"acceptance"`
	// AcceptanceWindow is the rolling-window counterpart of Acceptance:
	// the same pair layout, restricted to each pair's last WindowEvents
	// outcomes (Attempted is the number of outcomes currently buffered).
	AcceptanceWindow [][]PairStat `json:"acceptance_window"`
	// WindowEvents is the configured rolling-window depth.
	WindowEvents int `json:"window_events"`
	// RoundTrips counts completed ladder round trips over all replicas;
	// MeanRoundTripEvents is their mean duration in exchange events.
	RoundTrips          int     `json:"round_trips"`
	MeanRoundTripEvents float64 `json:"mean_round_trip_events"`
	// FullTraversalFraction is the fraction of replicas that have
	// visited both ends of the flattened ladder (end-to-end mixing).
	FullTraversalFraction float64 `json:"full_traversal_fraction"`
	// Slots is the current slot per replica; Traces the recent tail of
	// each replica's slot walk.
	Slots  []int   `json:"slots"`
	Traces [][]int `json:"traces,omitempty"`
	// MDExec and ExchangeOverhead are the rolling duration histograms
	// (seconds).
	MDExec           Histogram `json:"md_exec"`
	ExchangeOverhead Histogram `json:"exchange_overhead"`
	// ResourceEvents counts pilot lifecycle events observed on the bus;
	// Preemptions the preemption notices among them.
	ResourceEvents uint64 `json:"resource_events"`
	Preemptions    uint64 `json:"preemptions"`
	// PilotCores is the cores currently held per routing slot, present
	// only for runs that published resource events (elastic runtimes).
	PilotCores map[int]int `json:"pilot_cores,omitempty"`
	// BusDropped counts events this collector lost to ring overflow.
	BusDropped uint64 `json:"bus_dropped"`
}

// Snapshot syncs the subscription and returns a deep copy of the
// current statistics.
func (c *Collector) Snapshot() Stats { return c.snapshot(true) }

// SnapshotLite is Snapshot without the per-replica trace clones —
// cheaper for readers that never render them (/status, /metrics scrape
// this every few seconds).
func (c *Collector) SnapshotLite() Stats { return c.snapshot(false) }

func (c *Collector) snapshot(withTraces bool) Stats {
	c.Sync()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Events:           c.st.Events,
		MDSegments:       c.st.MDSegments,
		MDFailures:       c.st.MDFailures,
		Faults:           map[string]uint64{},
		Acceptance:       make([][]PairStat, len(c.st.Pairs)),
		AcceptanceWindow: make([][]PairStat, len(c.st.Pairs)),
		WindowEvents:     c.cfg.WindowEvents,
		Slots:            make([]int, len(c.st.Walks)),
	}
	// The traces are copied into one backing array, each capped at its
	// own length so an append on one cannot write into the next.
	var free []int
	if withTraces {
		s.Traces = make([][]int, len(c.st.Walks))
		n := 0
		for i := range c.st.Walks {
			n += len(c.st.Walks[i].Trace)
		}
		free = make([]int, n)
	}
	for k, v := range c.st.Faults {
		s.Faults[k] = v
	}
	for d, pairs := range c.st.Pairs {
		s.Acceptance[d] = append([]PairStat(nil), pairs...)
		if len(pairs) > 0 {
			ws := make([]PairStat, len(pairs))
			for i := range c.st.PairWindows[d] {
				ws[i] = windowStat(&c.st.PairWindows[d][i])
			}
			s.AcceptanceWindow[d] = ws
		}
	}
	seenBoth, tripEvents := 0, 0
	for i := range c.st.Walks {
		w := &c.st.Walks[i]
		s.Slots[i] = w.Slot
		if withTraces && len(w.Trace) > 0 {
			k := copy(free, w.Trace)
			s.Traces[i], free = free[:k:k], free[k:]
		}
		s.RoundTrips += w.RoundTrips
		tripEvents += w.TripEvents
		if w.SeenBottom && w.SeenTop {
			seenBoth++
		}
	}
	if s.RoundTrips > 0 {
		s.MeanRoundTripEvents = float64(tripEvents) / float64(s.RoundTrips)
	}
	if n := len(c.st.Walks); n > 0 {
		s.FullTraversalFraction = float64(seenBoth) / float64(n)
	}
	s.ResourceEvents = c.st.ResourceEvents
	s.Preemptions = c.st.Preemptions
	if len(c.st.PilotCores) > 0 {
		s.PilotCores = make(map[int]int, len(c.st.PilotCores))
		for k, v := range c.st.PilotCores {
			s.PilotCores[k] = v
		}
	}
	s.MDExec = cloneHistogram(c.st.MDExec)
	s.ExchangeOverhead = cloneHistogram(c.st.ExchangeOvh)
	if c.sub != nil {
		s.BusDropped = c.sub.Dropped()
	}
	return s
}

// PlanRespace implements core.RespacePlanner: it re-fits dimension dim's
// ladder (respace.Refit) from the per-pair acceptance this collector
// measured. It prefers each pair's rolling window (the same signal the
// feedback controller steers on) and falls back to the cumulative
// counts; either way every gap must have at least one measured attempt,
// otherwise there is no profile to fit and ok is false. A proposal that
// moves no rung (an already flat profile) is no proposal either — the
// dispatcher would only churn state applying it. A nil collector and a
// ladder of fewer than three rungs propose nothing.
func (c *Collector) PlanRespace(dim int, current []float64) ([]float64, bool) {
	if c == nil || len(current) < 3 {
		return nil, false
	}
	c.Sync()
	c.mu.Lock()
	ratios, ok := c.pairRatios(dim, len(current)-1)
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	next, err := respace.Refit(current, ratios)
	if err != nil || slices.Equal(next, current) {
		return nil, false
	}
	return next, true
}

// pairRatios reads dimension dim's want per-pair acceptance ratios from
// the rolling windows, or from the cumulative counts when some window is
// empty. The caller holds c.mu.
func (c *Collector) pairRatios(dim, want int) ([]float64, bool) {
	if dim < 0 || dim >= len(c.st.Pairs) || len(c.st.Pairs[dim]) != want {
		return nil, false
	}
	win := make([]PairStat, want)
	for i := range win {
		win[i] = windowStat(&c.st.PairWindows[dim][i])
	}
	if out, ok := ratios(win); ok {
		return out, true
	}
	return ratios(c.st.Pairs[dim])
}

// ratios is each pair's acceptance ratio; ok is false when some pair has
// no attempt.
func ratios(pairs []PairStat) ([]float64, bool) {
	out := make([]float64, len(pairs))
	for i, ps := range pairs {
		if ps.Attempted == 0 {
			return nil, false
		}
		out[i] = ps.Ratio()
	}
	return out, true
}

func cloneHistogram(h Histogram) Histogram {
	h.Bounds = append([]float64(nil), h.Bounds...)
	h.Counts = append([]uint64(nil), h.Counts...)
	return h
}

// The layouts of the collector state, matching the struct tags
// (TestLayoutsMatchTags).
var (
	pairLayout = jsonx.NewLayout(
		jsonx.Uint64("attempted", func(p *PairStat) *uint64 { return &p.Attempted }),
		jsonx.Uint64("accepted", func(p *PairStat) *uint64 { return &p.Accepted }),
	)
	ringLayout = jsonx.NewLayout(
		jsonx.At("outcomes", func(b *ring.Bool) *[]bool { return &b.Outcomes }, jsonx.Bools).OmitEmpty(),
		jsonx.Int("head", func(b *ring.Bool) *int { return &b.Head }).OmitEmpty(),
		jsonx.Int("n", func(b *ring.Bool) *int { return &b.N }).OmitEmpty(),
		jsonx.Int("accepted", func(b *ring.Bool) *int { return &b.Accepted }).OmitEmpty(),
	)
	walkLayout = jsonx.NewLayout(
		jsonx.Int("slot", func(k *walk) *int { return &k.Slot }),
		jsonx.Int("start_end", func(k *walk) *int { return &k.StartEnd }),
		jsonx.Int("start_at", func(k *walk) *int { return &k.StartAt }),
		jsonx.Bool("armed", func(k *walk) *bool { return &k.Armed }).OmitEmpty(),
		jsonx.Bool("seen_bottom", func(k *walk) *bool { return &k.SeenBottom }).OmitEmpty(),
		jsonx.Bool("seen_top", func(k *walk) *bool { return &k.SeenTop }).OmitEmpty(),
		jsonx.Int("round_trips", func(k *walk) *int { return &k.RoundTrips }).OmitEmpty(),
		jsonx.Int("trip_events", func(k *walk) *int { return &k.TripEvents }).OmitEmpty(),
		jsonx.At("trace", func(k *walk) *[]int { return &k.Trace }, jsonx.Ints).OmitEmpty(),
	)
	histogramLayout = jsonx.NewLayout(
		jsonx.At("bounds", func(h *Histogram) *[]float64 { return &h.Bounds }, jsonx.Floats),
		jsonx.At("counts", func(h *Histogram) *[]uint64 { return &h.Counts }, jsonx.Uint64s),
		jsonx.Float("sum", func(h *Histogram) *float64 { return &h.Sum }),
		jsonx.Uint64("count", func(h *Histogram) *uint64 { return &h.Count }),
	)
	stateLayout = jsonx.NewLayout(
		jsonx.Int("events", func(st *state) *int { return &st.Events }),
		jsonx.Int("md_segments", func(st *state) *int { return &st.MDSegments }),
		jsonx.Int("md_failures", func(st *state) *int { return &st.MDFailures }),
		jsonx.At("faults", func(st *state) *map[string]uint64 { return &st.Faults }, jsonx.Counts),
		jsonx.At("pairs", func(st *state) *[][]PairStat { return &st.Pairs }, jsonx.Grid(jsonx.Object(pairLayout), false)),
		jsonx.At("pair_windows", func(st *state) *[][]ring.Bool { return &st.PairWindows },
			jsonx.Grid(jsonx.Object(ringLayout), true)).OmitEmpty(),
		jsonx.At("walks", func(st *state) *[]walk { return &st.Walks }, jsonx.Array(jsonx.Object(walkLayout), true)),
		jsonx.At("md_exec", func(st *state) *Histogram { return &st.MDExec }, jsonx.Object(histogramLayout)),
		jsonx.At("exchange_overhead", func(st *state) *Histogram { return &st.ExchangeOvh }, jsonx.Object(histogramLayout)),
		jsonx.Uint64("resource_events", func(st *state) *uint64 { return &st.ResourceEvents }).OmitEmpty(),
		jsonx.Uint64("preemptions", func(st *state) *uint64 { return &st.Preemptions }).OmitEmpty(),
	)
)

// EncodeState syncs and serializes the full collector state for
// embedding in a core.Snapshot (the Analysis field): compact JSON, one
// line per walk, fault kinds in sorted order, so equal states encode to
// equal bytes. It fails on a NaN or infinite histogram bound or sum.
func (c *Collector) EncodeState() ([]byte, error) {
	c.Sync()
	c.mu.Lock()
	defer c.mu.Unlock()
	buf, err := stateLayout.Encode(make([]byte, 0, 4096+len(c.st.Walks)*(128+6*c.cfg.TraceLen)), &c.st)
	if err != nil {
		return nil, fmt.Errorf("analysis: encoding collector state: %v", err)
	}
	return buf, nil
}

// SeedResume aligns a fresh collector with a resumed simulation whose
// checkpoint carried no analysis state (e.g. one written without a
// collector attached): the event clock continues from the snapshot's
// counter and each walk starts from the snapshot's slot assignment
// instead of the fresh-run identity. The pre-snapshot event stream is
// genuinely lost, so acceptance ratios, round trips, traversal flags
// and histograms cover the resumed portion only — callers should say
// so.
func (c *Collector) SeedResume(sn *core.Snapshot) error {
	if len(sn.Replicas) != c.cfg.Replicas {
		return fmt.Errorf("analysis: snapshot has %d replicas, collector %d",
			len(sn.Replicas), c.cfg.Replicas)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.Events = sn.Events
	for _, rs := range sn.Replicas {
		if rs.ID < 0 || rs.ID >= len(c.st.Walks) {
			continue
		}
		w := &c.st.Walks[rs.ID]
		*w = walk{Slot: rs.Slot, StartEnd: -1}
		c.touchEndpoint(w, sn.Events)
	}
	return nil
}

// Restore replaces the collector state with one serialized by
// EncodeState (by this build, or by one that wrote it through
// encoding/json); used when resuming a checkpointed run so post-resume
// statistics continue from the pre-snapshot totals. It fails — leaving
// the collector's state as it was — on malformed or truncated input,
// bytes after the value, a fraction, exponent or overflow in an integer
// field, a key repeated within one object (encoding/json kept the
// last), a grid that is not this collector's, a corrupt pair window, a
// walk outside the ladder, and a histogram whose counts do not match
// its bounds or whose bounds are out of order. Unknown keys are skipped.
func (c *Collector) Restore(data []byte) error {
	st, err := decodeState(data)
	if err != nil {
		return fmt.Errorf("analysis: decoding collector state: %v", err)
	}
	if len(st.Walks) != c.cfg.Replicas {
		return fmt.Errorf("analysis: state has %d replicas, collector %d",
			len(st.Walks), c.cfg.Replicas)
	}
	if len(st.Pairs) != len(c.cfg.DimSizes) {
		return fmt.Errorf("analysis: state has %d dimensions, collector %d",
			len(st.Pairs), len(c.cfg.DimSizes))
	}
	if len(st.PairWindows) != len(st.Pairs) {
		return fmt.Errorf("analysis: state has %d pair-window dimensions, %d pair dimensions",
			len(st.PairWindows), len(st.Pairs))
	}
	// Same rank and replica count do not imply the same grid: a 2x6
	// checkpoint must not restore into a 3x4 collector.
	for d, n := range c.cfg.DimSizes {
		want := 0
		if n > 1 {
			want = n - 1
		}
		if len(st.Pairs[d]) != want {
			return fmt.Errorf("analysis: state has %d pairs along dimension %d, collector ladder has %d windows",
				len(st.Pairs[d]), d, n)
		}
		if len(st.PairWindows[d]) != want {
			return fmt.Errorf("analysis: state has %d pair windows along dimension %d, collector ladder has %d windows",
				len(st.PairWindows[d]), d, n)
		}
	}
	// A snapshot from a different WindowEvents configuration is re-rung,
	// keeping the newest outcomes.
	for d := range st.PairWindows {
		for i := range st.PairWindows[d] {
			// Rings come from untrusted JSON: corrupt indices would
			// panic inside Push on the first post-resume event.
			if err := st.PairWindows[d][i].Check(); err != nil {
				return fmt.Errorf("analysis: state window for pair (%d,%d) of dimension %d: %v",
					i, i+1, d, err)
			}
			st.PairWindows[d][i].Rebuild(c.cfg.WindowEvents)
		}
	}
	for i := range st.Walks {
		if s := st.Walks[i].Slot; s < 0 || s >= c.cfg.Replicas {
			return fmt.Errorf("analysis: state walk %d at slot %d, outside [0,%d)",
				i, s, c.cfg.Replicas)
		}
	}
	// Observe indexes Counts by a sample's position among Bounds.
	for _, h := range []*Histogram{&st.MDExec, &st.ExchangeOvh} {
		if len(h.Counts) != len(h.Bounds)+1 || !sort.Float64sAreSorted(h.Bounds) {
			return fmt.Errorf("analysis: state histogram has %d counts over %d bounds, or bounds out of order",
				len(h.Counts), len(h.Bounds))
		}
	}
	if st.Faults == nil {
		st.Faults = map[string]uint64{}
	}
	c.mu.Lock()
	c.st, c.traceCap = st, 0
	c.mu.Unlock()
	return nil
}

// decodeState reads a state. Traces, ring storage, pair rows and the
// histogram vectors are cut from one shared array per element type,
// each without spare capacity: applyExchange appends to a trace.
func decodeState(data []byte) (st state, err error) {
	_, err = stateLayout.Decode(data, &st)
	return st, err
}

// WeightedRatio returns the attempt-weighted mean acceptance ratio over
// a set of pair statistics (0 when nothing was attempted). Weighting by
// attempts makes the mean of a partially filled rolling window honest:
// a pair with one buffered outcome does not count as much as one with a
// full ring.
func WeightedRatio(pairs []PairStat) float64 {
	var att, acc uint64
	for _, p := range pairs {
		att += p.Attempted
		acc += p.Accepted
	}
	if att == 0 {
		return 0
	}
	return float64(acc) / float64(att)
}
