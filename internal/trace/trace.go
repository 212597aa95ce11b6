// Package trace is the run flight recorder: a low-overhead, bounded
// span log of one simulation's timeline. The dispatcher records one
// Span per MD segment, exchange phase (with pair-eval and single-point
// sub-spans), checkpoint write, controller decision and fault action;
// the Recorder keeps the most recent spans in a fixed ring with
// drop-oldest semantics and a drop counter, mirroring the event bus
// discipline — recording never blocks and never grows, so an attached
// recorder cannot perturb the run it observes.
//
// Spans carry virtual-time instants (the simulation clock in seconds),
// which makes the recorded timeline reproducible run-to-run under the
// virtual engine. Export renders a snapshot as Chrome trace-event JSON
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing:
// one track per replica, one per pilot, one per exchange dimension and
// one per dimension's feedback controller.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
)

// Kind classifies a span.
type Kind uint8

const (
	// KindMD is one replica's MD segment: first submission to final
	// completion, spanning every relaunch retry in between.
	KindMD Kind = iota
	// KindExchange is one exchange phase along a dimension.
	KindExchange
	// KindSPE is the single-point-energy task wave inside an exchange
	// phase (salt dimensions).
	KindSPE
	// KindPairs is the Metropolis pair sweep inside an exchange phase:
	// one serial pass in pair order, each pair drawing its uniform,
	// computing its probability, deciding and swapping.
	KindPairs
	// KindCheckpoint is one snapshot capture and delivery.
	KindCheckpoint
	// KindController is one feedback-controller decision after an
	// exchange event along the controlled dimension.
	KindController
	// KindFault is one fault-handling action (relaunch, resource-lost
	// resubmission, terminal drop, cancellation discard).
	KindFault
	// KindResource is one pilot lifecycle instant (launch, node-loss
	// shrink, preemption notice, resize, expiry) on the pilot's track.
	KindResource
	// KindRespace is one online ladder re-fit instant on the dimension's
	// controller track: the saturated dimension's window values were
	// replaced by the flat-acceptance re-fit.
	KindRespace
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindMD:
		return "md"
	case KindExchange:
		return "exchange"
	case KindSPE:
		return "spe"
	case KindPairs:
		return "pairs"
	case KindCheckpoint:
		return "checkpoint"
	case KindController:
		return "controller"
	case KindFault:
		return "fault"
	case KindResource:
		return "resource"
	case KindRespace:
		return "respace"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Span is one recorded interval (or instant, Dur 0) on the run's
// timeline. Times are in the runtime's clock — virtual seconds for the
// pilot backend — so identical virtual runs record identical spans.
// Which identity fields are meaningful depends on Kind; the rest stay
// zero.
type Span struct {
	Kind  Kind    `json:"kind"`
	Start float64 `json:"start"`
	Dur   float64 `json:"dur"`
	// Replica identifies MD and fault spans.
	Replica int `json:"replica,omitempty"`
	// Dim is the exchange dimension of MD, exchange and controller
	// spans.
	Dim int `json:"dim,omitempty"`
	// Pilot is the routing slot of the pilot that executed an MD span
	// (0 on a single pilot; a failover replacement keeps its slot).
	Pilot int `json:"pilot,omitempty"`
	// Event is the segment cycle (MD) or exchange-event index.
	Event int `json:"event,omitempty"`
	// Retries counts the relaunches an MD segment absorbed, or the
	// retry count a fault action reached.
	Retries int `json:"retries,omitempty"`
	// Pairs counts attempted pairs (exchange/pairs spans), SPE tasks
	// (spe spans) or buffered outcomes (controller spans).
	Pairs int `json:"pairs,omitempty"`
	// Accepted counts accepted pairs.
	Accepted int `json:"accepted,omitempty"`
	// Window and Measured are the controller's window actuator and
	// measured rolling acceptance.
	Window   float64 `json:"window,omitempty"`
	Measured float64 `json:"measured,omitempty"`
	// MinReady is the controller's effective early-fire threshold.
	MinReady int `json:"min_ready,omitempty"`
	// Label carries the fault kind, "failed" on a terminal MD span,
	// "saturated" on a pinned controller, "cancel" on the cancellation
	// boundary snapshot.
	Label string `json:"label,omitempty"`
}

// DefaultCapacity is the ring size New uses for capacity <= 0: deep
// enough for the full timeline of most runs, ~1.2 MB.
const DefaultCapacity = 16384

// Recorder is the bounded flight recorder. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops), so call sites can
// record unconditionally.
type Recorder struct {
	mu sync.Mutex
	// ring holds the spans compacted (see record): it is a run's largest
	// array, allocated whole at New, and holds no pointer for the
	// collector to scan.
	ring     []record
	head     int // oldest retained span
	n        int // retained spans
	recorded uint64
	dropped  uint64
	// labels are the distinct span labels recorded so far, in order;
	// a record names its label by index, 0 being "".
	labels []string
}

// record is a Span as the ring keeps it: its label an index into
// Recorder.labels, and its counts and indices (replicas, dimensions,
// pilots, events, retries, pairs), all far below 2^31, in 32 bits.
type record struct {
	start, dur, window, measured                                   float64
	replica, dim, pilot, event, retries, pairs, accepted, minReady int32
	label                                                          uint32
	kind                                                           Kind
}

// New returns a recorder retaining at most capacity spans
// (DefaultCapacity for capacity <= 0).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: make([]record, capacity), labels: []string{""}}
}

// Record appends one span, evicting the oldest retained span when the
// ring is full (counted in Dropped).
func (r *Recorder) Record(sp Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	rec := r.compact(sp)
	if r.n < len(r.ring) {
		r.ring[(r.head+r.n)%len(r.ring)] = rec
		r.n++
	} else {
		r.ring[r.head] = rec
		r.head = (r.head + 1) % len(r.ring)
		r.dropped++
	}
	r.recorded++
	r.mu.Unlock()
}

// compact returns sp as the ring keeps it, adding its label to the
// label table if it is new there. Called under r.mu.
func (r *Recorder) compact(sp Span) record {
	label := 0
	if sp.Label != "" {
		label = slices.Index(r.labels, sp.Label)
		if label < 0 {
			label = len(r.labels)
			r.labels = append(r.labels, sp.Label)
		}
	}
	return record{
		start: sp.Start, dur: sp.Dur, window: sp.Window, measured: sp.Measured,
		replica: int32(sp.Replica), dim: int32(sp.Dim), pilot: int32(sp.Pilot),
		event: int32(sp.Event), retries: int32(sp.Retries), pairs: int32(sp.Pairs),
		accepted: int32(sp.Accepted), minReady: int32(sp.MinReady),
		label: uint32(label), kind: sp.Kind,
	}
}

// span returns the Span rec was compacted from. Called under r.mu.
func (r *Recorder) span(rec *record) Span {
	return Span{
		Kind: rec.kind, Start: rec.start, Dur: rec.dur,
		Replica: int(rec.replica), Dim: int(rec.dim), Pilot: int(rec.pilot),
		Event: int(rec.event), Retries: int(rec.retries), Pairs: int(rec.pairs),
		Accepted: int(rec.accepted), Window: rec.window, Measured: rec.measured,
		MinReady: int(rec.minReady), Label: r.labels[rec.label],
	}
}

// Snapshot copies the retained spans, oldest first.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, r.n)
	for i := range out {
		out[i] = r.span(&r.ring[(r.head+i)%len(r.ring)])
	}
	return out
}

// Capacity returns the ring size (0 on nil).
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}

// Recorded returns the total spans recorded, including those since
// evicted.
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recorded
}

// Dropped returns the spans evicted by ring overflow.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// ExportJSON renders the current snapshot as Chrome trace-event JSON.
func (r *Recorder) ExportJSON() ([]byte, error) { return Export(r.Snapshot()) }

// Track process IDs of the exported trace: Perfetto groups tracks by
// pid, so each entity class gets its own process row.
const (
	pidRun      = 1 // checkpoints and run-level instants
	pidReplicas = 2 // one thread per replica: MD spans, fault instants
	pidPilots   = 3 // one thread per pilot: the same MD spans by executor
	pidExchange = 4 // one thread per dimension: exchange phases + sub-spans
	pidControl  = 5 // one thread per dimension's feedback controller
)

// chromeEvent is one entry of the Chrome trace-event format. Only
// complete events (ph "X") and metadata events (ph "M") are emitted —
// a deliberately small, schema-stable subset every viewer loads.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace-event format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const usPerSecond = 1e6

// Export renders spans as Chrome trace-event JSON: one complete event
// per span (MD spans appear twice — on the replica track and on the
// executing pilot's track), plus process/thread name metadata for every
// track present. The output is deterministic for a given span slice.
func Export(spans []Span) ([]byte, error) {
	events := make([]chromeEvent, 0, len(spans)+16)
	tracks := map[[2]int]bool{}
	emit := func(name string, sp Span, pid, tid int, args map[string]any) {
		tracks[[2]int{pid, tid}] = true
		events = append(events, chromeEvent{
			Name: name, Ph: "X",
			Ts: sp.Start * usPerSecond, Dur: sp.Dur * usPerSecond,
			Pid: pid, Tid: tid, Args: args,
		})
	}
	for _, sp := range spans {
		switch sp.Kind {
		case KindMD:
			name := "md"
			args := map[string]any{
				"replica": sp.Replica, "dim": sp.Dim, "pilot": sp.Pilot,
				"cycle": sp.Event, "retries": sp.Retries,
			}
			if sp.Label != "" {
				name = "md (" + sp.Label + ")"
				args["outcome"] = sp.Label
			}
			emit(name, sp, pidReplicas, sp.Replica, args)
			emit(name, sp, pidPilots, sp.Pilot, args)
		case KindFault:
			name := sp.Label
			if name == "" {
				name = "fault"
			}
			emit(name, sp, pidReplicas, sp.Replica,
				map[string]any{"retries": sp.Retries})
		case KindExchange:
			emit("exchange", sp, pidExchange, sp.Dim, map[string]any{
				"event": sp.Event, "pairs": sp.Pairs, "accepted": sp.Accepted,
			})
		case KindSPE:
			emit("spe", sp, pidExchange, sp.Dim,
				map[string]any{"event": sp.Event, "tasks": sp.Pairs})
		case KindPairs:
			emit("pairs", sp, pidExchange, sp.Dim, map[string]any{
				"event": sp.Event, "pairs": sp.Pairs, "accepted": sp.Accepted,
			})
		case KindController:
			args := map[string]any{
				"event": sp.Event, "window_sec": sp.Window,
				"measured": sp.Measured, "min_ready": sp.MinReady,
				"outcomes": sp.Pairs,
			}
			if sp.Label != "" {
				args["state"] = sp.Label
			}
			emit("control", sp, pidControl, sp.Dim, args)
		case KindCheckpoint:
			name := "checkpoint"
			if sp.Label != "" {
				name = "checkpoint (" + sp.Label + ")"
			}
			emit(name, sp, pidRun, 0, map[string]any{"event": sp.Event})
		case KindResource:
			name := sp.Label
			if name == "" {
				name = "resource"
			}
			emit(name, sp, pidPilots, sp.Pilot,
				map[string]any{"cores": sp.Pairs})
		case KindRespace:
			emit("respace", sp, pidControl, sp.Dim,
				map[string]any{"event": sp.Event, "refit": sp.Retries})
		}
	}

	// Track metadata, sorted for deterministic output.
	keys := make([][2]int, 0, len(tracks))
	for k := range tracks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	meta := make([]chromeEvent, 0, 2*len(keys))
	seenPid := map[int]bool{}
	for _, k := range keys {
		pid, tid := k[0], k[1]
		if !seenPid[pid] {
			seenPid[pid] = true
			meta = append(meta, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
				Args: map[string]any{"name": processName(pid)},
			})
			meta = append(meta, chromeEvent{
				Name: "process_sort_index", Ph: "M", Pid: pid, Tid: 0,
				Args: map[string]any{"sort_index": pid},
			})
		}
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": threadName(pid, tid)},
		})
	}
	return json.Marshal(chromeTrace{
		TraceEvents:     append(meta, events...),
		DisplayTimeUnit: "ms",
	})
}

// WriteJSON writes the Chrome trace-event JSON of spans to w.
func WriteJSON(w io.Writer, spans []Span) error {
	data, err := Export(spans)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

func processName(pid int) string {
	switch pid {
	case pidRun:
		return "run"
	case pidReplicas:
		return "replicas"
	case pidPilots:
		return "pilots"
	case pidExchange:
		return "exchange"
	case pidControl:
		return "controllers"
	default:
		return fmt.Sprintf("pid %d", pid)
	}
}

func threadName(pid, tid int) string {
	switch pid {
	case pidRun:
		return "run"
	case pidReplicas:
		return fmt.Sprintf("replica %d", tid)
	case pidPilots:
		return fmt.Sprintf("pilot %d", tid)
	case pidExchange:
		return fmt.Sprintf("dim %d exchange", tid)
	case pidControl:
		return fmt.Sprintf("dim %d controller", tid)
	default:
		return fmt.Sprintf("tid %d", tid)
	}
}
