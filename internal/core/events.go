package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/task"
)

// Typed event bus: the dispatcher publishes one record per MD completion,
// exchange event and fault action, and online consumers (the analysis
// collector, the status server, tests) subscribe without ever touching
// the hot loop's control flow. Publishing is strictly non-blocking: each
// subscriber owns a bounded ring buffer, and when a slow consumer lets
// its ring fill up the oldest events are overwritten (and counted as
// dropped) rather than stalling the publisher. A stalled subscriber
// therefore cannot change the simulation's behaviour — only its own view
// of it. Rings hold BusRecords: an MD completion rides by value from the
// dispatcher's batch to the consumer, so an observed completion costs no
// allocation.

// Event is one record published on the Bus: MDEvent, ExchangeEvent,
// ResourceEvent, FaultEvent or RespaceEvent. The marker method is
// unexported, so no type outside this package is an Event unless it
// embeds one of these.
type Event interface{ busEvent() }

// MDEvent records one finally-processed MD segment (a successful
// completion, or a terminal failure that exhausted its retry budget).
// Relaunched attempts appear as FaultEvents instead.
type MDEvent struct {
	At float64
	// Replica is the replica ID; Cycle its completed-segment count after
	// this segment.
	Replica int
	Cycle   int
	// Exec is the segment's execution time in runtime seconds.
	Exec float64
	// Failed marks a terminal failure (the replica was dropped).
	Failed bool
}

func (MDEvent) busEvent() {}

// PairOutcome is one attempted exchange between ladder neighbours along
// the event's dimension.
type PairOutcome struct {
	// Lo and Hi are the window (coordinate) indices of the two partners
	// along the exchange dimension, Lo < Hi. With all replicas alive they
	// are adjacent (Hi == Lo+1); failures can pair across gaps.
	Lo, Hi int
	// ReplicaI and ReplicaJ are the partner replica IDs.
	ReplicaI, ReplicaJ int
	// Accepted reports whether the swap was taken.
	Accepted bool
}

// ExchangeEvent records one completed exchange event: the Metropolis
// outcomes of every attempted pair and the slot assignment afterwards.
type ExchangeEvent struct {
	At float64
	// Event is the exchange-event index (row in the slot history).
	Event int
	// Cycle and Dim locate the event in the simulation schedule.
	Cycle int
	Dim   int
	// Pairs are the attempted exchanges of this event, in pair order.
	// Pairs and Slots are read-only views of write-once storage every
	// subscriber shares: consumers must not mutate them.
	Pairs []PairOutcome
	// Slots is the slot per replica ID after the event: the row the
	// report's slot history and the snapshots share.
	Slots []int
	// MDWall and EXWall are the MD-collection and exchange-phase wall
	// times of the event's record.
	MDWall, EXWall float64
}

func (ExchangeEvent) busEvent() {}

// Fault-event kinds.
const (
	// FaultKindRelaunch is a replica failure resubmitted under
	// FaultRelaunch (consumes the replica's retry budget).
	FaultKindRelaunch = "relaunch"
	// FaultKindResourceLost is a resubmission after pilot walltime expiry
	// (infrastructure fault; does not consume the replica budget).
	FaultKindResourceLost = "resource-lost"
	// FaultKindDrop is a terminal failure that removed the replica.
	FaultKindDrop = "drop"
	// FaultKindCancelled is an in-flight MD segment discarded by run
	// cancellation; its segment is redone on resume.
	FaultKindCancelled = "cancelled"
)

// ResourceEvent is one task.ResourceEvent on the bus: a pilot lifecycle
// change (launch, node-loss shrink, preemption notice, resize, expiry)
// drained from an elastic runtime.
type ResourceEvent task.ResourceEvent

func (ResourceEvent) busEvent() {}

// FaultEvent records one fault-handling action.
type FaultEvent struct {
	At      float64
	Replica int
	// Kind is one of the FaultKind constants.
	Kind string
	// Retries is the replica's consumed retry budget (relaunch/drop) or
	// the segment's resource-loss resubmission count.
	Retries int
	// Exec is the failed attempt's execution time for relaunch kinds
	// (the attempt never reaches an MDEvent, so overhead consumers pick
	// it up here); 0 for drops, whose exec is on the terminal MDEvent.
	Exec float64
}

func (FaultEvent) busEvent() {}

// RespaceEvent records one online ladder re-fit: a saturated dimension's
// window values were replaced by the flat-acceptance re-fit at a
// checkpoint boundary. It is the RespaceRecord converted (the fields are
// the record's, without its JSON tags, so SSE frames keep their
// capitalised keys) and shares the record's slices: consumers must not
// mutate them.
type RespaceEvent struct {
	At float64
	// Event is the exchange-event index the refit fired after.
	Event int
	// Dim is the re-fitted exchange dimension; Refit its refit ordinal
	// for this run (1 for the dimension's first refit).
	Dim   int
	Refit int
	// Old and New are the dimension's window values before and after.
	Old []float64
	New []float64
}

func (RespaceEvent) busEvent() {}

// Bus fans events out to subscribers. The zero value is not usable; use
// NewBus. A nil *Bus is a valid "disabled" bus for Spec.Bus.
type Bus struct {
	mu        sync.Mutex // guards Subscribe (writers of subs)
	subs      atomic.Pointer[[]*Subscription]
	published atomic.Uint64
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers a consumer with a ring buffer of the given
// capacity (minimum 1; a non-positive value selects 1024). Events
// published while the ring is full overwrite the oldest entry. The
// capacity is a bound, not a reservation: the ring's memory follows the
// backlog between two Drains.
func (b *Bus) Subscribe(buffer int) *Subscription {
	if buffer <= 0 {
		buffer = 1024
	}
	s := &Subscription{limit: buffer}
	b.mu.Lock()
	var subs []*Subscription
	if old := b.subs.Load(); old != nil {
		subs = append(subs, *old...)
	}
	subs = append(subs, s)
	b.subs.Store(&subs)
	b.mu.Unlock()
	return s
}

// Unsubscribe removes a subscription registered with Subscribe; events
// published afterwards are no longer delivered to it. Removing a
// subscription that is not registered (or removing twice) is a no-op.
// Long-lived buses with transient consumers (e.g. SSE streams) must
// unsubscribe, or their rings stay reachable forever.
func (b *Bus) Unsubscribe(target *Subscription) {
	if b == nil || target == nil {
		return
	}
	b.mu.Lock()
	if old := b.subs.Load(); old != nil {
		subs := make([]*Subscription, 0, len(*old))
		for _, s := range *old {
			if s != target {
				subs = append(subs, s)
			}
		}
		b.subs.Store(&subs)
	}
	b.mu.Unlock()
}

// BusRecord is one entry of the bus: an MD completion, the bulk of the
// stream, held by value in MD, or any other event in Other. Other is nil
// exactly for an MD record, so a consumer switches on Other and reads MD
// without the event ever being boxed.
type BusRecord struct {
	MD    MDEvent
	Other Event
}

// recordOf routes an event onto the by-value path when it is an MDEvent.
func recordOf(ev Event) BusRecord {
	if md, ok := ev.(MDEvent); ok {
		return BusRecord{MD: md}
	}
	return BusRecord{Other: ev}
}

// PublishBatch delivers evs in order to every subscriber without
// blocking, as publish does; an MDEvent among them travels as an MD
// record.
func (b *Bus) PublishBatch(evs []Event) {
	if len(evs) == 0 {
		return
	}
	b.published.Add(uint64(len(evs)))
	if subs := b.subs.Load(); subs != nil {
		for _, s := range *subs {
			s.mu.Lock()
			for _, ev := range evs {
				s.push(recordOf(ev))
			}
			s.mu.Unlock()
		}
	}
}

// publish delivers recs in order to every subscriber without blocking:
// full rings drop their oldest record. Safe for concurrent use; the
// subscriber list is read lock-free to keep the hot loop's cost at one
// atomic load, and each subscriber's ring lock is taken once per batch
// instead of once per record. The dispatcher batches the MD, fault and
// exchange records of a collection round this way so per-pair outcome
// fan-out does not serialize the hot path at production replica counts.
func (b *Bus) publish(recs []BusRecord) {
	if len(recs) == 0 {
		return
	}
	b.published.Add(uint64(len(recs)))
	if subs := b.subs.Load(); subs != nil {
		for _, s := range *subs {
			s.mu.Lock()
			for i := range recs {
				s.push(recs[i])
			}
			s.mu.Unlock()
		}
	}
}

// Published returns the number of events published so far.
func (b *Bus) Published() uint64 {
	if b == nil {
		return 0
	}
	return b.published.Load()
}

// Subscription is one consumer's bounded view of the bus.
type Subscription struct {
	mu      sync.Mutex
	ring    []BusRecord // doubles while full, up to limit entries
	limit   int
	head    int // index of the oldest buffered record
	n       int // buffered records
	peak    int // the largest backlog a Drain found
	dropped uint64
}

// push buffers one record; the caller holds s.mu.
func (s *Subscription) push(rec BusRecord) {
	if s.n == len(s.ring) && s.n < s.limit {
		// head is 0 here: it moves only once the ring is at its limit. A
		// ring grows at once to the largest backlog a drain found.
		ring := make([]BusRecord, min(max(2*s.n, 64, s.peak), s.limit))
		copy(ring, s.ring)
		s.ring = ring
	}
	if s.n == len(s.ring) {
		s.ring[s.head] = rec
		s.head = (s.head + 1) % len(s.ring)
		s.dropped++
	} else {
		s.ring[(s.head+s.n)%len(s.ring)] = rec
		s.n++
	}
}

// Drain returns every buffered record in publication order, appended
// to dst, and takes dst's array as the ring's next storage: the caller
// gives dst up, as it does a delivered slice at the pilot runtime's next
// AwaitNext. When dst is empty and the ring has not wrapped, the ring
// itself is returned and dst's array, cleared, becomes the ring, so two
// buffers trade places drain after drain and a steady consumer
// allocates nothing. Otherwise (dst holds records, or the ring wrapped
// after an overflow) the records are copied and the ring let go; when
// dst is a slice of the array the ring already is, as when a caller
// drains through one fixed buffer, they are copied to a new array. A
// nil dst leaves the subscription no buffer either way, as a finished
// run's collector wants; the ring regrows with the next backlog. It is
// every consumer's one way off the bus.
func (s *Subscription) Drain(dst []BusRecord) []BusRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peak = max(s.peak, s.n)
	if sameArray(dst, s.ring) {
		// The records are copied out of the ring into a new array.
		dst = dst[:len(dst):len(dst)]
	} else if len(dst) == 0 && s.head == 0 {
		out := s.ring[:s.n]
		dst = dst[:min(cap(dst), s.limit)]
		clear(dst)
		s.ring, s.n = dst, 0
		return out
	}
	tail := min(s.n, len(s.ring)-s.head) // buffered before the ring wraps
	dst = append(dst, s.ring[s.head:s.head+tail]...)
	dst = append(dst, s.ring[:s.n-tail]...)
	s.ring, s.head, s.n = nil, 0, 0
	return dst
}

// sameArray reports whether a and b reach the same last element of
// capacity, as any two slices of one array do unless one was cut with a
// capacity limit.
func sameArray(a, b []BusRecord) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// Dropped returns the number of events this subscriber lost to ring
// overflow.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
