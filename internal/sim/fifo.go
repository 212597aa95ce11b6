package sim

import "slices"

// fifo is a first-in first-out queue on one backing array: pop advances a
// head index instead of re-slicing the front away, so a queue that drains
// (the kernel's same-instant lane does after every instant, a Resource
// queue whenever contention clears) goes back to the start of the array
// it already owns, and one that never drains slides its live tail down
// before it would grow.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

// push appends v. A full queue slides its live tail down when that frees
// half its array; otherwise it grows, to room elements at once while it
// holds fewer (room is the kernel's reserved process count, see
// Env.Reserve), and by append's doubling past that.
func (q *fifo[T]) push(v T, room int) {
	if len(q.items) == cap(q.items) {
		switch {
		case q.head > 0 && q.head >= len(q.items)/2:
			n := copy(q.items, q.items[q.head:])
			clear(q.items[n:])
			q.items, q.head = q.items[:n], 0
		case room > cap(q.items):
			q.items = slices.Grow(q.items, room-len(q.items))
		}
	}
	q.items = append(q.items, v)
}

// peek returns the oldest element; the queue must be non-empty.
func (q *fifo[T]) peek() T { return q.items[q.head] }

// pop removes and returns the oldest element; the queue must be non-empty.
func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero // drop the queue's reference for the collector
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// retain drops, in place and in order, every element keep refuses.
func (q *fifo[T]) retain(keep func(T) bool) {
	live := q.items[q.head:]
	kept := live[:0]
	for _, v := range live {
		if keep(v) {
			kept = append(kept, v)
		}
	}
	clear(live[len(kept):])
	q.items = q.items[:q.head+len(kept)]
	if len(kept) == 0 {
		q.items, q.head = q.items[:0], 0
	}
}
