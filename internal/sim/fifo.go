package sim

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

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) && q.head >= len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
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
