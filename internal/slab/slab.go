// Package slab is the one write-once storage of the run and checkpoint
// paths: rows cut one after another from a few large chunks, each row
// capped at its own length, so an append to a row reallocates rather
// than writing into the row cut after it.
package slab

// chunkMax bounds a chunk, in elements, unless one row is longer.
const chunkMax = 1 << 20

// Slab hands out rows one after another. It never writes a row again
// once it has handed it out, so every holder of a row may share it for
// as long as it likes: a chunk lives as long as any of its rows does.
type Slab[T any] struct {
	free   []T
	carved int // elements handed out so far
}

// Carve returns a zeroed row of n elements. When the current chunk
// cannot hold it, a new one replaces it, and the slab alone sizes it:
// it holds as many elements as were carved before it, in whole rows, so
// a slab's chunks double. It holds at least least rows, and at most
// left rows when left > 0 (the rows the caller has still to carve, so
// a bounded caller keeps no room it cannot fill), and no more than
// chunkMax elements unless one row is longer.
func (b *Slab[T]) Carve(n, least, left int) []T {
	if len(b.free) < n {
		rows := max(least, b.carved/max(n, 1))
		if left > 0 {
			rows = min(rows, left)
		}
		b.free = make([]T, n*max(1, min(rows, chunkMax/max(n, 1))))
	}
	row := b.free[:n:n]
	b.free = b.free[n:]
	b.carved += n
	return row
}

// Room returns the number of elements the current chunk has left.
func (b *Slab[T]) Room() int { return len(b.free) }

// Copy copies row to the front of *free, which must have room for it,
// advances *free past the copy and returns it, capped at its own length.
// An empty row copies to nil, as append([]T(nil), row...) does.
func Copy[T any](free *[]T, row []T) []T {
	if len(row) == 0 {
		return nil
	}
	n := copy(*free, row)
	out := (*free)[:n:n]
	*free = (*free)[n:]
	return out
}
