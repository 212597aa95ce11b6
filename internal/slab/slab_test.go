package slab

import "testing"

// TestCarveCapsRowsAndSizesChunks: a carved row is capped at its own
// length, so an append to it cannot reach the next row; a chunk holds
// the rows asked for, a new one replaces it when a row does not fit,
// and chunkMax bounds a chunk of short rows.
func TestCarveCapsRowsAndSizesChunks(t *testing.T) {
	var b Slab[int]
	first := b.Carve(3, 4)
	if len(first) != 3 || cap(first) != 3 || b.Room() != 9 {
		t.Fatalf("row %d/%d, room %d; want 3/3 and 9", len(first), cap(first), b.Room())
	}
	_ = append(first, 7)
	if next := b.Carve(3, 4); next[0] != 0 {
		t.Fatal("an append to one row wrote into the next")
	}
	if b.Carve(7, 2); b.Room() != 7 || b.Carved() != 13 {
		t.Fatalf("room %d, carved %d; want a new chunk of two 7-rows and 13 carved", b.Room(), b.Carved())
	}
	var short Slab[byte]
	if short.Carve(1, 1<<30); short.Room() != chunkMax-1 {
		t.Fatalf("a chunk of one-element rows has room %d, want %d", short.Room(), chunkMax-1)
	}
}

func TestCopy(t *testing.T) {
	free := make([]int, 5)
	row := Copy(&free, []int{1, 2})
	if len(row) != 2 || cap(row) != 2 || row[1] != 2 || len(free) != 3 {
		t.Fatalf("copied %v (cap %d), %d left", row, cap(row), len(free))
	}
	if Copy(&free, nil) != nil || len(free) != 3 {
		t.Fatal("an empty row did not copy to nil in place")
	}
}
