package slab

import "testing"

// TestCarveCapsRowsAndSizesChunks: a carved row is capped at its own
// length, so an append to it cannot reach the next row, and Carve alone
// sizes a new chunk: as many elements as were carved before it, in
// whole rows, at least least rows, at most left rows when left > 0, and
// at most chunkMax elements unless one row is longer.
func TestCarveCapsRowsAndSizesChunks(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		carved, n, least, left int
		chunk                  int // elements in the new chunk
	}{
		{"the first chunk holds least rows", 0, 3, 4, 0, 12},
		{"a chunk doubles with what was carved", 30, 3, 4, 0, 30},
		{"what was carved rounds down to whole rows", 31, 3, 1, 0, 30},
		{"least sets the floor", 6, 3, 8, 0, 24},
		{"left caps a chunk", 30, 3, 4, 2, 6},
		{"left caps a chunk below least", 0, 3, 8, 3, 9},
		{"left 0 does not cap", 30, 3, 4, 0, 30},
		{"a negative left does not cap", 30, 3, 4, -1, 30},
		{"chunkMax bounds a chunk of short rows", 1 << 30, 1, 1, 0, chunkMax},
		{"chunkMax rounds down to whole rows", 1 << 30, 3, 1, 0, chunkMax / 3 * 3},
		{"a row longer than chunkMax gets a chunk of its own", 0, chunkMax + 1, 4, 0, chunkMax + 1},
	} {
		b := Slab[byte]{carved: tc.carved}
		row := b.Carve(tc.n, tc.least, tc.left)
		if len(row) != tc.n || cap(row) != tc.n {
			t.Errorf("%s: row %d/%d, want %d/%d", tc.name, len(row), cap(row), tc.n, tc.n)
		}
		if got := b.Room() + tc.n; got != tc.chunk {
			t.Errorf("%s: a chunk of %d elements, want %d", tc.name, got, tc.chunk)
		}
		if b.carved != tc.carved+tc.n {
			t.Errorf("%s: carved %d, want %d", tc.name, b.carved, tc.carved+tc.n)
		}
	}

	var b Slab[int]
	first := b.Carve(3, 4, 0)
	_ = append(first, 7)
	if next := b.Carve(3, 4, 0); next[0] != 0 || b.Room() != 6 {
		t.Fatalf("next row %v, room %d: an append to one row wrote into the next, or a row was cut elsewhere", next, b.Room())
	}
	// A row longer than the room left starts a new chunk: two 7-rows,
	// least 2, as 6 carved elements make no whole 7-row.
	if b.Carve(7, 2, 0); b.Room() != 7 || b.carved != 13 {
		t.Fatalf("after a 7-row with 6 left: room %d, carved %d, want 7 and 13", b.Room(), b.carved)
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
