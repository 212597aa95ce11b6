package ckpt

import (
	"path/filepath"
	"testing"
)

// TestWriteAtomicAllocations bounds the heap objects one checkpoint
// write allocates at 7: the temp name, its path for the open, the
// os.File wrapping the descriptor (two objects), the rename's two paths
// and the directory sync's path. Built on os.CreateTemp and os.Rename,
// which also stat the new file and the destination, it read 12.
func TestWriteAtomicAllocations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	data := []byte(`{"version":2}`)
	allocs := testing.AllocsPerRun(50, func() {
		if err := WriteAtomic(path, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 7 {
		t.Fatalf("a checkpoint write allocates %.1f objects, want at most 7", allocs)
	}
	t.Logf("a checkpoint write allocates %.1f objects", allocs)
}
