package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteAtomicSyncsDirectory: WriteAtomic syncs the destination's
// directory once the renamed checkpoint is in place, and a failed sync
// is its error, naming the directory.
func TestWriteAtomicSyncsDirectory(t *testing.T) {
	defer func(orig func(string) error) { syncDir = orig }(syncDir)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	var synced []string
	syncDir = func(d string) error {
		if data, err := os.ReadFile(path); err != nil || string(data) != "new" {
			t.Errorf("directory synced before the rename: %q, %v", data, err)
		}
		synced = append(synced, d)
		return nil
	}
	if err := WriteAtomic(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("synced %q, want the destination's directory %q once", synced, dir)
	}

	syncDir = func(string) error { return errors.New("disk gone") }
	err := WriteAtomic(path, []byte("newer"))
	if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "disk gone") {
		t.Fatalf("a failed directory sync returned %v", err)
	}
}

// TestSyncDirSyncsARealDirectory: the default sync succeeds on a
// directory and fails, with the error, on a path that is not there.
func TestSyncDirSyncsARealDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := syncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := syncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("syncing a missing directory succeeded")
	}
}
