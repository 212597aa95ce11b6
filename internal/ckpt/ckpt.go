// Package ckpt writes and reads checkpoint files atomically. A
// checkpoint consumer (repex -resume, the repexd POST /runs resume
// path) must never observe a torn file: WriteAtomic stages the bytes in
// a uniquely-named temp file in the destination directory, syncs it to
// stable storage and renames it over the destination, so every reader
// sees either the previous complete checkpoint or the new one — even
// across a crash mid-write or two writers racing on the same path. It
// then syncs the directory, which makes the rename itself durable.
package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// WriteAtomic writes data to path atomically: temp file in the same
// directory (rename is only atomic within a filesystem), fsync, rename,
// fsync of the directory.
// The temp name is unique per call, so concurrent writers to the same
// path never corrupt each other — last rename wins with a complete
// file. On error the temp file is removed and the destination is left
// untouched.
func WriteAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-")
	if err != nil {
		return fmt.Errorf("ckpt: staging checkpoint %s: %v", path, err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		return fmt.Errorf("ckpt: writing checkpoint %s: %v", path, err)
	}
	// Flush file contents before the rename publishes the name: a crash
	// between rename and sync must not leave a complete-looking empty
	// file at the destination.
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("ckpt: syncing checkpoint %s: %v", path, err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("ckpt: checkpoint permissions %s: %v", path, err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		tmp = nil
		return fmt.Errorf("ckpt: closing checkpoint %s: %v", path, err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		tmp = nil
		return fmt.Errorf("ckpt: publishing checkpoint %s: %v", path, err)
	}
	tmp = nil
	// A rename is durable only once its directory is synced (ext4, XFS):
	// until then a crash can lose a checkpoint reported as written.
	dir = filepath.Clean(dir)
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("ckpt: syncing checkpoint directory %s: %v", dir, err)
	}
	return nil
}

// syncDir syncs directory dir; a variable so a test can watch the call.
// Windows cannot sync a directory, so there it does nothing. It goes
// through syscall, which allocates a third of what an os.File does.
var syncDir = func(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	fd, err := syscall.Open(dir, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return err
	}
	return errors.Join(syscall.Fsync(fd), syscall.Close(fd))
}

// Load reads a checkpoint file, failing fast with the path in the
// message so a mistyped -resume or a missing daemon snapshot is
// diagnosed immediately.
func Load(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading checkpoint %s: %v", path, err)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("ckpt: checkpoint %s is empty", path)
	}
	return data, nil
}
