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
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
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
	tmp, err := createTemp(path)
	if err != nil {
		return fmt.Errorf("ckpt: staging checkpoint %s: %v", path, err)
	}
	name := tmp.Name()
	stage := "writing"
	if _, err = tmp.Write(data); err == nil {
		// Flush file contents before the rename publishes the name: a
		// crash between rename and sync must not leave a
		// complete-looking empty file at the destination.
		stage, err = "syncing", tmp.Sync()
	}
	if err == nil {
		stage, err = "setting the mode of", tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		stage, err = "closing", cerr
	}
	if err == nil {
		stage, err = "publishing", rename(name, path)
	}
	if err != nil {
		os.Remove(name)
		return fmt.Errorf("ckpt: %s checkpoint %s: %v", stage, path, err)
	}
	// A rename is durable only once its directory is synced (ext4, XFS):
	// until then a crash can lose a checkpoint reported as written.
	dir := filepath.Dir(path)
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("ckpt: syncing checkpoint directory %s: %v", dir, err)
	}
	return nil
}

// createTemp creates a new file named path, ".tmp-" and a random
// number, as os.CreateTemp does with a pattern. It opens the file
// through syscall and wraps the descriptor, which spares os.OpenFile's
// stat of it.
func createTemp(path string) (*os.File, error) {
	for try := 0; ; try++ {
		var num [10]byte
		name := path + ".tmp-" + string(strconv.AppendUint(num[:0], uint64(rand.Uint32()), 10))
		fd, err := syscall.Open(name, syscall.O_RDWR|syscall.O_CREAT|syscall.O_EXCL|syscall.O_CLOEXEC, 0o600)
		switch {
		case err == nil:
			return os.NewFile(uintptr(fd), name), nil
		case err != syscall.EINTR && (!os.IsExist(err) || try == 10000):
			return nil, err
		}
	}
}

// rename renames from over to. os.Rename first checks that to is not a
// directory, which costs a Lstat; the rename fails on one anyway.
// Windows' syscall.Rename will not replace a file, so there it is
// os.Rename.
func rename(from, to string) error {
	if runtime.GOOS == "windows" {
		return os.Rename(from, to)
	}
	for {
		if err := syscall.Rename(from, to); err != syscall.EINTR {
			return err
		}
	}
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
