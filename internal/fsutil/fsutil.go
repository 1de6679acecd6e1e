// Package fsutil holds the filesystem steps the store and the CLI share
// when they replace a file by renaming a finished temp file over it.
package fsutil

import (
	"os"
	"path/filepath"
)

// SyncDir flushes the directory holding path. A rename is durable only
// once its directory entry is: without this, a crash shortly after
// "write temp, fsync, rename over the old file" can come back with the
// old name pointing at nothing.
func SyncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// CreateReplacement creates the temp file that a caller fills, syncs and
// renames over path: in path's directory (a rename must not cross
// filesystems), named path's base name plus pattern (os.CreateTemp's "*"
// rule), and with the mode the finished file is to have — that of the file
// it replaces, or 0644 when path does not exist yet. os.CreateTemp's own
// 0600 would make a store its writer just replaced unreadable to the
// server reading it under another uid, and a fixed mode would widen a
// file its owner had tightened.
func CreateReplacement(path, pattern string) (*os.File, error) {
	mode := os.FileMode(0o644)
	if st, err := os.Stat(path); err == nil {
		mode = st.Mode().Perm()
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+pattern)
	if err != nil {
		return nil, err
	}
	if err := f.Chmod(mode); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return f, nil
}
