// Package fsutil holds the one filesystem step the store and the CLI share
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
