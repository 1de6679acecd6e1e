package fsutil

import (
	"path/filepath"
	"testing"
)

func TestSyncDir(t *testing.T) {
	dir := t.TempDir()
	// The file itself need not exist: only its directory is flushed.
	if err := SyncDir(filepath.Join(dir, "store.qozb")); err != nil {
		t.Fatalf("SyncDir in an existing directory: %v", err)
	}
	if err := SyncDir(filepath.Join(dir, "missing", "store.qozb")); err == nil {
		t.Fatal("SyncDir in a missing directory succeeded")
	}
}
