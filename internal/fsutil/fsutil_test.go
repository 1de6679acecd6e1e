package fsutil

import (
	"os"
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

func TestCreateReplacementMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.qozb")
	mode := func() os.FileMode {
		t.Helper()
		f, err := CreateReplacement(path, ".tmp*")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if filepath.Dir(f.Name()) != filepath.Dir(path) {
			t.Fatalf("temp file %s is not beside %s", f.Name(), path)
		}
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(f.Name(), path); err != nil {
			t.Fatal(err)
		}
		return st.Mode().Perm()
	}
	if m := mode(); m != 0o644 {
		t.Fatalf("replacement of nothing is %04o, want 0644", m)
	}
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	if m := mode(); m != 0o600 {
		t.Fatalf("replacement of a 0600 file is %04o", m)
	}
}
