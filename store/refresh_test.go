package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"qoz"
)

// TestRefreshFileAppend: a read-only handle on a file another handle is
// appending to picks up each committed generation via Refresh, and serves
// the pre-refresh generation until then.
func TestRefreshFileAppend(t *testing.T) {
	const ny, nx = 16, 16
	ctx := context.Background()
	m, path := newTestMutable(t, 4, ny, nx)
	if err := m.AppendSteps(ctx, stepPlane(0, ny, nx)); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if adv, err := r.Refresh(ctx); err != nil || adv {
		t.Fatalf("Refresh with nothing new: advanced=%v err=%v", adv, err)
	}
	gen := r.Generation()

	if err := m.AppendSteps(ctx, stepPlane(1, ny, nx)); err != nil {
		t.Fatal(err)
	}
	// Before Refresh the reader still serves its generation.
	if d := r.Dims(); d[0] != 1 {
		t.Fatalf("reader saw %d steps before Refresh", d[0])
	}
	adv, err := r.Refresh(ctx)
	if err != nil || !adv {
		t.Fatalf("Refresh after append: advanced=%v err=%v", adv, err)
	}
	if r.Generation() != gen+1 {
		t.Fatalf("reader at generation %d after Refresh, want %d", r.Generation(), gen+1)
	}
	got, err := r.ReadRegion(ctx, []int{1, 0, 0}, []int{2, ny, nx})
	if err != nil {
		t.Fatal(err)
	}
	mustNear(t, got, stepPlane(1, ny, nx), 2*testBound+1e-6, "refreshed step")
}

// TestRefreshFileCompact: Compact replaces the file via rename; a
// read-only handle follows through Refresh (new inode, bumped epoch) and
// keeps serving in between.
func TestRefreshFileCompact(t *testing.T) {
	const ny, nx = 16, 16
	ctx := context.Background()
	m, path := newTestMutable(t, 2, ny, nx)
	for s := 0; s < 4; s++ {
		if err := m.AppendSteps(ctx, stepPlane(s, ny, nx)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want, err := r.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	// The un-refreshed reader still works: its file handle outlives the
	// rename.
	if _, err := r.ReadRegion(ctx, []int{0, 0, 0}, []int{1, ny, nx}); err != nil {
		t.Fatalf("read across rename: %v", err)
	}
	adv, err := r.Refresh(ctx)
	if err != nil || !adv {
		t.Fatalf("Refresh after compact: advanced=%v err=%v", adv, err)
	}
	if r.Generation() != m.Generation() {
		t.Fatalf("reader generation %d, mutable at %d", r.Generation(), m.Generation())
	}
	got, err := r.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("compact-refreshed read differs at %d", i)
		}
	}
}

// TestRefreshRemote: a URL mount follows appended generations when the
// origin's validator moves, and refuses an object that is no longer the
// same store.
func TestRefreshRemote(t *testing.T) {
	const ny, nx = 16, 16
	ctx := context.Background()
	m, path := newTestMutable(t, 4, ny, nx)
	if err := m.AppendSteps(ctx, stepPlane(0, ny, nx)); err != nil {
		t.Fatal(err)
	}
	load := func() []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	obj := &servedObject{}
	obj.Set(load(), `"g2"`)
	srv := serveRanges(t, obj, nil)

	s, err := OpenURL(srv.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Generation() != 2 {
		t.Fatalf("remote store at generation %d, want 2", s.Generation())
	}
	if adv, err := s.Refresh(ctx); err != nil || adv {
		t.Fatalf("Refresh with unchanged validator: advanced=%v err=%v", adv, err)
	}

	if err := m.AppendSteps(ctx, stepPlane(1, ny, nx)); err != nil {
		t.Fatal(err)
	}
	obj.Set(load(), `"g3"`)
	adv, err := s.Refresh(ctx)
	if err != nil || !adv {
		t.Fatalf("Refresh after remote append: advanced=%v err=%v", adv, err)
	}
	if s.Generation() != 3 {
		t.Fatalf("remote store at generation %d after Refresh, want 3", s.Generation())
	}
	got, err := s.ReadRegion(ctx, []int{1, 0, 0}, []int{2, ny, nx})
	if err != nil {
		t.Fatal(err)
	}
	mustNear(t, got, stepPlane(1, ny, nx), 2*testBound+1e-6, "remote refreshed step")

	// Swap in a different store entirely: same URL, new validator. The
	// identity gate must answer ErrRemoteChanged, not adopt it.
	other := filepath.Join(t.TempDir(), "other.qozb")
	om, err := CreateMutable(other, []int{0, ny, nx}, WriteOptions{
		Opts:  qoz.Options{ErrorBound: testBound},
		Brick: []int{2, 8, 8}, // different bricking = different store identity
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := om.AppendSteps(ctx, stepPlane(i, ny, nx)); err != nil {
			t.Fatal(err)
		}
	}
	om.Close()
	ob, err := os.ReadFile(other)
	if err != nil {
		t.Fatal(err)
	}
	obj.Set(ob, `"other"`)
	if _, err := s.Refresh(ctx); !errors.Is(err, ErrRemoteChanged) {
		t.Fatalf("Refresh onto a different store: err=%v, want ErrRemoteChanged", err)
	}
	// The rejected candidate must not have been adopted: the reader still
	// holds the old validator, so once the origin serves the old object
	// again, reads of the current generation work untouched.
	obj.Set(load(), `"g3"`)
	again, err := s.ReadRegion(ctx, []int{1, 0, 0}, []int{2, ny, nx})
	if err != nil {
		t.Fatalf("read after rejected refresh: %v", err)
	}
	mustNear(t, again, stepPlane(1, ny, nx), 2*testBound+1e-6, "post-rejection read")
	if s.Generation() != 3 {
		t.Fatalf("rejected refresh moved the store to generation %d", s.Generation())
	}
}

// TestRefreshPinnedGeneration: a store opened at a historical generation
// stays there — Refresh never advances a pin.
func TestRefreshPinnedGeneration(t *testing.T) {
	const ny, nx = 8, 8
	ctx := context.Background()
	m, path := newTestMutable(t, 2, ny, nx)
	if err := m.AppendSteps(ctx, stepPlane(0, ny, nx)); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(path, Options{Generation: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := m.AppendSteps(ctx, stepPlane(1, ny, nx)); err != nil {
		t.Fatal(err)
	}
	if adv, err := r.Refresh(ctx); err != nil || adv {
		t.Fatalf("pinned Refresh: advanced=%v err=%v", adv, err)
	}
	if r.Generation() != 2 || r.Dims()[0] != 1 {
		t.Fatalf("pinned store drifted: generation %d, %d steps", r.Generation(), r.Dims()[0])
	}
}

// TestRefreshNoopOnImmutable: legacy index stores (one sub-case per
// version) and mutable handles never advance through Refresh.
func TestRefreshNoopOnImmutable(t *testing.T) {
	ctx := context.Background()
	for _, fx := range legacyFixtures {
		t.Run(fx.name, func(t *testing.T) {
			s, err := OpenFile(fixtureCopy(t, fx.name), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.Generation() != 0 || s.FormatVersion() != fx.version {
				t.Fatalf("fixture opened as version %d at generation %d", s.FormatVersion(), s.Generation())
			}
			if adv, err := s.Refresh(ctx); err != nil || adv {
				t.Fatalf("v%d Refresh: advanced=%v err=%v", fx.version, adv, err)
			}
			if _, err := OpenFile(fixtureCopy(t, fx.name), Options{Generation: 1}); err == nil {
				t.Fatalf("Options.Generation accepted on a v%d index store", fx.version)
			}
		})
	}

	m, _ := newTestMutable(t, 2, 8, 8)
	if err := m.AppendSteps(ctx, stepPlane(0, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if adv, err := m.Refresh(ctx); err != nil || adv {
		t.Fatalf("mutable-handle Refresh: advanced=%v err=%v", adv, err)
	}
}

// TestRefreshWrittenOnceStore: a Write-made file is generation 1 of a
// journal, so Refresh examines it like any other: quiet while nothing
// changes, adopting a generation another handle appends, and — the
// behaviour that moved at PR 22 — reporting ErrRemoteChanged when the path
// is replaced by a store written from scratch (a second qozc put), instead
// of serving the unlinked file for ever.
func TestRefreshWrittenOnceStore(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "put.qozb")
	put := func(step int) {
		t.Helper()
		var buf bytes.Buffer
		if err := Write(ctx, &buf, stepPlane(step, 16, 16), []int{1, 16, 16}, WriteOptions{
			Opts: qoz.Options{ErrorBound: testBound}, Brick: []int{1, 8, 8}}); err != nil {
			t.Fatal(err)
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
	}
	put(0)
	s, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Generation() != 1 {
		t.Fatalf("written-once store opened at generation %d, want 1", s.Generation())
	}
	if adv, err := s.Refresh(ctx); err != nil || adv {
		t.Fatalf("idle Refresh: advanced=%v err=%v", adv, err)
	}

	m, err := OpenMutable(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendSteps(ctx, stepPlane(1, 16, 16)); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if adv, err := s.Refresh(ctx); err != nil || !adv || s.Generation() != 2 || s.Dims()[0] != 2 {
		t.Fatalf("Refresh after an append: advanced=%v err=%v generation %d dims %v", adv, err, s.Generation(), s.Dims())
	}

	put(2)
	if _, err := s.Refresh(ctx); !errors.Is(err, ErrRemoteChanged) {
		t.Fatalf("Refresh after the path was re-put: %v, want ErrRemoteChanged", err)
	}
	if s.Generation() != 2 {
		t.Fatalf("a refused replacement moved the served generation to %d", s.Generation())
	}
}
