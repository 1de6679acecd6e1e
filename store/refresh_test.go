package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
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
	// A touched validator over the same bytes is no advance, but reads
	// follow the new validator from then on.
	obj.Set(load(), `"g2-touched"`)
	if adv, err := s.Refresh(ctx); err != nil || adv || s.Generation() != 2 {
		t.Fatalf("Refresh with a touched validator: advanced=%v err=%v generation %d", adv, err, s.Generation())
	}
	if _, err := s.ReadRegion(ctx, []int{0, 0, 0}, []int{1, ny, nx}); err != nil {
		t.Fatalf("read after a touched validator: %v", err)
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

// copyStore writes the bytes of the store at src to path, as cp does:
// an existing file is overwritten in place, so every open handle on it
// sees the new bytes.
func copyStore(t *testing.T, path, src string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshInPlaceOverwrite: a file overwritten in place by another
// store of the same shape at a later generation is adopted under a new
// cache epoch: the next read serves what a fresh open reads, not the old
// store's cached decodes.
func TestRefreshInPlaceOverwrite(t *testing.T) {
	const ny, nx = 16, 16
	ctx := context.Background()
	m, path := newTestMutable(t, 1, ny, nx)
	if err := m.AppendSteps(ctx, stepPlane(0, ny, nx)); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadField(ctx); err != nil { // cache every brick
		t.Fatal(err)
	}

	// The other store's first step lands at the same offsets: only the
	// cache epoch tells its bricks from the cached ones.
	om, other := newTestMutable(t, 1, ny, nx)
	for s := 0; s < 2; s++ {
		if err := om.AppendSteps(ctx, stepPlane(5+s, ny, nx)); err != nil {
			t.Fatal(err)
		}
	}
	copyStore(t, path, other)
	if adv, err := r.Refresh(ctx); err != nil || !adv {
		t.Fatalf("Refresh after an in-place overwrite: advanced=%v err=%v", adv, err)
	}
	fresh, err := OpenFile(path, Options{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("refreshed read has %d points, a fresh open %d", len(got), len(want))
	}
	differ := 0
	for i := range got {
		if got[i] != want[i] {
			differ++
		}
	}
	if differ != 0 {
		t.Fatalf("%d of %d points differ from a fresh open", differ, len(got))
	}
}

// TestRefreshInPlaceDifferentStore: a float64 store overwritten in place
// over a float32 one is a different store: Refresh refuses it with
// ErrRemoteChanged, keeps the served generation, and later reads return
// that generation or an error, never a panic.
func TestRefreshInPlaceDifferentStore(t *testing.T) {
	const ny, nx = 16, 16
	ctx := context.Background()
	m, path := newTestMutable(t, 2, ny, nx)
	if err := m.AppendSteps(ctx, stepPlane(0, ny, nx)); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	before, err := r.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gen := r.Generation()

	other := filepath.Join(t.TempDir(), "wide.qozb")
	om, err := CreateMutable(other, []int{0, ny, nx}, WriteOptions{
		Opts: qoz.Options{ErrorBound: testBound}, Brick: []int{2, 8, 8}, Float64: true})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if err := AppendStepsT(ctx, om, convertSamples[float32, float64](stepPlane(s, ny, nx))); err != nil {
			t.Fatal(err)
		}
	}
	om.Close()
	copyStore(t, path, other)
	if _, err := r.Refresh(ctx); !errors.Is(err, ErrRemoteChanged) {
		t.Fatalf("Refresh onto a float64 store: %v, want ErrRemoteChanged", err)
	}
	if r.Generation() != gen || r.Float64() {
		t.Fatalf("a refused store moved the served generation to %d (float64 %v)", r.Generation(), r.Float64())
	}
	if got, err := r.ReadField(ctx); err == nil {
		mustNear(t, got, before, 0, "read after a refused overwrite")
	}
}

// TestRefreshByteIdenticalCopy: a path replaced by a byte-identical copy
// of the served store (same generation, same manifest) is nothing new,
// not a regression — and the store rebinds to the copy, so the next poll
// opens nothing and the unlinked original is retired.
func TestRefreshByteIdenticalCopy(t *testing.T) {
	ctx := context.Background()
	m, path := newTestMutable(t, 2, 8, 8)
	if err := m.AppendSteps(ctx, stepPlane(0, 8, 8)); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	gen := r.Generation()
	copyPath := path + ".copy"
	copyStore(t, copyPath, path)
	if err := os.Rename(copyPath, path); err != nil {
		t.Fatal(err)
	}
	if adv, err := r.Refresh(ctx); err != nil || adv || r.Generation() != gen {
		t.Fatalf("Refresh over a byte-identical copy: advanced=%v err=%v generation %d (had %d)", adv, err, r.Generation(), gen)
	}
	st, err := r.file.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if pst, err := os.Stat(path); err != nil || !os.SameFile(st, pst) {
		t.Fatalf("after Refresh the store still reads the replaced file (stat err %v)", err)
	}
	if ra, _, f, err := r.candidate(ctx); ra != nil || f != nil || err != nil {
		t.Fatalf("a second poll examines the path again: candidate (%v, %v, %v)", ra, f, err)
	}
	if adv, err := r.Refresh(ctx); err != nil || adv || len(r.retired) != 1 {
		t.Fatalf("second Refresh: advanced=%v err=%v, %d retired handles (want 1)", adv, err, len(r.retired))
	}
	if _, err := r.ReadRegion(ctx, []int{0, 0, 0}, r.Dims()); err != nil {
		t.Fatalf("read after the rebind: %v", err)
	}
}

// TestRefreshAppendKeepsCache: an ordinary append keeps the cache epoch,
// so the bricks it did not touch are served from the cache after Refresh.
func TestRefreshAppendKeepsCache(t *testing.T) {
	const ny, nx = 16, 16
	ctx := context.Background()
	m, path := newTestMutable(t, 2, ny, nx)
	if err := m.AppendSteps(ctx, append(stepPlane(0, ny, nx), stepPlane(1, ny, nx)...)); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	lo, hi := []int{0, 0, 0}, []int{2, ny, nx}
	first, err := r.ReadRegion(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendSteps(ctx, append(stepPlane(2, ny, nx), stepPlane(3, ny, nx)...)); err != nil {
		t.Fatal(err)
	}
	if adv, err := r.Refresh(ctx); err != nil || !adv {
		t.Fatalf("Refresh after an append: advanced=%v err=%v", adv, err)
	}
	hits := r.Stats().CacheHits
	again, err := r.ReadRegion(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().CacheHits - hits; got != 4 {
		t.Fatalf("re-read of the untouched band after Refresh: %d cache hits, want 4", got)
	}
	mustNear(t, again, first, 0, "cached re-read")
}

// TestRefreshRacingReads: region reads racing Refresh over an in-place
// append, and over a Compact by another handle, with slab poisoning on:
// every read serves the committed samples — no poisoned slab, no decode of
// other bytes — and none reaches a closed file.
func TestRefreshRacingReads(t *testing.T) {
	const ny, nx, steps = 16, 16, 4
	for _, compact := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", compact), func(t *testing.T) {
			ctx := context.Background()
			m, path := newTestMutable(t, 2, ny, nx)
			for s := 0; s < steps; s++ {
				if err := m.AppendSteps(ctx, stepPlane(s, ny, nx)); err != nil {
					t.Fatal(err)
				}
			}
			want, err := m.ReadField(ctx)
			if err != nil {
				t.Fatal(err)
			}
			poisonSlabs(t)
			// A budget of three bricks: concurrent reads evict each other.
			r, err := OpenFile(path, Options{CacheBytes: 3 * 2 * 8 * 8 * 4})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			done := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-done:
							return
						default:
						}
						lo := []int{rng.Intn(steps), rng.Intn(ny), rng.Intn(nx)}
						hi := []int{lo[0] + 1 + rng.Intn(steps-lo[0]), lo[1] + 1 + rng.Intn(ny-lo[1]), lo[2] + 1 + rng.Intn(nx-lo[2])}
						got, err := r.ReadRegion(ctx, lo, hi)
						if err != nil {
							t.Errorf("read %v..%v: %v", lo, hi, err)
							return
						}
						k := 0
						for s := lo[0]; s < hi[0]; s++ {
							for y := lo[1]; y < hi[1]; y++ {
								for x := lo[2]; x < hi[2]; x++ {
									if w := want[(s*ny+y)*nx+x]; got[k] != w {
										t.Errorf("read %v..%v: point (%d,%d,%d) = %v, want %v", lo, hi, s, y, x, got[k], w)
										return
									}
									k++
								}
							}
						}
					}
				}(int64(g))
			}
			stop := sync.OnceFunc(func() { close(done); wg.Wait() })
			defer stop()

			for round := 0; round < 6; round++ {
				// Whole bands: the committed bricks the readers see never change.
				if err := m.AppendSteps(ctx, append(stepPlane(steps+2*round, ny, nx), stepPlane(steps+2*round+1, ny, nx)...)); err != nil {
					t.Fatal(err)
				}
				if compact {
					if err := m.Compact(ctx); err != nil {
						t.Fatal(err)
					}
				}
				if adv, err := r.Refresh(ctx); err != nil || !adv {
					t.Fatalf("round %d: Refresh: advanced=%v err=%v", round, adv, err)
				}
			}
			stop()
			if r.Generation() != m.Generation() {
				t.Fatalf("reader at generation %d, writer at %d", r.Generation(), m.Generation())
			}
		})
	}
}
