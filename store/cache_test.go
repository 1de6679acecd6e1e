package store

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"qoz"
	"qoz/datagen"
)

// TestCachePutRefreshesRecency is the regression test for the duplicate-put
// bug: when a concurrent reader re-decodes a brick that is already cached,
// the entry must be marked most recently used — otherwise the freshest
// brick sits at the LRU end and is evicted next.
func TestCachePutRefreshesRecency(t *testing.T) {
	sz := int64(4 * 100)
	c := newLRUCache(2 * sz) // room for exactly two entries
	k := func(i int) cacheKey { return cacheKey{brick: i} }
	// An entry owns its slice, so every put hands over a slice of its own.
	put := func(i int) {
		if ent := c.put(k(i), make([]float32, 100), sz); ent != nil {
			ent.release()
		}
	}

	put(1)
	put(2)
	put(1) // duplicate put: brick 1 was just touched again
	put(3) // over budget: must evict brick 2, the true LRU

	if _, ok := c.get(k(1)); !ok {
		t.Fatal("duplicate put did not refresh recency: brick 1 was evicted as LRU")
	}
	if _, ok := c.get(k(2)); ok {
		t.Fatal("brick 2 survived eviction; recency order is wrong")
	}
	if _, ok := c.get(k(3)); !ok {
		t.Fatal("brick 3 missing after put")
	}
	if c.evictedBytes() != sz {
		t.Fatalf("evicted bytes = %d, want the one brick evicted (%d)", c.evictedBytes(), sz)
	}
}

// TestSharedCacheAcrossStores verifies that one Cache can back several
// stores without brick-index collisions: each store must get its own data
// back even though both populate the same LRU under the same brick
// indices.
func TestSharedCacheAcrossStores(t *testing.T) {
	poisonSlabs(t) // closing s1 hands its bricks back while s2 keeps reading
	shared := NewCache(64 << 20)
	ctx := context.Background()

	open := func(ds datagen.Dataset) *Store {
		var buf bytes.Buffer
		if err := Write(ctx, &buf, ds.Data, ds.Dims, WriteOptions{
			Opts:  qoz.Options{RelBound: 1e-3},
			Brick: []int{8, 8, 8},
		}); err != nil {
			t.Fatalf("Write: %v", err)
		}
		s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{Cache: shared})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return s
	}
	ds1, ds2 := datagen.NYX(16, 16, 16), datagen.Hurricane(16, 16, 16)
	s1, s2 := open(ds1), open(ds2)

	check := func(s *Store, orig []float32) {
		t.Helper()
		// Read twice: the second pass serves from the shared cache, and must
		// still return this store's bricks, not the other's.
		for pass := 0; pass < 2; pass++ {
			got, err := s.ReadField(ctx)
			if err != nil {
				t.Fatalf("ReadField: %v", err)
			}
			for i := range got {
				if math.Abs(float64(got[i])-float64(orig[i])) > s.ErrorBound() {
					t.Fatalf("pass %d: point %d off by %g (bound %g) — shared cache returned another store's brick?",
						pass, i, math.Abs(float64(got[i])-float64(orig[i])), s.ErrorBound())
				}
			}
		}
	}
	check(s1, ds1.Data)
	check(s2, ds2.Data)

	if shared.Bytes() == 0 {
		t.Fatal("shared cache holds nothing after two full reads")
	}
	if st := s1.Stats(); st.CacheHits == 0 || st.CachedBytes != shared.Bytes() {
		t.Fatalf("stats not plumbed through the shared cache: %+v (cache holds %d)", st, shared.Bytes())
	}

	// Closing a store must purge its bricks from the shared cache: a dead
	// owner's entries can never be hit again and would otherwise pin the
	// budget.
	before := shared.Bytes()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	after := shared.Bytes()
	if after >= before || after == 0 {
		t.Fatalf("closing one of two equally-sized stores left the shared cache at %d of %d bytes", after, before)
	}
	check(s2, ds2.Data) // the survivor's bricks are untouched
}

// TestStatsCacheDisabled pins Stats behavior with caching off: every read
// decodes, nothing hits, nothing is held.
func TestStatsCacheDisabled(t *testing.T) {
	ds := datagen.NYX(16, 16, 16)
	s, _ := buildStore(t, ds.Data, ds.Dims, WriteOptions{
		Opts:  qoz.Options{RelBound: 1e-3},
		Brick: []int{8, 8, 8},
	}, Options{CacheBytes: -1})
	ctx := context.Background()

	lo, hi := []int{0, 0, 0}, []int{8, 8, 8}
	for i := 0; i < 2; i++ {
		if _, err := s.ReadRegion(ctx, lo, hi); err != nil {
			t.Fatalf("ReadRegion: %v", err)
		}
	}
	st := s.Stats()
	if st.BricksRead != 2 || st.BricksDecoded != 2 {
		t.Fatalf("expected 2 reads = 2 decodes with caching disabled, got %+v", st)
	}
	if st.CacheHits != 0 || st.CachedBytes != 0 {
		t.Fatalf("disabled cache reported activity: %+v", st)
	}
	if st.RemoteRanges != 0 || st.RemoteBytes != 0 {
		t.Fatalf("local store reported remote traffic: %+v", st)
	}
}

// TestStatsConcurrentReads hammers overlapping region reads from many
// goroutines; run under -race this checks the stats and cache paths are
// data-race free, and the counters must still reconcile afterwards.
func TestStatsConcurrentReads(t *testing.T) {
	ds := datagen.NYX(32, 32, 32)
	s, _ := buildStore(t, ds.Data, ds.Dims, WriteOptions{
		Opts:  qoz.Options{RelBound: 1e-3},
		Brick: []int{8, 8, 8},
	}, Options{CacheBytes: 1 << 20}) // small budget so eviction churns too
	ctx := context.Background()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 10; i++ {
				lo := make([]int, 3)
				hi := make([]int, 3)
				for d := range lo {
					lo[d] = rng.Intn(24)
					hi[d] = lo[d] + 1 + rng.Intn(32-lo[d]-1)
				}
				if _, err := s.ReadRegion(ctx, lo, hi); err != nil {
					t.Errorf("ReadRegion(%v,%v): %v", lo, hi, err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	st := s.Stats()
	if st.BricksRead == 0 || st.BricksRead != st.BricksDecoded+st.CacheHits {
		t.Fatalf("counters do not reconcile: %+v", st)
	}
}
