package store

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"qoz"
	"qoz/datagen"
	"qoz/internal/pool"
)

// offerPut is one decode offered to the cache the way decodeBrick offers
// it: admission's verdict first, then, when it admits, the insert.
func offerPut(c *lruCache, key cacheKey, data any, bytes int64) *cacheEntry {
	if !c.offer(key, bytes) {
		return nil
	}
	return c.put(key, data, bytes)
}

// TestCachePutRefreshesRecency is the regression test for the duplicate-put
// bug: when a concurrent reader re-decodes a brick that is already cached,
// the entry must be marked most recently used — otherwise the freshest
// brick sits at the LRU end and is evicted next. Brick 3 is offered three
// times, so it is read more often than either cached brick and admission
// lets it evict whichever is least recently used.
func TestCachePutRefreshesRecency(t *testing.T) {
	sz := int64(4 * 100)
	c := newLRUCache(2 * sz) // room for exactly two entries
	k := func(i int) cacheKey { return cacheKey{brick: i} }
	// An entry owns its slice, so every put hands over a slice of its own.
	put := func(i int) {
		if ent := offerPut(c, k(i), make([]float32, 100), sz); ent != nil {
			ent.release()
		}
	}

	put(1)
	put(2)
	put(1) // duplicate put: brick 1 was just touched again (2 reads)
	for range 3 {
		put(3) // over budget: must evict brick 2, the true LRU, once admitted
	}

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

// TestCacheReplayHitRatio replays boxes that straddle one brick boundary
// per axis — the serve_scan shape: 1.5 bricks on a side, offset
// 8k + 1 + U[0, 4) — over a 32³ field in 8³ bricks through a cache
// holding an eighth of the decoded field. Each box reads 8 bricks, and an
// interior brick is read 8× as often as a corner one, so the cache should
// keep the 8 interior bricks, which serve (2/3)³ ≈ 0.296 of brick reads.
// Over this seed's 1000 boxes, plain LRU (the cache before admission) hit
// 0.168 of brick reads; frequency admission hits 0.294.
func TestCacheReplayHitRatio(t *testing.T) {
	ds := datagen.NYX(32, 32, 32)
	s, _ := buildStore(t, ds.Data, ds.Dims, WriteOptions{
		Opts:  qoz.Options{RelBound: 1e-3},
		Brick: []int{8, 8, 8},
	}, Options{CacheBytes: 32 * 32 * 32 * 4 / 8, Workers: 1})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		lo, hi := make([]int, 3), make([]int, 3)
		for d := range lo {
			lo[d] = 8*rng.Intn(3) + 1 + rng.Intn(4)
			hi[d] = lo[d] + 12
		}
		if _, err := s.ReadRegion(ctx, lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	ratio := float64(st.CacheHits) / float64(st.BricksRead)
	t.Logf("hit ratio %.3f (%d of %d brick reads)", ratio, st.CacheHits, st.BricksRead)
	if ratio < 0.25 {
		t.Fatalf("hit ratio %.3f, want well above plain LRU's 0.168", ratio)
	}
}

// TestCacheAdmitsByFrequency pins the admission rule: a decode that does
// not fit displaces the least-recently-used entries only when it has been
// read more often than each of them, ties refuse, and a refused decode
// changes nothing cached.
func TestCacheAdmitsByFrequency(t *testing.T) {
	const sz = 4 * 100
	k := func(i int) cacheKey { return cacheKey{brick: i} }
	put := func(c *lruCache, i int, n int64) bool {
		ent := offerPut(c, k(i), make([]float32, n/4), n)
		if ent != nil {
			ent.release()
		}
		return ent != nil
	}
	cached := func(c *lruCache, i int) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.byKey[k(i)]
		return ok
	}

	t.Run("once-read does not displace", func(t *testing.T) {
		c := newLRUCache(2 * sz)
		put(c, 1, sz)
		put(c, 2, sz)
		for _, i := range []int{1, 2} {
			ent, _ := c.get(k(i)) // both read twice
			ent.release()
		}
		if put(c, 3, sz) || put(c, 3, sz) {
			t.Fatal("a brick read no more often than the LRU entry was admitted")
		}
		if !cached(c, 1) || !cached(c, 2) || c.evictedBytes() != 0 || c.rejectedBytes() != 2*sz {
			t.Fatalf("refusals disturbed the cache: 1 %v, 2 %v, evicted %d, rejected %d",
				cached(c, 1), cached(c, 2), c.evictedBytes(), c.rejectedBytes())
		}
		if !put(c, 3, sz) { // third read beats brick 1's two
			t.Fatal("a brick read more often than the LRU entry was refused")
		}
		if cached(c, 1) || !cached(c, 2) || !cached(c, 3) || c.evictedBytes() != sz {
			t.Fatalf("admission evicted the wrong entry: 1 %v, 2 %v, 3 %v, evicted %d",
				cached(c, 1), cached(c, 2), cached(c, 3), c.evictedBytes())
		}
	})

	t.Run("every victim must be read less", func(t *testing.T) {
		c := newLRUCache(3 * sz)
		put(c, 1, sz) // LRU end, read once
		for range 4 {
			put(c, 2, sz) // next, read four times
		}
		put(c, 3, sz)
		// A double-size brick must evict bricks 1 and 2; brick 1 alone
		// would not make room, and brick 2 is read more often.
		for range 3 {
			if put(c, 9, 2*sz) {
				t.Fatal("a decode was admitted over a victim read more often")
			}
		}
		if put(c, 4, sz) {
			t.Fatal("a brick read once displaced a brick read once: ties must refuse")
		}
		if !put(c, 4, sz) {
			t.Fatal("a brick read twice was refused over a victim read once")
		}
		if cached(c, 1) || !cached(c, 2) || !cached(c, 3) || !cached(c, 4) {
			t.Fatalf("want brick 1 alone evicted for brick 4: 1 %v, 2 %v, 3 %v, 4 %v",
				cached(c, 1), cached(c, 2), cached(c, 3), cached(c, 4))
		}
		if c.bytes > c.budget || c.evictedBytes() != sz {
			t.Fatalf("holding %d of %d bytes, evicted %d", c.bytes, c.budget, c.evictedBytes())
		}
	})
}

// TestCacheScanResistance warms a hot set of 8 bricks, then scans the
// whole 64-brick field twice — a ReadField and a histogram Query, each
// decoding what the cache does not hold — through a cache of 8 bricks.
// Every scanned brick is read once, less often than the hot ones, so
// admission refuses them all and the hot set is still cached.
func TestCacheScanResistance(t *testing.T) {
	ds := datagen.NYX(32, 32, 32)
	s, _ := buildStore(t, ds.Data, ds.Dims, WriteOptions{
		Opts:  qoz.Options{RelBound: 1e-3},
		Brick: []int{8, 8, 8},
	}, Options{CacheBytes: 8 * brickBytes})
	ctx := context.Background()
	lo, hi := []int{8, 8, 8}, []int{24, 24, 24} // bricks 1 and 2 on each axis
	for range 3 {
		if _, err := s.ReadRegion(ctx, lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ReadField(ctx); err != nil {
		t.Fatal(err)
	}
	low, high := slices.Min(ds.Data), slices.Max(ds.Data)
	res, err := s.Query(ctx, QueryRequest{Op: QueryHist, Low: float64(low), High: float64(high), Bins: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.BricksDecoded < 56 {
		t.Fatalf("the query decoded %d bricks; the scan must pass the 56 cold ones through the cache", res.BricksDecoded)
	}
	before := s.Stats()
	if _, err := s.ReadRegion(ctx, lo, hi); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if d := after.BricksDecoded - before.BricksDecoded; d != 0 {
		t.Fatalf("the scans evicted %d of the 8 hot bricks", d)
	}
	if got := s.cache.rejectedBytes(); got < 2*56*brickBytes {
		t.Fatalf("admission refused %d bytes; want both scans' 56 cold bricks (%d)", got, 2*56*brickBytes)
	}
}

// TestCacheFreqTableBound passes far more distinct bricks than the cache
// holds, with hits on the cached ones between them, and checks the
// frequency table's stated bound after every operation: at most
// freqTableFactor × (entries+1) keys.
func TestCacheFreqTableBound(t *testing.T) {
	const sz = 4 * 16
	c := newLRUCache(4 * sz)
	rng := rand.New(rand.NewSource(1))
	check := func(i int) {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		if n, limit := len(c.freq), freqTableFactor*(len(c.byKey)+1); n > limit {
			t.Fatalf("after %d puts the table holds %d keys, over its bound %d", i, n, limit)
		}
	}
	hot := []cacheKey{{brick: -1}, {brick: -2}}
	for i := 0; i < 20000; i++ {
		key := cacheKey{brick: i}
		if i%5 == 0 {
			key = hot[rng.Intn(len(hot))]
		}
		if ent, ok := c.get(key); ok {
			ent.release()
		} else if ent := offerPut(c, key, make([]float32, sz/4), sz); ent != nil {
			ent.release()
		}
		check(i)
	}
	for _, key := range hot {
		ent, ok := c.get(key)
		if !ok {
			t.Fatalf("hot brick %d was pushed out by one-off bricks", key.brick)
		}
		ent.release()
	}
}

// TestCacheEvictOwnerDropsCounts closes one of two stores sharing a cache
// and checks that no read count is left keyed by it: a count's key holds
// its *Store, so a leftover would keep the closed store reachable.
func TestCacheEvictOwnerDropsCounts(t *testing.T) {
	shared := NewCache(4 * brickBytes) // fewer bricks than are read, so some are refused
	f32, _ := releaseFields()
	open := func() *Store {
		s, err := Open(bytes.NewReader(f32), int64(len(f32)), Options{Cache: shared})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := open(), open()
	ctx := context.Background()
	for _, s := range []*Store{s1, s2} {
		for range 2 {
			if _, err := s.ReadRegion(ctx, []int{0, 0, 0}, []int{16, 16, 24}); err != nil {
				t.Fatal(err)
			}
		}
	}
	owned := func(s *Store) (keys int) {
		shared.lru.mu.Lock()
		defer shared.lru.mu.Unlock()
		for k := range shared.lru.freq {
			if k.owner == s {
				keys++
			}
		}
		return keys
	}
	if owned(s1) == 0 || owned(s2) == 0 {
		t.Fatalf("reads left no counts: %d and %d keys", owned(s1), owned(s2))
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if n := owned(s1); n != 0 {
		t.Fatalf("%d counts still keyed by the closed store", n)
	}
	if owned(s2) == 0 {
		t.Fatal("closing one store dropped the other's counts")
	}
}

// FuzzCacheProtocol runs random sequences of get, put, release and
// evictOwner over float32 and float64 entries of mixed sizes, with slab
// poisoning on, against a model of who holds each slab: the entries the
// cache lists and the references the caller holds. After every operation
// the cache must be within its budget and hold what the model says, each
// entry's reference count must be its listing plus the caller's holds, a
// slab put refused must still be the caller's, intact, and a slab nobody
// holds must have been handed back — exactly once, or the pool panics.
func FuzzCacheProtocol(f *testing.F) {
	f.Add(uint8(7), []byte{0, 0, 0, 3, 0, 6, 1, 0, 0, 9, 0, 9, 0, 9, 2, 0, 3, 0, 0, 2, 1, 2})
	f.Add(uint8(2), []byte{0, 2, 0, 2, 1, 2, 0, 5, 0, 5, 0, 5, 2, 1, 2, 0, 0, 14, 0, 14, 3, 2, 1, 5})
	f.Add(uint8(15), []byte{0, 1, 0, 4, 0, 7, 0, 10, 1, 1, 1, 4, 3, 1, 2, 0, 2, 0, 0, 13, 0, 13})
	owners := []*Store{{}, {}, {}} // the third is a float64 store
	f.Fuzz(func(t *testing.T, budget uint8, ops []byte) {
		pool.PoisonSlabs(true)
		defer pool.PoisonSlabs(false)
		c := newLRUCache(64 * (1 + int64(budget%16)))
		type slab struct {
			key  cacheKey
			data any
			mark float64
			ent  *cacheEntry // nil when put refused it
			held int         // references the caller holds
			done bool        // handed back, and seen so
		}
		var slabs, held []*slab // held: one element per reference
		listed := map[cacheKey]*slab{}
		samples := func(data any) []float64 {
			var out []float64
			switch d := data.(type) {
			case []float32:
				for _, v := range d {
					out = append(out, float64(v))
				}
			case []float64:
				out = append(out, d...)
			}
			return out
		}
		all := func(data any, v float64) bool {
			for _, x := range samples(data) {
				if x != v {
					return false
				}
			}
			return true
		}
		check := func(step int) {
			t.Helper()
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.bytes > c.budget {
				t.Fatalf("step %d: %d bytes cached over a budget of %d", step, c.bytes, c.budget)
			}
			var sum int64
			for el := c.order.Front(); el != nil; el = el.Next() {
				ent := el.Value.(*cacheEntry)
				if sl := listed[ent.key]; sl == nil || sl.ent != ent || c.byKey[ent.key] != el {
					t.Fatalf("step %d: the cache lists brick %v, which was never put or was put elsewhere", step, ent.key)
				}
				sum += ent.bytes
			}
			if sum != c.bytes || len(c.byKey) != c.order.Len() {
				t.Fatalf("step %d: %d entries of %d bytes listed, %d keyed and %d bytes counted", step, c.order.Len(), sum, len(c.byKey), c.bytes)
			}
			for k, sl := range listed {
				if el, ok := c.byKey[k]; !ok || el.Value.(*cacheEntry) != sl.ent {
					delete(listed, k) // evicted
				}
			}
			if n, limit := len(c.freq), freqTableFactor*(len(c.byKey)+1); n > limit {
				t.Fatalf("step %d: the table holds %d keys, over its bound %d", step, n, limit)
			}
			for _, sl := range slabs {
				if sl.done {
					continue
				}
				in := listed[sl.key] == sl
				if sl.ent != nil {
					want := int32(sl.held)
					if in {
						want++
					}
					if got := sl.ent.refs.Load(); got != want {
						t.Fatalf("step %d: brick %v holds %d references, want %d", step, sl.key, got, want)
					}
				}
				switch {
				case in || sl.held > 0:
					if !all(sl.data, sl.mark) {
						t.Fatalf("step %d: brick %v was handed back while still held", step, sl.key)
					}
				case !all(sl.data, 0xA5):
					t.Fatalf("step %d: brick %v, held by nobody, was not handed back", step, sl.key)
				default:
					sl.done = true
				}
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			key := cacheKey{owner: owners[arg%3], brick: int(arg/3) % 6}
			switch ops[i] % 4 {
			case 0: // a decode offered to the cache
				sl := &slab{key: key, mark: -float64(len(slabs) + 1)}
				n := 16 * (1 + key.brick%4)
				var bytes int64
				if key.owner == owners[2] {
					d := pool.Slab[float64](n)
					for j := range d {
						d[j] = sl.mark
					}
					sl.data, bytes = d, int64(8*n)
				} else {
					d := pool.Slab[float32](n)
					for j := range d {
						d[j] = float32(sl.mark)
					}
					sl.data, bytes = d, int64(4*n)
				}
				slabs = append(slabs, sl)
				_, dup := listed[key]
				if sl.ent = offerPut(c, key, sl.data, bytes); sl.ent == nil {
					if !all(sl.data, sl.mark) {
						t.Fatalf("step %d: a refused put did not leave brick %v with the caller", i, key)
					}
					putSamples(sl.data) // the reader's own hand-back
					break
				}
				if dup {
					t.Fatalf("step %d: brick %v was taken twice", i, key)
				}
				listed[key] = sl
				sl.held++
				held = append(held, sl)
			case 1: // a read that looks the brick up
				ent, ok := c.get(key)
				sl := listed[key]
				if ok != (sl != nil) || ok && ent != sl.ent {
					t.Fatalf("step %d: get(%v) = %v, but the model lists %v", i, key, ok, sl != nil)
				}
				if ok {
					sl.held++
					held = append(held, sl)
				}
			case 2: // a reader done copying
				if len(held) == 0 {
					break
				}
				j := int(arg) % len(held)
				sl := held[j]
				held = append(held[:j], held[j+1:]...)
				sl.held--
				sl.ent.release()
			case 3: // a store closing
				c.evictOwner(key.owner)
				c.mu.Lock()
				for k := range c.freq {
					if k.owner == key.owner {
						t.Fatalf("step %d: a count of the closed store survives: %v", i, k)
					}
				}
				c.mu.Unlock()
			}
			check(i)
		}
		for _, sl := range held {
			sl.held--
			sl.ent.release()
		}
		for _, o := range owners {
			c.evictOwner(o)
		}
		check(len(ops))
		for _, sl := range slabs {
			if !sl.done {
				t.Fatalf("brick %v was never handed back", sl.key)
			}
		}
	})
}
