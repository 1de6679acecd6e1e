package store

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"qoz"
	"qoz/datagen"
	"qoz/internal/pool"
)

// Release protocol. A decoded brick lives in a pool slab: the cache holds
// one reference while the brick is listed, every reader one while it
// copies, and the last release hands the slab back for the next decode.
// These tests turn slab poisoning on, so a slab read after its release
// serves the poison pattern (and races its overwrite under -race), and a
// slab released twice panics. Each compares every read with a reference
// taken before poisoning from a store that does not cache.

// poisonSlabs turns slab poisoning on for the rest of the test.
func poisonSlabs(t *testing.T) {
	pool.PoisonSlabs(true)
	t.Cleanup(func() { pool.PoisonSlabs(false) })
}

// releaseFields are the stores the release tests read, written once: a
// 32³ NYX field as 8³ bricks, in float32 and in float64 with three points
// beyond float32's precision, stored as exact escapes.
var releaseFields = sync.OnceValues(func() (f32, f64 []byte) {
	ds := datagen.NYX(32, 32, 32)
	wide := make([]float64, len(ds.Data))
	for i, v := range ds.Data {
		wide[i] = float64(v)
	}
	for _, i := range []int{0, 1000, 20000} {
		wide[i] = 1e12 + 0.5
	}
	wo := WriteOptions{Opts: qoz.Options{ErrorBound: 1e-2}, Brick: []int{8, 8, 8}}
	var b32, b64 bytes.Buffer
	if err := errors.Join(WriteT(context.Background(), &b32, ds.Data, ds.Dims, wo),
		WriteT(context.Background(), &b64, wide, ds.Dims, wo)); err != nil {
		panic(err)
	}
	return b32.Bytes(), b64.Bytes()
})

// releaseStores opens a copy of a release field twice over the same
// bytes: once with so, once uncached as the reference.
func releaseStores(t *testing.T, field []byte, so Options) (s, ref *Store, content []byte) {
	t.Helper()
	content = slices.Clone(field)
	s, err := Open(bytes.NewReader(content), int64(len(content)), so)
	if err != nil {
		t.Fatal(err)
	}
	if ref, err = Open(bytes.NewReader(content), int64(len(content)), Options{CacheBytes: -1}); err != nil {
		t.Fatal(err)
	}
	return s, ref, content
}

// releaseStore32 is releaseStores over the float32 field.
func releaseStore32(t *testing.T, so Options) (s, ref *Store, content []byte) {
	t.Helper()
	f32, _ := releaseFields()
	return releaseStores(t, f32, so)
}

// brickBytes is the decoded size of one 8³ float32 brick.
const brickBytes = 8 * 8 * 8 * 4

// randomBox returns a box of the 32³ field, from minExt to 17 points on a
// side, crossing up to 27 of its bricks. A side of 4 or more holds points
// of the level-3 grid.
func randomBox(rng *rand.Rand, minExt int) ([]int, []int) {
	lo, hi := make([]int, 3), make([]int, 3)
	for d := range lo {
		lo[d] = rng.Intn(32 - minExt + 1)
		hi[d] = lo[d] + minExt + rng.Intn(min(17-minExt, 32-lo[d]-minExt)+1)
	}
	return lo, hi
}

// hammer runs read from several goroutines at once, each on its own rng.
func hammer(t *testing.T, goroutines, reads int, read func(rng *rand.Rand) error) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < reads; i++ {
				if err := read(rng); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// regionsMatch reads random boxes from s in parallel and checks each
// against the same box of ref.
func regionsMatch(t *testing.T, s, ref *Store) {
	t.Helper()
	ctx := context.Background()
	hammer(t, 4, 25, func(rng *rand.Rand) error {
		lo, hi := randomBox(rng, 1)
		got, err := s.ReadRegion(ctx, lo, hi)
		if err != nil {
			return err
		}
		want, err := ref.ReadRegion(ctx, lo, hi)
		if err != nil {
			return err
		}
		if !slices.Equal(got, want) {
			t.Errorf("box %v-%v: a read served a released slab", lo, hi)
		}
		return nil
	})
}

// TestReleaseHeldBrickOutlivesEviction holds a cached brick the way a
// reader does between cachedBrick and its copy, evicts it with a brick read
// more often, and checks that the held samples stay intact until the
// holder releases them — and that the release is what hands them back.
func TestReleaseHeldBrickOutlivesEviction(t *testing.T) {
	s, _, _ := releaseStore32(t, Options{CacheBytes: brickBytes}) // room for one brick
	poisonSlabs(t)
	ctx := context.Background()
	if _, err := s.ReadRegion(ctx, []int{0, 0, 0}, []int{8, 8, 8}); err != nil {
		t.Fatal(err)
	}
	m := s.man.Load()
	held, ent := cachedBrick[float32](s, m, 0, 0, nil)
	if ent == nil {
		t.Fatal("brick 0 is not cached after reading it")
	}
	want := slices.Clone(held)
	// Brick 0 has been read twice (the read and cachedBrick), so brick 1
	// is admitted on its third read, and evicts brick 0.
	for range 3 {
		if _, err := s.ReadRegion(ctx, []int{0, 0, 8}, []int{8, 8, 16}); err != nil {
			t.Fatal(err)
		}
	}
	if _, again := cachedBrick[float32](s, m, 0, 0, nil); again != nil {
		t.Fatal("brick 0 survived a read of brick 1 in a one-brick cache")
	}
	if !slices.Equal(held, want) {
		t.Fatal("an evicted brick was recycled while a reader still held it")
	}
	releaseBrick(held, ent)
	if slices.Equal(held, want) {
		t.Fatal("the last release of an evicted brick did not hand its slab back")
	}
	if got := s.cache.evictedBytes(); got != brickBytes {
		t.Fatalf("evicted bytes = %d, want one brick (%d)", got, brickBytes)
	}
}

// TestReleaseConcurrentEviction reads random boxes from several goroutines
// through a cache of three bricks, so entries are evicted while other
// reads still copy out of them.
func TestReleaseConcurrentEviction(t *testing.T) {
	s, ref, _ := releaseStore32(t, Options{CacheBytes: 3 * brickBytes, Workers: 4})
	poisonSlabs(t)
	regionsMatch(t, s, ref)
	if st := s.Stats(); st.CacheHits == 0 || s.cache.evictedBytes() == 0 {
		t.Fatalf("the reads neither hit nor evicted: %+v, evicted %d", st, s.cache.evictedBytes())
	}
}

// TestReleaseUncached reads with caching off: every decode belongs to the
// read that made it, which releases it itself.
func TestReleaseUncached(t *testing.T) {
	s, ref, _ := releaseStore32(t, Options{CacheBytes: -1, Workers: 4})
	poisonSlabs(t)
	regionsMatch(t, s, ref)
}

// TestReleaseDuplicateDecode has every goroutine decode the same bricks
// at once, so most decodes find their key cached by another and are
// released by their reader rather than taken by the cache.
func TestReleaseDuplicateDecode(t *testing.T) {
	s, ref, _ := releaseStore32(t, Options{Workers: 4})
	poisonSlabs(t)
	ctx := context.Background()
	lo, hi := []int{4, 4, 4}, []int{20, 20, 20}
	want, err := ref.ReadRegion(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		s.cache.evictOwner(s)
		hammer(t, 4, 1, func(*rand.Rand) error {
			got, err := s.ReadRegion(ctx, lo, hi)
			if err == nil && !slices.Equal(got, want) {
				t.Error("a read served a released slab")
			}
			return err
		})
	}
}

// TestReleaseLevelReads reads stride-2 and stride-4 grids: their bricks
// decode to the compacted coarse grid, whose full-size reconstruction
// goes back to the pool at once.
func TestReleaseLevelReads(t *testing.T) {
	s, ref, _ := releaseStore32(t, Options{CacheBytes: 4 * brickBytes, Workers: 4})
	poisonSlabs(t)
	ctx := context.Background()
	hammer(t, 4, 20, func(rng *rand.Rand) error {
		lo, hi := randomBox(rng, 4)
		level := 2 + rng.Intn(2)
		got, _, err := s.ReadRegionLevel(ctx, lo, hi, level)
		if err != nil {
			return err
		}
		want, _, err := ref.ReadRegionLevel(ctx, lo, hi, level)
		if err != nil {
			return err
		}
		if !slices.Equal(got, want) {
			t.Errorf("level %d box %v-%v: a read served a released slab", level, lo, hi)
		}
		return nil
	})
}

// TestReleaseFloat64 reads a float64 store, whose decode widens the
// float32 heads into a float64 slab and hands the heads back.
func TestReleaseFloat64(t *testing.T) {
	_, f64 := releaseFields()
	s, ref, _ := releaseStores(t, f64, Options{CacheBytes: 3 * 2 * brickBytes, Workers: 4})
	poisonSlabs(t)
	ctx := context.Background()
	hammer(t, 4, 20, func(rng *rand.Rand) error {
		lo, hi := randomBox(rng, 1)
		got, err := ReadRegionT[float64](ctx, s, lo, hi)
		if err != nil {
			return err
		}
		want, err := ReadRegionT[float64](ctx, ref, lo, hi)
		if err != nil {
			return err
		}
		if !slices.Equal(got, want) {
			t.Errorf("box %v-%v: a float64 read served a released slab", lo, hi)
		}
		return nil
	})
}

// TestReleaseMultiBox reads box lists that share bricks, at levels 1 and
// 2, so one decode is copied into several pieces before its release.
func TestReleaseMultiBox(t *testing.T) {
	s, ref, _ := releaseStore32(t, Options{CacheBytes: 3 * brickBytes, Workers: 4})
	poisonSlabs(t)
	ctx := context.Background()
	hammer(t, 4, 15, func(rng *rand.Rand) error {
		var boxes []Box
		points := 0
		level := 1 + rng.Intn(2)
		for k := 0; k < 3; k++ {
			lo, hi := randomBox(rng, 4)
			g, err := levelGrid(lo, hi, level)
			if err != nil {
				return err
			}
			boxes, points = append(boxes, Box{lo, hi}), points+g.N
		}
		got, want := make([]float32, points), make([]float32, points)
		if _, _, err := ReadBoxesIntoT(ctx, s, got, boxes, level); err != nil {
			return err
		}
		if _, _, err := ReadBoxesIntoT(ctx, ref, want, boxes, level); err != nil {
			return err
		}
		if !slices.Equal(got, want) {
			t.Errorf("level %d boxes %v: a read served a released slab", level, boxes)
		}
		return nil
	})
}

// TestReleaseQueryScans runs threshold and histogram queries, whose scans
// read each decode through an iterator before the task releases it.
func TestReleaseQueryScans(t *testing.T) {
	s, ref, _ := releaseStore32(t, Options{CacheBytes: 3 * brickBytes, Workers: 4})
	full, err := ref.ReadField(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := slices.Min(full), slices.Max(full)
	poisonSlabs(t)
	ctx := context.Background()
	hammer(t, 4, 10, func(rng *rand.Rand) error {
		blo, bhi := randomBox(rng, 1)
		mid := float64(lo + (hi-lo)*rng.Float32())
		for _, req := range []QueryRequest{
			{Lo: blo, Hi: bhi, Op: QueryGT, Value: mid, MaxLocations: 16},
			{Lo: blo, Hi: bhi, Op: QueryHist, Low: float64(lo), High: float64(hi), Bins: 8},
		} {
			got, err := s.Query(ctx, req)
			if err != nil {
				return err
			}
			want, err := ref.Query(ctx, req)
			if err != nil {
				return err
			}
			if got.Count != want.Count || !slices.Equal(got.Bins, want.Bins) || !slices.EqualFunc(got.Locations, want.Locations, slices.Equal) {
				t.Errorf("%s over %v-%v: %+v, want %+v", req.Op, blo, bhi, got, want)
			}
		}
		return nil
	})
}

// TestReleaseClippedNeverCached reads parts of bricks through a one-brick
// cache, so decodes are admitted and refused in turn, and checks every
// read against the uncached reference. A decode the cache admits must be
// whole even when its read wants part of the brick; one it refuses is
// clipped to the part and handed back by its reader, never listed — so
// the reads of other parts that follow, hits on the same brick, serve
// whole-decode values.
func TestReleaseClippedNeverCached(t *testing.T) {
	s, ref, _ := releaseStore32(t, Options{CacheBytes: brickBytes, Workers: 1}) // room for one brick
	poisonSlabs(t)
	ctx := context.Background()
	read := func(lo, hi []int) {
		t.Helper()
		got, err := s.ReadRegion(ctx, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.ReadRegion(ctx, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("box %v-%v: served values no whole decode holds (stats %+v)", lo, hi, s.Stats())
		}
	}
	// Brick 0 into the empty cache: admitted, so decoded whole although
	// the read wants a corner; the rest of the brick is then a hit.
	read([]int{1, 1, 1}, []int{5, 5, 5})
	read([]int{5, 0, 0}, []int{8, 8, 8})
	if st := s.Stats(); st.BricksDecoded != 1 || st.BricksClipped != 0 || st.CacheHits != 1 {
		t.Fatalf("an admitted decode was clipped, or not cached: %+v", st)
	}
	// A corner of brick 1 (z offset 8), read less often than brick 0:
	// refused, so clipped.
	read([]int{1, 1, 9}, []int{5, 5, 13})
	if st := s.Stats(); st.BricksDecoded != 2 || st.BricksClipped != 1 {
		t.Fatalf("a refused partial decode was not clipped: %+v", st)
	}
	// Brick 1 whole: refused once more (read as often as brick 0), then
	// admitted; another part of it is a hit on that whole decode.
	read([]int{0, 0, 8}, []int{8, 8, 16})
	read([]int{0, 0, 8}, []int{8, 8, 16})
	read([]int{5, 0, 8}, []int{8, 8, 16})
	if st := s.Stats(); st.BricksDecoded != 4 || st.BricksClipped != 1 || st.CacheHits != 2 {
		t.Fatalf("brick 1 was not admitted whole after its third read: %+v", st)
	}
}

// TestClippedReplayKeepsCacheCounts replays 600 random boxes one at a
// time on one worker through a cache of six bricks. Clipping changes what
// a refused decode reconstructs, never what the cache sees: the reads,
// hits, decodes and admission's refused and evicted bytes equal those of
// the code before clipping (the figures below, measured on it).
func TestClippedReplayKeepsCacheCounts(t *testing.T) {
	s, _, _ := releaseStore32(t, Options{CacheBytes: 6 * brickBytes, Workers: 1})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(43))
	for range 600 {
		lo, hi := randomBox(rng, 1)
		if _, err := s.ReadRegion(ctx, lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	got := [5]int64{st.BricksRead, st.CacheHits, st.BricksDecoded, s.cache.rejectedBytes(), s.cache.evictedBytes()}
	want := [5]int64{replayReads, replayHits, replayDecoded, replayRejected, replayEvicted}
	if got != want {
		t.Fatalf("reads, hits, decodes, rejected and evicted bytes = %v, want %v", got, want)
	}
	if st.BricksClipped == 0 || st.BricksClipped >= st.BricksDecoded {
		t.Fatalf("%d of %d decodes clipped: the replay does not exercise both kinds", st.BricksClipped, st.BricksDecoded)
	}
}

// replayReads … replayEvicted are TestClippedReplayKeepsCacheCounts's
// figures.
const (
	replayReads, replayHits, replayDecoded = 2875, 427, 2448
	replayRejected, replayEvicted          = 4835328, 165888
)

// TestReleaseCorruptPayload flips bytes of one brick's payload (with its
// checksum fixed up, so the codec sees them) and reads it: whether a flip
// fails the decode or changes its values, every read after it of the
// other bricks must match the reference.
func TestReleaseCorruptPayload(t *testing.T) {
	s, ref, content := releaseStore32(t, Options{CacheBytes: -1})
	m := s.man.Load()
	const bad = 5
	e := &m.bricks[bad]
	payload := content[e.off : e.off+e.len]
	poisonSlabs(t)
	ctx := context.Background()
	lo, hi := []int{0, 8, 8}, []int{16, 24, 24} // bricks 5, 6, 9, 10, 21, 22, 25, 26: bad among them
	other, otherHi := []int{16, 16, 16}, []int{32, 32, 32}
	want, err := ref.ReadRegion(ctx, other, otherHi)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for at := 0; at < len(payload); at += max(1, len(payload)/64) {
		payload[at] ^= 0x5a
		e.crc = crc32.ChecksumIEEE(payload)
		if _, err := s.ReadRegion(ctx, lo, hi); err != nil {
			failed++
		}
		payload[at] ^= 0x5a
		got, err := s.ReadRegion(ctx, other, otherHi)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("after a corrupt decode (byte %d), a read served a released slab", at)
		}
	}
	if failed == 0 {
		t.Fatal("no flip made the decode fail: the error paths went untested")
	}
}

// TestColdBrickDecodeAllocations pins what a cold read of one 32³ brick
// allocates once the pools are warm. The brick decodes into a recycled
// slab (128 KiB of samples), its sections inflate into another, its
// Huffman table is parsed into recycled storage, and the read's output is
// the caller's buffer; what remains is small per-read and per-stream
// bookkeeping.
func TestColdBrickDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what it is given")
	}
	ds := datagen.NYX(32, 32, 32)
	s, _ := buildStore(t, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{32, 32, 32}},
		Options{CacheBytes: -1}) // every read decodes
	ctx := context.Background()
	lo, hi := []int{0, 0, 0}, []int{32, 32, 32}
	dst := make([]float32, boxPoints(lo, hi))
	read := func() {
		if err := s.ReadRegionInto(ctx, dst, lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	perRead := allocBytesPerRead(3, runs, read)
	t.Logf("%d bytes allocated per read", perRead)
	if perRead > coldBrickAllocBound {
		t.Fatalf("a cold 32³ brick read allocates %d bytes; want at most %d (the brick alone is %d)", perRead, coldBrickAllocBound, 32*32*32*4)
	}
	if st := s.Stats(); st.BricksDecoded != runs+3 {
		t.Fatalf("reads were not cold: %+v", st)
	}
}

// TestClippedColdBrickDecodeAllocations is TestColdBrickDecodeAllocations
// for a read of part of the brick, whose decode is clipped: the per-pass
// clips are built in a recycled array, and the box adds a few bytes,
// under the same bound.
func TestClippedColdBrickDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what it is given")
	}
	ds := datagen.NYX(32, 32, 32)
	s, _ := buildStore(t, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{32, 32, 32}},
		Options{CacheBytes: -1}) // every read decodes
	ctx := context.Background()
	lo, hi := []int{5, 9, 3}, []int{21, 30, 19}
	dst := make([]float32, boxPoints(lo, hi))
	read := func() {
		if err := s.ReadRegionInto(ctx, dst, lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	perRead := allocBytesPerRead(3, runs, read)
	t.Logf("%d bytes allocated per read", perRead)
	if perRead > coldBrickAllocBound {
		t.Fatalf("a clipped cold read of a 32³ brick allocates %d bytes; want at most %d", perRead, coldBrickAllocBound)
	}
	if st := s.Stats(); st.BricksDecoded != runs+3 || st.BricksClipped != runs+3 {
		t.Fatalf("reads were not clipped cold decodes: %+v", st)
	}
}

// allocBytesPerRead returns the heap bytes one call of read allocates, on
// average over runs calls made after warm calls that fill the pools. Two
// things would count pool misses as the reads' own allocations: a
// collection inside the loop, which empties the pools, and the reading
// goroutine moving to another P, whose pools do not hold what the last
// one put back (sync.Pool keeps each P's most recent put to that P). So
// the collector is off while the measured calls run, and every call runs
// on one P. Without the second, under -test.memprofilerate 1, a third of
// the runs counted a slab drawn afresh.
func allocBytesPerRead(warm, runs int, read func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // before the warm calls: a change of GOMAXPROCS empties the pools
	for range warm {
		read()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		read()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// coldBrickAllocBound is 2 KiB. Measured on linux/amd64 with Go 1.24,
// the collector off, in every run: 1 920 bytes per read, 1 968 clipped,
// which leaves 80 bytes of headroom. What is left is per read and per
// stream bookkeeping — the fetch plan, the container's Stream and section
// list, the payload's segment list, the pyramid — and not one byte per
// section or per table: before the sections were inflated in memory into
// a recycled slab and the Huffman tables parsed into recycled storage, a
// read measured 11.3 KB (12.1 KB clipped), and 181 KiB before the
// reconstruction was recycled.
const coldBrickAllocBound = 2 << 10
