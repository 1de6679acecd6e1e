package store

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qoz"
	"qoz/datagen"
)

// The benchmark corpus: a 64 MiB (256^3 float32) NYX field bricked at
// 32^3, built once and shared by the speedup test and the benchmarks.
var benchCorpus struct {
	once sync.Once
	raw  []byte
	err  error
}

func benchStore(tb testing.TB, cacheBytes int64) *Store {
	tb.Helper()
	benchCorpus.once.Do(func() {
		ds := datagen.NYX(256, 256, 256)
		var buf bytes.Buffer
		benchCorpus.err = Write(context.Background(), &buf, ds.Data, ds.Dims,
			WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{32, 32, 32}})
		benchCorpus.raw = buf.Bytes()
	})
	if benchCorpus.err != nil {
		tb.Fatal(benchCorpus.err)
	}
	s, err := Open(bytes.NewReader(benchCorpus.raw), int64(len(benchCorpus.raw)), Options{CacheBytes: cacheBytes})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestSmallROIBeatsFullDecode is the store's reason to exist, pinned as an
// acceptance test: extracting a ~1% subvolume of a 64 MiB field must be at
// least 10x faster than decoding the whole field, because only the
// intersecting bricks run through the codec.
func TestSmallROIBeatsFullDecode(t *testing.T) {
	if testing.Short() {
		t.Skip("64 MiB corpus build in -short mode")
	}
	ctx := context.Background()
	s := benchStore(t, -1)                      // cache off: measure cold decodes
	lo, hi := []int{0, 0, 0}, []int{32, 64, 64} // 0.78% of the volume, 4 bricks of 512

	t0 := time.Now()
	if _, err := s.ReadField(ctx); err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)

	roi := time.Duration(1 << 62)
	for i := 0; i < 3; i++ { // best of 3 to shrug off scheduler noise
		t0 = time.Now()
		if _, err := s.ReadRegion(ctx, lo, hi); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d < roi {
			roi = d
		}
	}
	if st := s.Stats(); st.BricksDecoded != int64(s.NumBricks())+3*4 {
		t.Fatalf("decoded %d bricks; want %d (full field) + 3 runs x 4 ROI bricks", st.BricksDecoded, s.NumBricks())
	}
	if ratio := full.Seconds() / roi.Seconds(); ratio < 10 {
		t.Fatalf("ROI extract only %.1fx faster than full decode (full %v, roi %v); want >= 10x", ratio, full, roi)
	}
}

// TestQueryBeatsFullDecode pins the query-pushdown payoff the same way
// TestSmallROIBeatsFullDecode pins region reads: a selective threshold
// query over the 64 MiB corpus must run at least 10x faster than the full
// decode it replaces, because the statistics index prunes every brick
// whose value range clears the predicate — while returning exactly the
// count a brute-force scan of the decoded field yields.
func TestQueryBeatsFullDecode(t *testing.T) {
	if testing.Short() {
		t.Skip("64 MiB corpus build in -short mode")
	}
	ctx := context.Background()
	s := benchStore(t, -1) // cache off: pruned bricks are genuinely never decoded
	defer s.Close()

	// Place the threshold at the 8th-largest per-brick maximum, from the
	// statistics alone: at most a handful of the 512 bricks can hold a
	// point above it, everything else prunes all-out.
	maxes := make([]float64, 0, s.NumBricks())
	for i := 0; i < s.NumBricks(); i++ {
		st, ok := s.BrickStats(i)
		if !ok {
			t.Fatalf("brick %d: fresh write carries no statistics", i)
		}
		maxes = append(maxes, st.Max)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(maxes)))
	threshold := maxes[7]

	t0 := time.Now()
	field, err := s.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)
	var want int64
	for _, v := range field {
		if float64(v) > threshold {
			want++
		}
	}

	var res *QueryResult
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ { // best of 3 to shrug off scheduler noise
		t0 = time.Now()
		res, err = s.Query(ctx, QueryRequest{Op: QueryGT, Value: threshold})
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	if res.Count != want {
		t.Fatalf("query counted %d points > %g, full decode %d", res.Count, threshold, want)
	}
	if res.BricksPruned == 0 || res.BricksDecoded > 32 {
		t.Fatalf("selective predicate pruned %d and decoded %d of %d bricks; pushdown is not working",
			res.BricksPruned, res.BricksDecoded, res.BricksTotal)
	}
	if ratio := full.Seconds() / best.Seconds(); ratio < 10 {
		t.Fatalf("query only %.1fx faster than full decode (full %v, query %v); want >= 10x", ratio, full, best)
	}
}

// BenchmarkQueryPruned measures a selective threshold query: nearly every
// brick resolves from the statistics index.
func BenchmarkQueryPruned(b *testing.B) {
	s := benchStore(b, -1)
	defer s.Close()
	ctx := context.Background()
	st, ok := s.BrickStats(0)
	if !ok {
		b.Fatal("no statistics")
	}
	threshold := st.Max // selective for most, not all, bricks
	for i := 1; i < s.NumBricks(); i++ {
		if bs, _ := s.BrickStats(i); bs.Max > threshold {
			threshold = bs.Max
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(ctx, QueryRequest{Op: QueryGT, Value: threshold - 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryScan measures the unprunable worst case: a histogram so
// fine-grained every brick straddles a bin edge and must decode.
func BenchmarkQueryScan(b *testing.B) {
	s := benchStore(b, -1)
	defer s.Close()
	ctx := context.Background()
	b.SetBytes(256 * 256 * 256 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(ctx, QueryRequest{Op: QueryHist, Low: 0, High: 1, Bins: 1 << 14}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadRegionSmallROICold(b *testing.B) {
	s := benchStore(b, -1)
	ctx := context.Background()
	b.SetBytes(32 * 64 * 64 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadRegion(ctx, []int{0, 0, 0}, []int{32, 64, 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadRegionUnalignedCold reads boxes of a serving scan's shape
// with the cache off: edge 1.5 bricks at offset brick·k + 1 + U[0,
// brick/2) per axis, so each box straddles one brick boundary per axis,
// touches 8 bricks and needs part of each — the reads a clipped decode
// serves. BenchmarkReadRegionSmallROICold's box is brick-aligned and
// decodes its bricks whole.
func BenchmarkReadRegionUnalignedCold(b *testing.B) {
	s := benchStore(b, -1)
	ctx := context.Background()
	const brick, edge = 32, 256
	rng := rand.New(rand.NewSource(1))
	boxes := make([][2][]int, 64)
	for i := range boxes {
		lo, hi := make([]int, 3), make([]int, 3)
		for a := range lo {
			lo[a] = brick*rng.Intn(edge/brick-1) + 1 + rng.Intn(brick/2)
			hi[a] = lo[a] + brick + brick/2
		}
		boxes[i] = [2][]int{lo, hi}
	}
	b.SetBytes(48 * 48 * 48 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bx := boxes[i%len(boxes)]
		if _, err := s.ReadRegion(ctx, bx[0], bx[1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadRegionSmallROICached(b *testing.B) {
	s := benchStore(b, DefaultCacheBytes)
	ctx := context.Background()
	b.SetBytes(32 * 64 * 64 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadRegion(ctx, []int{0, 0, 0}, []int{32, 64, 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadRegionIntoSmallROICached is the steady-state serving shape:
// a reused destination buffer and a warm cache, pinned at 0 allocs/op by
// TestReadRegionIntoCachedZeroAlloc.
func BenchmarkReadRegionIntoSmallROICached(b *testing.B) {
	s := benchStore(b, DefaultCacheBytes)
	ctx := context.Background()
	lo, hi := []int{0, 0, 0}, []int{32, 64, 64}
	dst := make([]float32, 32*64*64)
	if err := s.ReadRegionInto(ctx, dst, lo, hi); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(32 * 64 * 64 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ReadRegionInto(ctx, dst, lo, hi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBoxesLevelCached is the same steady state one level down:
// two boxes of a warm level-2 read into a reused buffer, the shape a shard
// serves a gateway's coarse fan-out in. The fill loop copies level-prefix
// decodes out of the cache as it does full ones: 0 allocs/op
// (TestReadBoxesIntoCachedZeroAlloc).
func BenchmarkReadBoxesLevelCached(b *testing.B) {
	s := benchStore(b, DefaultCacheBytes)
	ctx := context.Background()
	boxes := []Box{{Lo: []int{0, 0, 0}, Hi: []int{32, 64, 64}}, {Lo: []int{40, 8, 8}, Hi: []int{104, 72, 40}}}
	dst := make([]float32, 16*32*32+32*32*16)
	if _, _, err := ReadBoxesIntoT(ctx, s, dst, boxes, 2); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(dst)) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadBoxesIntoT(ctx, s, dst, boxes, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadRegionSmallROICachedObserved is the cached ROI read with a
// stage observer registered — the shape every instrumented qozd request
// takes. Comparing against BenchmarkReadRegionSmallROICached bounds the
// observability overhead (the acceptance bar is <2%).
func BenchmarkReadRegionSmallROICachedObserved(b *testing.B) {
	s := benchStore(b, DefaultCacheBytes)
	var fetches, decodes, hits atomic.Int64
	ctx := WithStageObserver(context.Background(), func(st Stage, d time.Duration, bytes int64) {
		switch st {
		case StageFetch:
			fetches.Add(1)
		case StageDecode:
			decodes.Add(1)
		case StageCacheHit:
			hits.Add(1)
		}
	})
	b.SetBytes(32 * 64 * 64 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadRegion(ctx, []int{0, 0, 0}, []int{32, 64, 64}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadFullField(b *testing.B) {
	s := benchStore(b, -1)
	ctx := context.Background()
	b.SetBytes(256 * 256 * 256 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadField(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
