package store

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"qoz"
	"qoz/datagen"
)

// buildStore64 writes a float64 field into an in-memory store and opens
// it with the default cache.
func buildStore64(t *testing.T, data []float64, dims []int, wo WriteOptions) (*Store, []byte) {
	t.Helper()
	var buf bytes.Buffer
	bw, err := NewWriterT[float64](&buf, dims, wo)
	if err != nil {
		t.Fatalf("NewWriterT: %v", err)
	}
	if err := bw.Append(context.Background(), data); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, buf.Bytes()
}

func fastpathROIs() [][2][]int {
	return [][2][]int{
		{{0, 0, 0}, {8, 8, 8}},       // single brick
		{{4, 6, 2}, {20, 19, 23}},    // straddles brick boundaries
		{{0, 0, 0}, {24, 26, 28}},    // whole field
		{{23, 25, 27}, {24, 26, 28}}, // single point in the ragged corner brick
	}
}

// TestReadRegionIntoMatchesReadRegion pins the Into variant — and with a
// warm cache, the stack-allocated serving path — bit-identical to
// ReadRegion on cold, warm, and cache-disabled stores.
func TestReadRegionIntoMatchesReadRegion(t *testing.T) {
	ds := datagen.NYX(24, 26, 28)
	ctx := context.Background()
	for _, cacheBytes := range []int64{DefaultCacheBytes, -1} {
		s, _ := buildStore(t, ds.Data, ds.Dims,
			WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{8, 8, 8}},
			Options{CacheBytes: cacheBytes})
		for _, roi := range fastpathROIs() {
			lo, hi := roi[0], roi[1]
			want, err := s.ReadRegion(ctx, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ { // cold, then cache-hot
				dst := make([]float32, boxPoints(lo, hi))
				if err := s.ReadRegionInto(ctx, dst, lo, hi); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
						t.Fatalf("cache=%d roi=%v pass=%d: dst[%d] = %x, want %x",
							cacheBytes, roi, pass, i, math.Float32bits(dst[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
		s.Close()
	}
}

func TestReadRegionIntoFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dims := []int{16, 18, 20}
	n := 16 * 18 * 20
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	ctx := context.Background()
	s64, _ := buildStore64(t, data, dims,
		WriteOptions{Opts: qoz.Options{ErrorBound: 1e-3}, Brick: []int{8, 8, 8}})
	lo, hi := []int{2, 3, 4}, []int{13, 11, 17}
	want, err := ReadRegionT[float64](ctx, s64, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		dst := make([]float64, boxPoints(lo, hi))
		if err := ReadRegionIntoT(ctx, s64, dst, lo, hi); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("pass %d: dst[%d] = %x, want %x", pass, i,
					math.Float64bits(dst[i]), math.Float64bits(want[i]))
			}
		}
	}
	if err := s64.ReadRegionInto(ctx, make([]float32, boxPoints(lo, hi)), lo, hi); err == nil {
		t.Fatal("narrowing a float64 store must be refused")
	}

	// A float32 store widens through ReadRegionIntoT.
	ds := datagen.NYX(16, 16, 16)
	s32, _ := buildStore(t, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{8, 8, 8}}, Options{})
	w32, err := s32.ReadRegion(ctx, []int{0, 0, 0}, []int{9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 9*9*9)
	if err := ReadRegionIntoT(ctx, s32, dst, []int{0, 0, 0}, []int{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	for i := range w32 {
		if dst[i] != float64(w32[i]) {
			t.Fatalf("widened dst[%d] = %v, want %v", i, dst[i], w32[i])
		}
	}
}

func TestReadRegionIntoValidation(t *testing.T) {
	ds := datagen.NYX(16, 16, 16)
	s, _ := buildStore(t, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{8, 8, 8}}, Options{})
	ctx := context.Background()
	if err := s.ReadRegionInto(ctx, make([]float32, 10), []int{0, 0, 0}, []int{4, 4, 4}); err == nil {
		t.Fatal("wrong destination length must be rejected")
	}
	if err := s.ReadRegionInto(ctx, make([]float32, 64), []int{0, 0, 0}, []int{4, 4}); err == nil {
		t.Fatal("rank mismatch must be rejected")
	}
	if err := s.ReadRegionInto(ctx, make([]float32, 64), []int{0, 0, 14}, []int{4, 4, 18}); err == nil {
		t.Fatal("out-of-field box must be rejected")
	}
}

// TestReadRegionIntoCachedZeroAlloc is the tentpole's serving acceptance:
// once every intersecting brick is cached, ReadRegionInto performs no heap
// allocation at all.
func TestReadRegionIntoCachedZeroAlloc(t *testing.T) {
	ds := datagen.NYX(32, 32, 32)
	s, _ := buildStore(t, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{16, 16, 16}},
		Options{CacheBytes: DefaultCacheBytes})
	ctx := context.Background()
	lo, hi := []int{4, 4, 4}, []int{28, 28, 28} // all 8 bricks
	dst := make([]float32, boxPoints(lo, hi))
	if err := s.ReadRegionInto(ctx, dst, lo, hi); err != nil { // warm the cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.ReadRegionInto(ctx, dst, lo, hi); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached ReadRegionInto allocates %.1f times per call; want 0", allocs)
	}
	// The fully-cached read must register as pure cache hits.
	st := s.Stats()
	if st.CacheHits == 0 || st.BricksDecoded != 8 {
		t.Fatalf("stats after cached reads: %+v", st)
	}
}
