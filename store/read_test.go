package store

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"strings"
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

// TestReadBoxesIntoCachedZeroAlloc widens that pin to the whole fill loop:
// a warm multi-box read allocates nothing at any level, for either sample
// kind — level-prefix decodes (levels 2 and 3 of these aligned bricks) are
// copied out of the cache exactly like full ones.
func TestReadBoxesIntoCachedZeroAlloc(t *testing.T) {
	ds := datagen.NYX(32, 32, 32)
	wo := WriteOptions{Opts: qoz.Options{ErrorBound: 1e-3 * 8}, Brick: []int{16, 16, 16}}
	s32, _ := buildStore(t, ds.Data, ds.Dims, wo, Options{})
	f64 := make([]float64, len(ds.Data))
	for i, v := range ds.Data {
		f64[i] = float64(v)
	}
	s64, _ := buildStore64(t, f64, ds.Dims, wo)
	boxes := []Box{{Lo: []int{4, 4, 4}, Hi: []int{28, 28, 28}}, {Lo: []int{0, 8, 16}, Hi: []int{17, 9, 32}}}
	for level := 1; level <= 3; level++ {
		cachedBoxesZeroAlloc[float32](t, s32, boxes, level)
		cachedBoxesZeroAlloc[float64](t, s64, boxes, level)
	}
}

func cachedBoxesZeroAlloc[T qoz.Float](t *testing.T, s *Store, boxes []Box, level int) {
	t.Helper()
	ctx := context.Background()
	n := 0
	for _, b := range boxes {
		g, err := levelGrid(b.Lo, b.Hi, level)
		if err != nil {
			t.Fatal(err)
		}
		n += g.N
	}
	dst := make([]T, n)
	read := func() {
		if _, _, err := ReadBoxesIntoT(ctx, s, dst, boxes, level); err != nil {
			t.Fatal(err)
		}
	}
	read() // warm the cache
	before := s.Stats()
	if allocs := testing.AllocsPerRun(50, read); allocs != 0 {
		t.Errorf("%s level %d: warm ReadBoxesIntoT allocates %.1f times per call; want 0", s.DType(), level, allocs)
	}
	if after := s.Stats(); after.BricksDecoded != before.BricksDecoded || after.CacheHits == before.CacheHits {
		t.Errorf("%s level %d: warm reads decoded: %+v -> %+v", s.DType(), level, before, after)
	}
}

// multiBoxes is a box list no fan-out plan would produce: out of row-major
// order, overlapping, one box twice, one a single point — over a 24×26×28
// field of 8³ bricks.
func multiBoxes() []Box {
	return []Box{
		{Lo: []int{16, 8, 0}, Hi: []int{24, 26, 9}},
		{Lo: []int{0, 0, 0}, Hi: []int{8, 8, 8}},
		{Lo: []int{4, 6, 2}, Hi: []int{20, 19, 23}}, // overlaps both
		{Lo: []int{0, 0, 0}, Hi: []int{8, 8, 8}},    // again
		{Lo: []int{20, 24, 24}, Hi: []int{21, 25, 25}},
	}
}

// A field at grid.MaxRank, which the coordinate arrays of every box walk
// are sized for. The default codec stops at rank 4, so its bricks are sz3's
// and carry no level tables.
var rank8Dims, rank8Brick = []int{2, 2, 2, 2, 2, 2, 3, 5}, []int{1, 2, 1, 2, 1, 2, 2, 3}

func rank8Field() ([]float32, WriteOptions) {
	data := make([]float32, 64*15)
	for i := range data {
		data[i] = float32(math.Sin(float64(i)/11)) + float32(i%7)
	}
	return data, WriteOptions{Opts: qoz.Options{ErrorBound: 1e-3}, Brick: rank8Brick, Codec: qoz.MustLookup("sz3")}
}

// rank8Boxes is multiBoxes for the rank-8 field; every box holds a point of
// levels 1 to 3.
func rank8Boxes() []Box {
	return []Box{
		{Lo: []int{0, 0, 0, 0, 0, 0, 0, 3}, Hi: []int{2, 1, 2, 2, 1, 2, 3, 5}},
		{Lo: []int{0, 0, 0, 0, 0, 0, 0, 0}, Hi: []int{1, 2, 1, 1, 2, 1, 2, 3}},
		{Lo: make([]int, 8), Hi: rank8Dims},                                    // overlaps both
		{Lo: []int{0, 0, 0, 0, 0, 0, 0, 3}, Hi: []int{2, 1, 2, 2, 1, 2, 3, 5}}, // again
		{Lo: []int{0, 0, 0, 0, 0, 0, 0, 4}, Hi: []int{1, 1, 1, 1, 1, 1, 1, 5}},
	}
}

// readBoxesMatch checks ReadBoxesIntoT against the whole field read once
// and cut up by the test: each box's level grid, in list order, bit for
// bit — on a cold cache, on a partly warm one (one box read alone first, so
// the list mixes cache hits with pooled decodes), fully warm, and with no
// cache at all.
func readBoxesMatch[N, T qoz.Float](t *testing.T, name string, content []byte, dims []int, boxes []Box) {
	t.Helper()
	ctx := context.Background()
	for _, cacheBytes := range []int64{DefaultCacheBytes, -1} {
		s, err := Open(bytes.NewReader(content), int64(len(content)), Options{CacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		full, err := ReadFieldT[T](ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		wantCRC, wantGen := s.ManifestVersion()
		for _, level := range []int{1, 2, 3} {
			var want []T
			for _, b := range boxes {
				size := make([]int, len(dims))
				for i := range dims {
					size[i] = b.Hi[i] - b.Lo[i]
				}
				box := make([]T, boxPoints(b.Lo, b.Hi))
				copyBox(box, size, make([]int, len(dims)), full, dims, b.Lo, size)
				coarse, _ := sampleRegionStride(box, b.Lo, b.Hi, 1<<(level-1))
				want = append(want, coarse...)
			}
			s.cache.evictOwner(s)
			for pass, warm := range []func(){
				func() {},
				func() { // partly warm: one box's bricks only
					s.cache.evictOwner(s)
					b := boxes[1]
					if _, err := ReadRegionT[T](ctx, s, b.Lo, b.Hi); err != nil {
						t.Fatal(err)
					}
				},
				func() {},
			} {
				warm()
				got := make([]T, len(want))
				crc, gen, err := ReadBoxesIntoT(ctx, s, got, boxes, level)
				if err != nil {
					t.Fatalf("%s level %d pass %d: %v", name, level, pass, err)
				}
				if crc != wantCRC || gen != wantGen {
					t.Errorf("%s: read reports version %08x-g%d, store is at %08x-g%d", name, crc, gen, wantCRC, wantGen)
				}
				for i := range want {
					if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
						t.Fatalf("%s level %d pass %d (cache %d): sample %d of %d = %v, want %v",
							name, level, pass, cacheBytes, i, len(want), got[i], want[i])
					}
				}
			}
		}
		s.Close()
	}
}

// TestReadBoxesIntoMatchesSingleReads is the differential test of the
// multi-box read, for both sample kinds and the widening read.
func TestReadBoxesIntoMatchesSingleReads(t *testing.T) {
	ds := datagen.NYX(24, 26, 28)
	wo := WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{8, 8, 8}}
	c32 := writeBytes(t, ds.Data, ds.Dims, wo)
	f64 := make([]float64, len(ds.Data))
	for i, v := range ds.Data {
		f64[i] = float64(v) + 1e-9*float64(i%7)
	}
	wo.Opts = qoz.Options{ErrorBound: 1e-3}
	c64 := writeBytes(t, f64, ds.Dims, wo)
	readBoxesMatch[float32, float32](t, "f32 as f32", c32, ds.Dims, multiBoxes())
	readBoxesMatch[float32, float64](t, "f32 as f64", c32, ds.Dims, multiBoxes())
	readBoxesMatch[float64, float64](t, "f64 as f64", c64, ds.Dims, multiBoxes())
	data8, wo8 := rank8Field()
	readBoxesMatch[float32, float32](t, "rank 8", writeBytes(t, data8, rank8Dims, wo8), rank8Dims, rank8Boxes())
}

// TestReadBoxesIntoChecksEveryBoxFirst: one bad box, a level the last box
// has no point on, a destination sized for fewer boxes — each is refused
// before a brick is touched or a sample written.
func TestReadBoxesIntoChecksEveryBoxFirst(t *testing.T) {
	ds := datagen.NYX(24, 26, 28)
	s, _ := buildStore(t, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{8, 8, 8}}, Options{})
	ctx := context.Background()
	good := Box{Lo: []int{0, 0, 0}, Hi: []int{8, 8, 8}}
	for _, tc := range []struct {
		name  string
		boxes []Box
		level int
		n     int
		want  string
	}{
		{"outside", []Box{good, {Lo: []int{0, 0, 20}, Hi: []int{8, 8, 29}}}, 1, 512 + 576, "outside field"},
		{"rank", []Box{good, {Lo: []int{0, 0}, Hi: []int{8, 8}}}, 1, 512 + 64, "rank"},
		{"no level point", []Box{good, {Lo: []int{1, 1, 1}, Hi: []int{2, 2, 2}}}, 2, 64, "holds no level-2 points"},
		{"level", []Box{good}, 0, 512, "level 0 outside"},
		{"short destination", []Box{good, good}, 1, 512, "destination holds 512 points, region has 1024"},
	} {
		before := s.Stats().BricksRead
		dst := make([]float32, tc.n)
		for i := range dst {
			dst[i] = -7
		}
		_, _, err := ReadBoxesIntoT(ctx, s, dst, tc.boxes, tc.level)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
		if got := s.Stats().BricksRead; got != before {
			t.Errorf("%s: %d bricks read before the list was refused", tc.name, got-before)
		}
		for i, v := range dst {
			if v != -7 {
				t.Fatalf("%s: dst[%d] written before the list was refused", tc.name, i)
			}
		}
	}
}
