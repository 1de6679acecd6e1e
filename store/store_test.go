package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qoz"
	"qoz/datagen"
)

// buildStore writes ds into an in-memory brick store and opens it.
func buildStore(t *testing.T, data []float32, dims []int, wo WriteOptions, so Options) (*Store, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(context.Background(), &buf, data, dims, wo); err != nil {
		t.Fatalf("Write: %v", err)
	}
	s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), so)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, buf.Bytes()
}

// strides returns row-major strides for dims: the tests' own index oracle,
// independent of the box walker in internal/grid.
func strides(dims []int) []int {
	s := make([]int, len(dims))
	acc := 1
	for i := len(dims) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= dims[i]
	}
	return s
}

// sliceBox extracts the box [lo,hi) from a row-major field.
func sliceBox(field []float32, dims, lo, hi []int) []float32 {
	size := make([]int, len(dims))
	for i := range dims {
		size[i] = hi[i] - lo[i]
	}
	out := make([]float32, boxPoints(lo, hi))
	copyBox(out, size, make([]int, len(dims)), field, dims, lo, size)
	return out
}

func TestRoundTripShapes(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		dims  []int
		brick []int
	}{
		{[]int{100}, []int{32}},
		{[]int{64, 48}, []int{16, 16}},
		{[]int{20, 30, 40}, []int{8, 8, 8}},
		{[]int{20, 30, 40}, nil},            // default brick
		{[]int{7, 9, 11}, []int{3, 4, 5}},   // nothing divides evenly
		{[]int{4, 4, 4}, []int{16, 16, 16}}, // brick larger than field
	}
	for _, tc := range cases {
		n := 1
		for _, d := range tc.dims {
			n *= d
		}
		rng := rand.New(rand.NewSource(1))
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(math.Sin(float64(i)/50) + 0.1*rng.Float64())
		}
		s, _ := buildStore(t, data, tc.dims, WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: tc.brick}, Options{})
		got, err := s.ReadField(ctx)
		if err != nil {
			t.Fatalf("dims %v: ReadField: %v", tc.dims, err)
		}
		if len(got) != n {
			t.Fatalf("dims %v: got %d points, want %d", tc.dims, len(got), n)
		}
		eb := s.ErrorBound()
		for i := range data {
			if math.Abs(float64(data[i])-float64(got[i])) > eb*(1+1e-9) {
				t.Fatalf("dims %v: point %d: |%v-%v| > bound %v", tc.dims, i, data[i], got[i], eb)
			}
		}
	}
}

func TestReadRegionMatchesFullField(t *testing.T) {
	ctx := context.Background()
	ds := datagen.NYX(32, 40, 48)
	s, _ := buildStore(t, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{16, 16, 16}}, Options{})
	full, err := s.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		lo := make([]int, 3)
		hi := make([]int, 3)
		for i, d := range ds.Dims {
			lo[i] = rng.Intn(d)
			hi[i] = lo[i] + 1 + rng.Intn(d-lo[i])
		}
		got, err := s.ReadRegion(ctx, lo, hi)
		if err != nil {
			t.Fatalf("ReadRegion(%v,%v): %v", lo, hi, err)
		}
		want := sliceBox(full, ds.Dims, lo, hi)
		if len(got) != len(want) {
			t.Fatalf("region %v-%v: %d points, want %d", lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("region %v-%v: point %d: %v != %v (must be bit-identical)", lo, hi, i, got[i], want[i])
			}
		}
	}
}

// TestDecodeCounter verifies that a region read decodes only the bricks it
// intersects — the whole point of the brick partition.
func TestDecodeCounter(t *testing.T) {
	ctx := context.Background()
	ds := datagen.NYX(64, 64, 64)
	s, _ := buildStore(t, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{16, 16, 16}}, Options{})
	if s.NumBricks() != 64 {
		t.Fatalf("NumBricks = %d, want 64", s.NumBricks())
	}
	// A box inside a single brick.
	if _, err := s.ReadRegion(ctx, []int{1, 1, 1}, []int{15, 15, 15}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.BricksDecoded != 1 || st.BricksRead != 1 {
		t.Fatalf("single-brick region: decoded %d read %d, want 1/1", st.BricksDecoded, st.BricksRead)
	}
	// A box spanning 2×2×2 bricks.
	if _, err := s.ReadRegion(ctx, []int{10, 10, 10}, []int{20, 20, 20}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.BricksDecoded != 8 || st.CacheHits != 1 {
		// The [1,15) brick is among the 8 and comes from the cache.
		t.Fatalf("2x2x2 region: decoded %d hits %d, want 8 total decodes and 1 hit", st.BricksDecoded, st.CacheHits)
	}
}

func TestCacheServesBitIdenticalAndEvicts(t *testing.T) {
	poisonSlabs(t) // an evicted brick is recycled: no read may still see it
	ctx := context.Background()
	ds := datagen.NYX(32, 32, 32)
	brickBytes := int64(16*16*16) * 4
	s, raw := buildStore(t, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{16, 16, 16}},
		Options{CacheBytes: 2 * brickBytes}) // room for 2 of 8 bricks
	lo, hi := []int{0, 0, 0}, []int{16, 16, 16}
	cold, err := s.ReadRegion(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.ReadRegion(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.BricksDecoded != 1 || st.CacheHits != 1 {
		t.Fatalf("decoded %d, hits %d; want 1 decode and 1 hit", st.BricksDecoded, st.CacheHits)
	}
	for i := range cold {
		if cold[i] != warm[i] {
			t.Fatalf("point %d: cached read %v != cold read %v", i, warm[i], cold[i])
		}
	}
	// Touch every brick; the budget holds 2, so the rest must have evicted.
	if _, err := s.ReadField(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CachedBytes; got > 2*brickBytes {
		t.Fatalf("cache holds %d bytes, budget %d", got, 2*brickBytes)
	}

	// A disabled cache decodes every time.
	s2, err := Open(bytes.NewReader(raw), int64(len(raw)), Options{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	s2.ReadRegion(ctx, lo, hi)
	s2.ReadRegion(ctx, lo, hi)
	if st := s2.Stats(); st.BricksDecoded != 2 || st.CacheHits != 0 {
		t.Fatalf("uncached: decoded %d hits %d, want 2/0", st.BricksDecoded, st.CacheHits)
	}
}

func TestWriteFromStream(t *testing.T) {
	ctx := context.Background()
	ds := datagen.CESMATM(48, 96)
	// Slab stream with several slabs (odd slab size so slabs don't align
	// with brick bands).
	var stream bytes.Buffer
	enc, err := qoz.NewEncoder(&stream, qoz.StreamOptions{
		Opts:       qoz.Options{RelBound: 1e-3},
		SlabPoints: 7 * 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(ctx, ds.Data, ds.Dims); err != nil {
		t.Fatal(err)
	}
	streamRecon, _, err := qoz.Decode[float32](ctx, stream.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	var bs bytes.Buffer
	dec := qoz.NewDecoder(bytes.NewReader(stream.Bytes()))
	if err := WriteFrom(ctx, &bs, dec, WriteOptions{Brick: []int{16, 32}}); err != nil {
		t.Fatalf("WriteFrom: %v", err)
	}
	s, err := Open(bytes.NewReader(bs.Bytes()), int64(bs.Len()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Re-bricking re-compresses the stream's reconstruction under the same
	// absolute bound, so the store is within eb of the stream recon and
	// within 2eb of the original.
	eb := s.ErrorBound()
	for i := range got {
		if math.Abs(float64(got[i])-float64(streamRecon[i])) > eb*(1+1e-9) {
			t.Fatalf("point %d: store %v vs stream recon %v exceeds bound %v", i, got[i], streamRecon[i], eb)
		}
		if math.Abs(float64(got[i])-float64(ds.Data[i])) > 2*eb*(1+1e-9) {
			t.Fatalf("point %d: store %v vs original %v exceeds 2x bound %v", i, got[i], ds.Data[i], eb)
		}
	}
}

func TestIncrementalWriterRowByRow(t *testing.T) {
	ctx := context.Background()
	ds := datagen.Miranda(24, 16, 16)
	opts, err := (qoz.Options{RelBound: 1e-3}).ResolveAbs(ds.Data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bw, err := NewWriter(&buf, ds.Dims, WriteOptions{Opts: opts, Brick: []int{8, 8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	rowPoints := 16 * 16
	for r := 0; r < 24; r++ {
		if err := bw.Append(ctx, ds.Data[r*rowPoints:(r+1)*rowPoints]); err != nil {
			t.Fatalf("row %d: %v", r, err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	eb := s.ErrorBound()
	for i := range got {
		if math.Abs(float64(got[i])-float64(ds.Data[i])) > eb*(1+1e-9) {
			t.Fatalf("point %d exceeds bound", i)
		}
	}
}

func TestWriterErrors(t *testing.T) {
	ctx := context.Background()
	dims := []int{8, 8}
	// Relative bound must be resolved first.
	if _, err := NewWriter(&bytes.Buffer{}, dims, WriteOptions{Opts: qoz.Options{RelBound: 1e-3}}); err == nil {
		t.Fatal("NewWriter accepted an unresolved RelBound")
	}
	// Incomplete field.
	bw, err := NewWriter(&bytes.Buffer{}, dims, WriteOptions{Opts: qoz.Options{ErrorBound: 1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Append(ctx, make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err == nil {
		t.Fatal("Close accepted an incomplete field")
	}
	// Append past the end.
	bw2, _ := NewWriter(&bytes.Buffer{}, dims, WriteOptions{Opts: qoz.Options{ErrorBound: 1e-3}})
	if err := bw2.Append(ctx, make([]float32, 100*8)); err == nil {
		t.Fatal("Append accepted rows past the field end")
	}
	// Partial rows.
	bw3, _ := NewWriter(&bytes.Buffer{}, dims, WriteOptions{Opts: qoz.Options{ErrorBound: 1e-3}})
	if err := bw3.Append(ctx, make([]float32, 3)); err == nil {
		t.Fatal("Append accepted a partial row")
	}
	// Non-finite bounds would write a store every Open rejects.
	for _, eb := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := NewWriter(&bytes.Buffer{}, dims, WriteOptions{Opts: qoz.Options{ErrorBound: eb}}); err == nil {
			t.Fatalf("NewWriter accepted ErrorBound %v", eb)
		}
	}
}

// TestIncrementalWriterIrregularChunks appends in sizes that never align
// with bands — forcing the buffered-tail top-up path — and checks both the
// round trip and that the writer's buffer stays within one band.
func TestIncrementalWriterIrregularChunks(t *testing.T) {
	ctx := context.Background()
	ds := datagen.Miranda(24, 16, 16)
	opts, err := (qoz.Options{RelBound: 1e-3}).ResolveAbs(ds.Data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bw, err := NewWriter(&buf, ds.Dims, WriteOptions{Opts: opts, Brick: []int{8, 8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	rowPoints := 16 * 16
	bandPts := 8 * rowPoints
	rest := ds.Data
	for _, rows := range []int{1, 2, 17, 3, 1} { // 24 rows total
		if err := bw.Append(ctx, rest[:rows*rowPoints]); err != nil {
			t.Fatal(err)
		}
		rest = rest[rows*rowPoints:]
		if len(bw.pending) > bandPts {
			t.Fatalf("writer buffered %d points, more than one band (%d)", len(bw.pending), bandPts)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	eb := s.ErrorBound()
	for i := range got {
		if math.Abs(float64(got[i])-float64(ds.Data[i])) > eb*(1+1e-9) {
			t.Fatalf("point %d exceeds bound", i)
		}
	}
}

func TestReadRegionValidation(t *testing.T) {
	ctx := context.Background()
	ds := datagen.NYX(16, 16, 16)
	s, _ := buildStore(t, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}}, Options{})
	bad := [][2][]int{
		{{0, 0}, {8, 8}},        // wrong rank
		{{-1, 0, 0}, {8, 8, 8}}, // negative
		{{0, 0, 0}, {8, 8, 17}}, // past the end
		{{4, 4, 4}, {4, 8, 8}},  // empty extent
	}
	for _, b := range bad {
		if _, err := s.ReadRegion(ctx, b[0], b[1]); err == nil {
			t.Fatalf("ReadRegion(%v,%v) accepted an invalid region", b[0], b[1])
		}
	}
}

func TestReadRegionCancellation(t *testing.T) {
	ds := datagen.NYX(32, 32, 32)
	s, _ := buildStore(t, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{8, 8, 8}}, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ReadRegion(ctx, []int{0, 0, 0}, []int{32, 32, 32}); err == nil {
		t.Fatal("ReadRegion ignored a canceled context")
	}
	if st := s.Stats(); st.BricksDecoded != 0 {
		t.Fatalf("canceled read decoded %d bricks", st.BricksDecoded)
	}
}

func TestCorruptStore(t *testing.T) {
	ctx := context.Background()
	ds := datagen.NYX(16, 16, 16)
	s, raw := buildStore(t, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{8, 8, 8}}, Options{})
	_ = s

	open := func(b []byte) (*Store, error) {
		return Open(bytes.NewReader(b), int64(len(b)), Options{})
	}

	// Flipping a byte inside a brick payload must trip the checksum.
	mut := append([]byte(nil), raw...)
	mut[len(mut)/2] ^= 0xff
	if s2, err := open(mut); err == nil {
		if _, err := s2.ReadField(ctx); err == nil {
			t.Fatal("corrupted brick payload read back cleanly")
		}
	}

	// Truncations anywhere must fail Open or the read, never panic.
	for _, cut := range []int{0, 1, len(raw) / 4, len(raw) / 2, len(raw) - 1} {
		s2, err := open(raw[:cut])
		if err == nil {
			if _, err := s2.ReadField(ctx); err == nil {
				t.Fatalf("truncation to %d bytes read back cleanly", cut)
			}
		}
	}

	// A footer pointing outside the file must fail cleanly: the journal's
	// generation footer (its self-CRC no longer matches, and there is no
	// earlier generation to fall back to) and a legacy index footer.
	mut = append([]byte(nil), raw...)
	for i := 0; i < 8; i++ {
		mut[len(mut)-genFooterSize+i] = 0xff
	}
	if _, err := open(mut); err == nil {
		t.Fatal("generation footer with absurd manifest offset accepted")
	}
	legacy := fixtureBytes(t, "v5_f32")
	mut = append([]byte(nil), legacy...)
	for i := 0; i < 8; i++ {
		mut[len(mut)-footerSize+i] = 0xff
	}
	if _, err := open(mut); err == nil {
		t.Fatal("index footer with absurd index offset accepted")
	}

	// A tiny file whose header declares an astronomical brick count must be
	// rejected before the per-brick entries are allocated (a 45-byte hostile
	// file must not OOM the process) — as a legacy index and as a journal
	// whose manifest declares the count the header implies.
	hdr := &header{version: formatVersionV5, codecID: 1, dims: []int{65536, 65536, 4}, brick: []int{1, 1, 1}, bound: 1e-3}
	h := appendHeader(nil, hdr)
	tiny := append(h, 0x00) // one stray "index" byte
	foot := binary.LittleEndian.AppendUint64(nil, uint64(len(h)))
	foot = append(foot, trailerMagicV5...)
	tiny = append(tiny, foot...)
	if _, err := open(tiny); err == nil {
		t.Fatal("tiny index file declaring 2^34 bricks accepted")
	}
	hdr.version = formatVersion
	h = appendHeader(nil, hdr)
	man := append([]byte(manifestMagic), 1, 3)
	for _, d := range hdr.dims {
		man = binary.AppendUvarint(man, uint64(d))
	}
	man = binary.AppendUvarint(man, uint64(hdr.numBricks()))
	ft := &genFooter{manifestOff: int64(len(h)), manifestLen: int64(len(man)), gen: 1, manifestCRC: crc32.ChecksumIEEE(man)}
	if _, err := open(appendGenFooter(append(h, man...), ft)); err == nil {
		t.Fatal("tiny journal declaring 2^34 bricks accepted")
	}

	// Overwriting the legacy index's brick count must fail cleanly.
	mutIdx := append([]byte(nil), legacy...)
	footStart := len(mutIdx) - footerSize
	off := int(binary.LittleEndian.Uint64(mutIdx[footStart : footStart+8]))
	mutIdx[off] = 0x01
	if _, err := open(mutIdx); err == nil {
		t.Fatal("index with wrong brick count accepted")
	}
}

// TestBrickGeometryValidates: the exported geometry helpers take dims and
// brick shapes from outside (a gateway feeds them a shard's JSON), so a
// partition that is not a brick grid — rank 9 included, which the box
// walk's fixed arrays could not hold — is an error from each of them.
func TestBrickGeometryValidates(t *testing.T) {
	nine := []int{2, 2, 2, 2, 2, 2, 2, 2, 2}
	for _, tc := range []struct{ dims, brick []int }{
		{nine, nine},
		{[]int{8, 8, 8}, []int{4, 4}},
		{[]int{8, 8}, []int{4, 0}},
		{[]int{8, 0}, []int{4, 4}},
		{nil, nil},
	} {
		if _, err := Grid(tc.dims, tc.brick); err == nil {
			t.Errorf("Grid(%v, %v) accepted", tc.dims, tc.brick)
		}
		if _, err := NumBricksIn(tc.dims, tc.brick); err == nil {
			t.Errorf("NumBricksIn(%v, %v) accepted", tc.dims, tc.brick)
		}
		if _, _, err := BrickBoxIn(tc.dims, tc.brick, 0); err == nil {
			t.Errorf("BrickBoxIn(%v, %v) accepted", tc.dims, tc.brick)
		}
		if _, err := IntersectingBricksIn(tc.dims, tc.brick, make([]int, len(tc.dims)), tc.dims); err == nil {
			t.Errorf("IntersectingBricksIn(%v, %v) accepted", tc.dims, tc.brick)
		}
	}
	lo, hi, err := BrickBoxIn(rank8Dims, rank8Brick, 1)
	if err != nil || !slices.Equal(lo, []int{0, 0, 0, 0, 0, 0, 0, 3}) || !slices.Equal(hi, []int{1, 2, 1, 2, 1, 2, 2, 5}) {
		t.Errorf("brick 1 of the rank-8 grid is [%v,%v), %v", lo, hi, err)
	}
	if got, err := IntersectingBricksIn([]int{10, 10}, []int{4, 4}, []int{3, 5}, []int{9, 8}); err != nil || !slices.Equal(got, []int{1, 4, 7}) {
		t.Errorf("bricks under [3,5)-[9,8): %v, %v", got, err)
	}
}
