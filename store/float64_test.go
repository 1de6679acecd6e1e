package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"qoz"
	"qoz/datagen"
)

// f64Field returns a deterministic double-precision field whose dynamics
// need more than float32 mantissa (a tiny high-precision ripple on a
// smooth base), with a few non-finite points the escape envelope must
// carry exactly.
func f64Field(dims []int) []float64 {
	n := 1
	for _, d := range dims {
		n *= d
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i)/40) + 1e-9*math.Cos(float64(i)/3)
	}
	data[1] = math.NaN()
	data[n/2] = math.Inf(1)
	data[n-2] = math.Inf(-1)
	return data
}

// sliceBox64 extracts the box [lo,hi) from a row-major float64 field.
func sliceBox64(field []float64, dims, lo, hi []int) []float64 {
	size := make([]int, len(dims))
	for i := range dims {
		size[i] = hi[i] - lo[i]
	}
	out := make([]float64, boxPoints(lo, hi))
	copyBox(out, size, make([]int, len(dims)), field, dims, lo, size)
	return out
}

// TestFloat64StoreRoundTrip pins the double-precision brick path end to
// end: WriteT builds a v2 store whose bricks carry the escape envelope,
// ReadFieldT[float64] honors the bound for every finite point and restores
// non-finite points exactly, and random ReadRegionT[float64] boxes are
// bit-identical to the corresponding slice of the full read.
func TestFloat64StoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	dims := []int{20, 24, 28}
	data := f64Field(dims)
	const eb = 1e-7 // below float32 resolution of a ~1-range field

	var buf bytes.Buffer
	if err := WriteT(ctx, &buf, data, dims, WriteOptions{
		Opts:  qoz.Options{ErrorBound: eb},
		Brick: []int{8, 8, 8},
	}); err != nil {
		t.Fatalf("WriteT: %v", err)
	}
	s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !s.Float64() || s.DType() != "float64" {
		t.Fatalf("store dtype = %q, Float64 = %v; want float64", s.DType(), s.Float64())
	}

	full, err := ReadFieldT[float64](ctx, s)
	if err != nil {
		t.Fatalf("ReadFieldT[float64]: %v", err)
	}
	for i := range data {
		switch {
		case math.IsNaN(data[i]):
			if !math.IsNaN(full[i]) {
				t.Fatalf("point %d: NaN did not round-trip (got %v)", i, full[i])
			}
		case math.IsInf(data[i], 0):
			if full[i] != data[i] {
				t.Fatalf("point %d: %v did not round-trip (got %v)", i, data[i], full[i])
			}
		case math.Abs(full[i]-data[i]) > eb*(1+1e-9):
			t.Fatalf("point %d: |%v-%v| > bound %v", i, data[i], full[i], eb)
		}
	}
	// The bound is far below what narrowed float32 heads alone could hit
	// for most points, so the envelope's escapes must have engaged; a pure
	// f32 path would show errors near 1e-8 * value magnitudes but the tiny
	// ripple term would be lost entirely without escapes or a tight head
	// bound. The per-point check above is the guarantee that matters.

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		lo := make([]int, 3)
		hi := make([]int, 3)
		for i, d := range dims {
			lo[i] = rng.Intn(d)
			hi[i] = lo[i] + 1 + rng.Intn(d-lo[i])
		}
		got, err := ReadRegionT[float64](ctx, s, lo, hi)
		if err != nil {
			t.Fatalf("ReadRegionT[float64](%v,%v): %v", lo, hi, err)
		}
		want := sliceBox64(full, dims, lo, hi)
		for i := range want {
			same := got[i] == want[i] || (math.IsNaN(got[i]) && math.IsNaN(want[i]))
			if !same {
				t.Fatalf("region %v-%v point %d: %v != %v (must be bit-identical)", lo, hi, i, got[i], want[i])
			}
		}
	}

	// Narrowing reads of a float64 store are refused — same contract as
	// Decode[float32] on a float64 stream.
	if _, err := s.ReadRegion(ctx, []int{0, 0, 0}, []int{2, 2, 2}); err == nil {
		t.Fatal("ReadRegion narrowed a float64 store")
	}
	if _, err := s.ReadField(ctx); err == nil {
		t.Fatal("ReadField narrowed a float64 store")
	}
	if _, err := ReadRegionT[float32](ctx, s, []int{0, 0, 0}, []int{2, 2, 2}); err == nil {
		t.Fatal("ReadRegionT[float32] narrowed a float64 store")
	}
	if got, err := ReadRegionT[float64](ctx, s, []int{0, 0, 0}, []int{2, 2, 2}); err != nil || len(got) != 8 {
		t.Fatalf("ReadRegionT[float64]: %v (%d points)", err, len(got))
	}
}

// TestFloat64IncrementalWriter drives NewWriterT row by row with irregular
// chunks, the double-precision twin of the float32 incremental tests.
func TestFloat64IncrementalWriter(t *testing.T) {
	ctx := context.Background()
	dims := []int{24, 16, 16}
	data := f64Field(dims)
	const eb = 1e-6
	var buf bytes.Buffer
	bw, err := NewWriterT[float64](&buf, dims, WriteOptions{
		Opts:  qoz.Options{ErrorBound: eb},
		Brick: []int{8, 8, 8},
	})
	if err != nil {
		t.Fatalf("NewWriterT: %v", err)
	}
	rowPoints := 16 * 16
	rest := data
	for _, rows := range []int{1, 2, 17, 3, 1} { // 24 rows total
		if err := bw.Append(ctx, rest[:rows*rowPoints]); err != nil {
			t.Fatal(err)
		}
		rest = rest[rows*rowPoints:]
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadFieldT[float64](ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.IsNaN(data[i]) || math.IsInf(data[i], 0) {
			continue
		}
		if math.Abs(got[i]-data[i]) > eb*(1+1e-9) {
			t.Fatalf("point %d exceeds bound", i)
		}
	}
}

// TestReadRegionFloat64WidensF32 verifies the widening contract on a
// float32 store: ReadRegionT[float64] returns exactly the float32 values
// widened, sharing the same cached bricks.
func TestReadRegionFloat64WidensF32(t *testing.T) {
	ctx := context.Background()
	ds := datagen.NYX(16, 16, 16)
	s, _ := buildStore(t, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{8, 8, 8}}, Options{})
	lo, hi := []int{2, 2, 2}, []int{10, 12, 14}
	narrow, err := s.ReadRegion(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := ReadRegionT[float64](ctx, s, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(wide) != len(narrow) {
		t.Fatalf("widened read returned %d points, want %d", len(wide), len(narrow))
	}
	for i := range narrow {
		if wide[i] != float64(narrow[i]) {
			t.Fatalf("point %d: widened %v != float64(%v)", i, wide[i], narrow[i])
		}
	}
	// Both reads served from the same cached float32 bricks.
	if st := s.Stats(); st.CacheHits == 0 {
		t.Fatalf("widening read did not share the float32 brick cache: %+v", st)
	}
}

// TestV1GoldenFixture pins backward compatibility across the v2 format
// bump: a v1 (float32) store file written before the element-kind refactor
// must open and read back bit-identically to the reconstruction recorded
// alongside it.
func TestV1GoldenFixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/v1_f32.qozb")
	if err != nil {
		t.Fatalf("golden fixture missing: %v", err)
	}
	if raw[len(magic)] != formatVersionV1 {
		t.Fatalf("fixture is version %d, want v1 — do not regenerate it with a v2 writer", raw[len(magic)])
	}
	if !IsStore(raw[:8]) {
		t.Fatal("IsStore rejects a v1 store header")
	}
	expRaw, err := os.ReadFile("testdata/v1_f32.expected.f32")
	if err != nil {
		t.Fatalf("golden expectation missing: %v", err)
	}
	want := make([]float32, len(expRaw)/4)
	for i := range want {
		want[i] = math.Float32frombits(binary.LittleEndian.Uint32(expRaw[4*i:]))
	}

	s, err := Open(bytes.NewReader(raw), int64(len(raw)), Options{})
	if err != nil {
		t.Fatalf("Open(v1 fixture): %v", err)
	}
	if s.Float64() || s.DType() != "float32" {
		t.Fatalf("v1 fixture parsed as dtype %q", s.DType())
	}
	dims := s.Dims()
	if len(dims) != 3 || dims[0] != 20 || dims[1] != 24 || dims[2] != 28 {
		t.Fatalf("v1 fixture dims = %v", dims)
	}
	got, err := s.ReadField(context.Background())
	if err != nil {
		t.Fatalf("ReadField(v1 fixture): %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("v1 fixture read %d points, recorded %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("v1 fixture point %d: %v != recorded %v (must be bit-identical)", i, got[i], want[i])
		}
	}
	// A sub-region must also match the recorded field's slice exactly.
	lo, hi := []int{3, 5, 7}, []int{17, 20, 21}
	roi, err := s.ReadRegion(context.Background(), lo, hi)
	if err != nil {
		t.Fatalf("ReadRegion(v1 fixture): %v", err)
	}
	wantROI := sliceBox(want, dims, lo, hi)
	for i := range wantROI {
		if roi[i] != wantROI[i] {
			t.Fatalf("v1 fixture ROI point %d: %v != %v", i, roi[i], wantROI[i])
		}
	}
}

// TestWriteFromFloat64Stream re-bricks a double-precision slab stream —
// the path the old store refused outright — and checks the bound carries
// through the re-compression.
func TestWriteFromFloat64Stream(t *testing.T) {
	ctx := context.Background()
	dims := []int{48, 96}
	data := f64Field(dims)
	var stream bytes.Buffer
	enc, err := qoz.NewEncoder(&stream, qoz.StreamOptions{
		Opts:       qoz.Options{ErrorBound: 1e-6},
		SlabPoints: 7 * 96, // odd slab size so slabs don't align with bands
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := qoz.EncodeT(ctx, enc, data, dims); err != nil {
		t.Fatal(err)
	}
	streamRecon, _, err := qoz.Decode[float64](ctx, stream.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	var bs bytes.Buffer
	dec := qoz.NewDecoder(bytes.NewReader(stream.Bytes()))
	if err := WriteFrom(ctx, &bs, dec, WriteOptions{Brick: []int{16, 32}}); err != nil {
		t.Fatalf("WriteFrom(float64 stream): %v", err)
	}
	s, err := Open(bytes.NewReader(bs.Bytes()), int64(bs.Len()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Float64() {
		t.Fatal("re-bricked float64 stream produced a float32 store")
	}
	got, err := ReadFieldT[float64](ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	eb := s.ErrorBound()
	for i := range got {
		if math.IsNaN(data[i]) {
			if !math.IsNaN(got[i]) {
				t.Fatalf("point %d: NaN lost in re-brick", i)
			}
			continue
		}
		if math.IsInf(data[i], 0) {
			if got[i] != data[i] {
				t.Fatalf("point %d: %v lost in re-brick (got %v)", i, data[i], got[i])
			}
			continue
		}
		if math.Abs(got[i]-streamRecon[i]) > eb*(1+1e-9) {
			t.Fatalf("point %d: store %v vs stream recon %v exceeds bound %v", i, got[i], streamRecon[i], eb)
		}
		if math.Abs(got[i]-data[i]) > 2*eb*(1+1e-9) {
			t.Fatalf("point %d: store %v vs original %v exceeds 2x bound %v", i, got[i], data[i], eb)
		}
	}
}

// TestSharedCacheMixedTypes shares one Cache between a float32 and a
// float64 store, hammers both concurrently (the -race half of the test),
// and then checks the byte accounting is honest: the cache's holdings must
// equal 4 bytes per cached f32 point plus 8 per cached f64 point.
func TestSharedCacheMixedTypes(t *testing.T) {
	ctx := context.Background()
	shared := NewCache(1 << 30) // big enough that nothing evicts

	ds32 := datagen.NYX(16, 16, 16)
	var b32 bytes.Buffer
	if err := Write(ctx, &b32, ds32.Data, ds32.Dims, WriteOptions{
		Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{8, 8, 8},
	}); err != nil {
		t.Fatal(err)
	}
	s32, err := Open(bytes.NewReader(b32.Bytes()), int64(b32.Len()), Options{Cache: shared})
	if err != nil {
		t.Fatal(err)
	}

	dims64 := []int{16, 16, 16}
	data64 := f64Field(dims64)
	var b64 bytes.Buffer
	if err := WriteT(ctx, &b64, data64, dims64, WriteOptions{
		Opts: qoz.Options{ErrorBound: 1e-6}, Brick: []int{8, 8, 8},
	}); err != nil {
		t.Fatal(err)
	}
	s64, err := Open(bytes.NewReader(b64.Bytes()), int64(b64.Len()), Options{Cache: shared})
	if err != nil {
		t.Fatal(err)
	}

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
					lo[d] = rng.Intn(12)
					hi[d] = lo[d] + 1 + rng.Intn(16-lo[d]-1)
				}
				if seed%2 == 0 {
					if _, err := s32.ReadRegion(ctx, lo, hi); err != nil {
						t.Errorf("f32 ReadRegion: %v", err)
						return
					}
				} else {
					if _, err := ReadRegionT[float64](ctx, s64, lo, hi); err != nil {
						t.Errorf("f64 ReadRegionT[float64]: %v", err)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()

	// Force every brick of both stores into the cache and check the honest
	// element-size accounting: 8 bricks of 8^3 each side.
	if _, err := s32.ReadField(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFieldT[float64](ctx, s64); err != nil {
		t.Fatal(err)
	}
	want := int64(16*16*16)*4 + int64(16*16*16)*8
	if got := shared.Bytes(); got != want {
		t.Fatalf("mixed-type cache holds %d bytes, want %d (4096 points x 4 + 4096 points x 8)", got, want)
	}

	// Closing the float64 store must release exactly its 8-byte-per-point
	// share.
	if err := s64.Close(); err != nil {
		t.Fatal(err)
	}
	if got := shared.Bytes(); got != int64(16*16*16)*4 {
		t.Fatalf("after closing the f64 store the cache holds %d bytes, want %d", got, int64(16*16*16)*4)
	}
	s32.Close()
}

// TestOpenURLFloat64 reads a float64 store over the HTTP range backend:
// the element kind rides inside the untouched payload bytes, so remote
// region reads must be bit-identical to local ones.
func TestOpenURLFloat64(t *testing.T) {
	ctx := context.Background()
	dims := []int{16, 16, 16}
	data := f64Field(dims)
	var buf bytes.Buffer
	if err := WriteT(ctx, &buf, data, dims, WriteOptions{
		Opts: qoz.Options{ErrorBound: 1e-6}, Brick: []int{8, 8, 8},
	}); err != nil {
		t.Fatal(err)
	}
	obj := &servedObject{}
	obj.Set(buf.Bytes(), `"f64-v1"`)
	srv := serveRanges(t, obj, &rangeLog{})
	defer srv.Close()

	// Exact ranges (no coalescing), so the transfer assertion below is
	// tight even though the test store is tiny.
	remote, err := OpenURL(srv.URL, Options{Remote: RemoteOptions{ReadAhead: -1}})
	if err != nil {
		t.Fatalf("OpenURL: %v", err)
	}
	if !remote.Float64() {
		t.Fatal("remote store lost its element kind")
	}
	local, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := []int{2, 2, 2}, []int{10, 12, 6}
	got, err := ReadRegionT[float64](ctx, remote, lo, hi)
	if err != nil {
		t.Fatalf("remote ReadRegionT[float64]: %v", err)
	}
	want, err := ReadRegionT[float64](ctx, local, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		same := got[i] == want[i] || (math.IsNaN(got[i]) && math.IsNaN(want[i]))
		if !same {
			t.Fatalf("remote point %d: %v != local %v", i, got[i], want[i])
		}
	}
	if st := remote.Stats(); st.RemoteRanges == 0 || st.RemoteBytes >= int64(buf.Len()) {
		t.Fatalf("remote f64 read transferred %d of %d bytes in %d ranges — not range reads",
			st.RemoteBytes, buf.Len(), st.RemoteRanges)
	}
}

// TestSmallROIBeatsFullDecodeFloat64 is the double-precision twin of
// TestSmallROIBeatsFullDecode: extracting a small subvolume of a float64
// store must beat a full-field decode by the same order of magnitude,
// because the envelope path decodes per brick exactly like the f32 path.
func TestSmallROIBeatsFullDecodeFloat64(t *testing.T) {
	if testing.Short() {
		t.Skip("large f64 corpus build in -short mode")
	}
	ctx := context.Background()
	dims := []int{192, 192, 192}
	n := dims[0] * dims[1] * dims[2]
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i)/50) + 1e-9*math.Cos(float64(i)/7)
	}
	var buf bytes.Buffer
	if err := WriteT(ctx, &buf, data, dims, WriteOptions{
		Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{32, 32, 32},
	}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := []int{0, 0, 0}, []int{32, 64, 64} // 4 bricks of 216

	t0 := time.Now()
	if _, err := ReadFieldT[float64](ctx, s); err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)

	roi := time.Duration(1 << 62)
	for i := 0; i < 3; i++ { // best of 3 to shrug off scheduler noise
		t0 = time.Now()
		if _, err := ReadRegionT[float64](ctx, s, lo, hi); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d < roi {
			roi = d
		}
	}
	if ratio := full.Seconds() / roi.Seconds(); ratio < 10 {
		t.Fatalf("f64 ROI extract only %.1fx faster than full decode (full %v, roi %v); want >= 10x", ratio, full, roi)
	}
}
