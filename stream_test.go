package qoz_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"qoz"
	"qoz/datagen"
	"qoz/metrics"
)

// TestStreamMatchesInMemory verifies the acceptance contract of the slab
// stream: for every codec, the streaming Encoder produces byte-identical
// output to the in-memory Encode under the same options, and the streaming
// Decoder's reconstruction is bit-identical to the in-memory Decode.
func TestStreamMatchesInMemory(t *testing.T) {
	ds := datagen.NYX(32, 32, 32)
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	ctx := context.Background()
	for _, name := range qoz.Codecs() {
		c := qoz.MustLookup(name)
		opts := qoz.Options{ErrorBound: eb}

		mem, err := qoz.Encode(ctx, c, ds.Data, ds.Dims, opts)
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		var sb bytes.Buffer
		enc, err := qoz.NewEncoder(&sb, qoz.StreamOptions{Codec: c, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(ctx, ds.Data, ds.Dims); err != nil {
			t.Fatalf("%s: Encoder.Encode: %v", name, err)
		}
		if !bytes.Equal(mem, sb.Bytes()) {
			t.Fatalf("%s: streaming bytes differ from in-memory Encode", name)
		}

		memRecon, _, err := qoz.Decode[float32](ctx, mem)
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		dec := qoz.NewDecoder(bytes.NewReader(sb.Bytes()))
		streamRecon, dims, err := dec.Decode(ctx)
		if err != nil {
			t.Fatalf("%s: Decoder.Decode: %v", name, err)
		}
		if len(dims) != 3 || len(streamRecon) != ds.Len() {
			t.Fatalf("%s: shape %v", name, dims)
		}
		for i := range memRecon {
			if math.Float32bits(memRecon[i]) != math.Float32bits(streamRecon[i]) {
				t.Fatalf("%s: reconstruction differs at %d: %v vs %v",
					name, i, memRecon[i], streamRecon[i])
			}
		}
	}
}

// TestStreamMultiSlab forces several slabs and verifies the bound holds,
// workers don't change the bytes, and the decoder parallelizes correctly.
func TestStreamMultiSlab(t *testing.T) {
	ds := datagen.NYX(32, 32, 32) // 32 rows of 1024 points
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	ctx := context.Background()
	for _, name := range qoz.Codecs() {
		c := qoz.MustLookup(name)
		so := qoz.StreamOptions{
			Codec:      c,
			Opts:       qoz.Options{ErrorBound: eb},
			SlabPoints: 4 * 1024, // 4 rows per slab → 8 slabs
			Workers:    4,
		}
		var b4 bytes.Buffer
		enc, err := qoz.NewEncoder(&b4, so)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(ctx, ds.Data, ds.Dims); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		so.Workers = 1
		var b1 bytes.Buffer
		enc1, err := qoz.NewEncoder(&b1, so)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc1.Encode(ctx, ds.Data, ds.Dims); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(b4.Bytes(), b1.Bytes()) {
			t.Fatalf("%s: worker count changed the stream bytes", name)
		}

		dec := qoz.NewDecoder(bytes.NewReader(b4.Bytes()))
		dec.Workers = 3
		hdr, err := dec.Header()
		if err != nil {
			t.Fatal(err)
		}
		if hdr.NumSlabs != 8 || hdr.SlabRows != 4 || hdr.CodecName != name || hdr.Float64 {
			t.Fatalf("%s: header %+v", name, hdr)
		}
		recon, dims, err := dec.Decode(ctx)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(dims) != 3 || dims[0] != 32 {
			t.Fatalf("%s: dims %v", name, dims)
		}
		maxErr, _ := metrics.MaxAbsError(ds.Data, recon)
		if maxErr > eb*(1+1e-12) {
			t.Fatalf("%s: bound violated: %g > %g", name, maxErr, eb)
		}
	}
}

// TestStreamFloat64MultiSlab exercises the per-slab escape envelope:
// high-precision points, NaN, and ±Inf must round-trip exactly while
// finite points respect the bound.
func TestStreamFloat64MultiSlab(t *testing.T) {
	n := 4096
	data := make([]float64, n)
	for i := range data {
		data[i] = 1e12 + math.Sin(float64(i)/30)
	}
	data[7] = math.NaN()
	data[100] = math.Inf(1)
	data[2077] = math.Inf(-1)
	eb := 1e-4
	ctx := context.Background()

	for _, name := range []string{"qoz", "zfp"} {
		so := qoz.StreamOptions{
			Codec:      qoz.MustLookup(name),
			Opts:       qoz.Options{ErrorBound: eb},
			SlabPoints: 1024, // 4 slabs
			Workers:    4,
		}
		var buf bytes.Buffer
		enc, err := qoz.NewEncoder(&buf, so)
		if err != nil {
			t.Fatal(err)
		}
		if err := qoz.EncodeT(ctx, enc, data, []int{n}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		dec := qoz.NewDecoder(bytes.NewReader(buf.Bytes()))
		hdr, err := dec.Header()
		if err != nil {
			t.Fatal(err)
		}
		if !hdr.Float64 || hdr.NumSlabs != 4 {
			t.Fatalf("%s: header %+v", name, hdr)
		}
		recon, dims, err := qoz.DecodeT[float64](ctx, dec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(dims) != 1 || len(recon) != n {
			t.Fatalf("%s: shape %v", name, dims)
		}
		if !math.IsNaN(recon[7]) {
			t.Fatalf("%s: NaN lost: %v", name, recon[7])
		}
		if !math.IsInf(recon[100], 1) || !math.IsInf(recon[2077], -1) {
			t.Fatalf("%s: Inf lost", name)
		}
		for i := range data {
			if i == 7 || i == 100 || i == 2077 {
				continue
			}
			if math.Abs(data[i]-recon[i]) > eb {
				t.Fatalf("%s: bound violated at %d: %g", name, i, math.Abs(data[i]-recon[i]))
			}
		}

		// The generic Decode sees the same bytes; the float32 view of a
		// float64 stream is refused without draining the stream, so the
		// same Decoder can still be pointed at DecodeT[float64].
		if _, _, err := qoz.Decode[float64](ctx, buf.Bytes()); err != nil {
			t.Fatalf("%s: generic Decode: %v", name, err)
		}
		d2 := qoz.NewDecoder(bytes.NewReader(buf.Bytes()))
		if _, _, err := d2.Decode(ctx); err == nil {
			t.Fatalf("%s: float64 stream decoded as float32", name)
		}
		if _, _, err := qoz.DecodeT[float64](ctx, d2); err != nil {
			t.Fatalf("%s: DecodeT[float64] after refused Decode: %v", name, err)
		}
	}
}

// TestDecodeFloat64Widens checks that a float32 stream decodes into
// float64 without loss.
func TestDecodeFloat64Widens(t *testing.T) {
	ds := datagen.CESMATM(32, 48)
	ctx := context.Background()
	buf, err := qoz.Encode(ctx, nil, ds.Data, ds.Dims, qoz.Options{RelBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	f32, _, err := qoz.Decode[float32](ctx, buf)
	if err != nil {
		t.Fatal(err)
	}
	dec := qoz.NewDecoder(bytes.NewReader(buf))
	f64, _, err := qoz.DecodeT[float64](ctx, dec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f32 {
		if float64(f32[i]) != f64[i] {
			t.Fatalf("widening mismatch at %d", i)
		}
	}
}

func TestEncoderValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := qoz.NewEncoder(nil, qoz.StreamOptions{}); err == nil {
		t.Error("nil writer accepted")
	}
	var b bytes.Buffer
	enc, err := qoz.NewEncoder(&b, qoz.StreamOptions{Opts: qoz.Options{ErrorBound: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(ctx, make([]float32, 10), []int{3, 4}); err == nil {
		t.Error("dims/data mismatch accepted")
	}
	if err := enc.Encode(ctx, make([]float32, 12), nil); err == nil {
		t.Error("empty dims accepted")
	}
	enc2, err := qoz.NewEncoder(&b, qoz.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc2.Encode(ctx, make([]float32, 12), []int{3, 4}); err == nil {
		t.Error("missing bound accepted")
	}
}

func TestStreamCancellation(t *testing.T) {
	ds := datagen.NYX(16, 16, 16)
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var b bytes.Buffer
	enc, err := qoz.NewEncoder(&b, qoz.StreamOptions{Opts: qoz.Options{ErrorBound: eb}})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(ctx, ds.Data, ds.Dims); err == nil {
		t.Error("canceled encode succeeded")
	}
	// A valid stream, then a canceled decode.
	enc2, err := qoz.NewEncoder(&b, qoz.StreamOptions{Opts: qoz.Options{ErrorBound: eb}})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc2.Encode(context.Background(), ds.Data, ds.Dims); err != nil {
		t.Fatal(err)
	}
	dec := qoz.NewDecoder(bytes.NewReader(b.Bytes()))
	if _, _, err := dec.Decode(ctx); err == nil {
		t.Error("canceled decode succeeded")
	}
}

// TestNextSlab walks a stream slab by slab and checks the concatenation
// matches the whole-stream decode bit for bit.
func TestNextSlab(t *testing.T) {
	ctx := context.Background()
	ds := datagen.NYX(20, 12, 12)
	var b bytes.Buffer
	enc, err := qoz.NewEncoder(&b, qoz.StreamOptions{
		Opts:       qoz.Options{RelBound: 1e-3},
		SlabPoints: 3 * 12 * 12, // 7 slabs, last one short
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(ctx, ds.Data, ds.Dims); err != nil {
		t.Fatal(err)
	}
	raw := b.Bytes()

	want, wantDims, err := qoz.Decode[float32](ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	dec := qoz.NewDecoder(bytes.NewReader(raw))
	hdr, err := dec.Header()
	if err != nil {
		t.Fatal(err)
	}
	var got []float32
	slabs := 0
	for {
		data, sdims, err := dec.NextSlab(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("slab %d: %v", slabs, err)
		}
		if len(sdims) != len(wantDims) || sdims[0] > hdr.SlabRows {
			t.Fatalf("slab %d: bad dims %v", slabs, sdims)
		}
		got = append(got, data...)
		slabs++
	}
	if slabs != hdr.NumSlabs {
		t.Fatalf("walked %d slabs, header says %d", slabs, hdr.NumSlabs)
	}
	if len(got) != len(want) {
		t.Fatalf("%d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: %v != %v", i, got[i], want[i])
		}
	}
	// A second NextSlab after EOF stays EOF.
	if _, _, err := dec.NextSlab(ctx); err != io.EOF {
		t.Fatalf("post-EOF NextSlab: %v", err)
	}
	// Mixing NextSlab with Decode must fail loudly, not silently misread.
	if _, _, err := dec.Decode(ctx); err == nil {
		t.Fatal("Decode after NextSlab succeeded")
	}
}

func TestNextSlabRejectsFloat64(t *testing.T) {
	ctx := context.Background()
	d64 := make([]float64, 64)
	for i := range d64 {
		d64[i] = float64(i)
	}
	var b bytes.Buffer
	enc, _ := qoz.NewEncoder(&b, qoz.StreamOptions{Opts: qoz.Options{ErrorBound: 1e-3}})
	if err := qoz.EncodeT(ctx, enc, d64, []int{64}); err != nil {
		t.Fatal(err)
	}
	dec := qoz.NewDecoder(bytes.NewReader(b.Bytes()))
	if _, _, err := dec.NextSlab(ctx); err == nil {
		t.Fatal("NextSlab accepted a float64 stream")
	}
}

// TestHeaderOverflowDims hand-crafts stream headers whose dimension
// product overflows or exceeds the sanity cap: parsing must error before
// anything is allocated from the declared size.
func TestHeaderOverflowDims(t *testing.T) {
	mk := func(dims []uint64) []byte {
		h := []byte("QOZS")
		h = append(h, 1, 1, 0, byte(len(dims)))
		for _, d := range dims {
			h = binary.AppendUvarint(h, d)
		}
		h = binary.LittleEndian.AppendUint64(h, math.Float64bits(1e-3))
		h = binary.AppendUvarint(h, dims[0]) // slab rows: whole field in one slab
		h = binary.AppendUvarint(h, 1)       // nslabs
		return h
	}
	huge := []([]uint64){
		{1 << 31, 1 << 31, 1 << 31},                                  // wraps int64 via product
		{math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32}, // wraps twice
		{1 << 30, 1 << 30},                                           // exceeds the cap without wrapping
	}
	for _, dims := range huge {
		dec := qoz.NewDecoder(bytes.NewReader(mk(dims)))
		if _, err := dec.Header(); err == nil {
			t.Fatalf("header with dims %v accepted", dims)
		}
	}
	// Sanity: a small crafted header still parses.
	dec := qoz.NewDecoder(bytes.NewReader(mk([]uint64{4, 4})))
	if _, err := dec.Header(); err != nil {
		t.Fatalf("valid crafted header rejected: %v", err)
	}
}

// TestSlabPayloadLengthCap verifies a declared slab payload length above
// the decode-side cap is rejected before any conversion to int — on
// 32-bit platforms int(1<<31) would wrap negative, so the cap must be
// checked in uint64 space (regression for the platform-safe bound).
func TestSlabPayloadLengthCap(t *testing.T) {
	mk := func(payloadLen uint64) []byte {
		h := []byte("QOZS")
		h = append(h, 1, 1, 0, 1)       // version, codec id, f32, 1-d
		h = binary.AppendUvarint(h, 64) // dims
		h = binary.LittleEndian.AppendUint64(h, math.Float64bits(1e-3))
		h = binary.AppendUvarint(h, 64) // slab rows: one slab
		h = binary.AppendUvarint(h, 1)  // nslabs
		h = binary.AppendUvarint(h, payloadLen)
		return h
	}
	for _, n := range []uint64{1<<31 + 1, math.MaxUint64 / 2} {
		dec := qoz.NewDecoder(bytes.NewReader(mk(n)))
		if _, _, err := dec.Decode(context.Background()); !errors.Is(err, qoz.ErrCorruptStream) {
			t.Fatalf("Decode with declared slab length %d returned %v, want ErrCorruptStream", n, err)
		}
		dec = qoz.NewDecoder(bytes.NewReader(mk(n)))
		if _, _, err := dec.NextSlab(context.Background()); !errors.Is(err, qoz.ErrCorruptStream) {
			t.Fatalf("NextSlab with declared slab length %d returned %v, want ErrCorruptStream", n, err)
		}
	}
}
