package qoz_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"qoz"
	"qoz/datagen"
	"qoz/internal/container"
	"qoz/metrics"
)

func TestRegistryLookup(t *testing.T) {
	want := []string{"mgard", "qoz", "sz2", "sz3", "zfp"}
	got := qoz.Codecs()
	if len(got) != len(want) {
		t.Fatalf("Codecs() = %v, want %v", got, want)
	}
	for i, n := range want {
		if got[i] != n {
			t.Fatalf("Codecs() = %v, want %v", got, want)
		}
		c, err := qoz.Lookup(n)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", n, err)
		}
		if c.Name() != n {
			t.Fatalf("Lookup(%q).Name() = %q", n, c.Name())
		}
		byID, err := qoz.LookupID(c.ID())
		if err != nil || byID.Name() != n {
			t.Fatalf("LookupID(%d) = %v, %v; want %q", c.ID(), byID, err, n)
		}
	}
	if _, err := qoz.Lookup("nope"); err == nil {
		t.Error("Lookup of unknown name succeeded")
	}
	if _, err := qoz.LookupID(200); err == nil {
		t.Error("LookupID of unknown id succeeded")
	}
}

type fakeCodec struct {
	name string
	id   uint8
}

func (f fakeCodec) Name() string { return f.name }
func (f fakeCodec) ID() uint8    { return f.id }
func (f fakeCodec) Compress(context.Context, []float32, []int, qoz.Options) ([]byte, error) {
	return nil, nil
}
func (f fakeCodec) Decompress(context.Context, []byte) ([]float32, []int, error) {
	return nil, nil, nil
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	if err := qoz.Register(nil); err == nil {
		t.Error("nil codec registered")
	}
	if err := qoz.Register(fakeCodec{"qoz", 99}); err == nil {
		t.Error("duplicate name registered")
	}
	if err := qoz.Register(fakeCodec{"fresh", 1}); err == nil {
		t.Error("duplicate id registered")
	}
	if err := qoz.Register(fakeCodec{"", 99}); err == nil {
		t.Error("unnamed codec registered")
	}
}

func TestGenericRoundTripAllCodecs(t *testing.T) {
	ds := datagen.NYX(16, 16, 16)
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	ctx := context.Background()
	d64 := make([]float64, len(ds.Data))
	for i, v := range ds.Data {
		d64[i] = float64(v)
	}
	for _, name := range qoz.Codecs() {
		c := qoz.MustLookup(name)
		opts := qoz.Options{ErrorBound: eb}

		// The codec's own bare container.
		bare, err := c.Compress(ctx, ds.Data, ds.Dims, opts)
		if err != nil {
			t.Fatalf("%s: Compress: %v", name, err)
		}
		recon, dims, err := c.Decompress(ctx, bare)
		if err != nil {
			t.Fatalf("%s: Decompress: %v", name, err)
		}
		if len(dims) != 3 || len(recon) != ds.Len() {
			t.Fatalf("%s: bare shape %v, %d points", name, dims, len(recon))
		}
		if maxErr, _ := metrics.MaxAbsError(ds.Data, recon); maxErr > eb*(1+1e-12) {
			t.Fatalf("%s: bare bound violated: %g > %g", name, maxErr, eb)
		}

		// The self-describing slab stream.
		buf, err := qoz.Encode(ctx, c, ds.Data, ds.Dims, opts)
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		recon, dims, err = qoz.Decode[float32](ctx, buf)
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		if len(dims) != 3 || len(recon) != ds.Len() {
			t.Fatalf("%s: shape %v, %d points", name, dims, len(recon))
		}
		maxErr, _ := metrics.MaxAbsError(ds.Data, recon)
		if maxErr > eb*(1+1e-12) {
			t.Fatalf("%s: bound violated: %g > %g", name, maxErr, eb)
		}

		buf64, err := qoz.Encode(ctx, c, d64, ds.Dims, opts)
		if err != nil {
			t.Fatalf("%s: Encode[float64]: %v", name, err)
		}
		recon64, _, err := qoz.Decode[float64](ctx, buf64)
		if err != nil {
			t.Fatalf("%s: Decode[float64]: %v", name, err)
		}
		for i := range d64 {
			if math.Abs(d64[i]-recon64[i]) > eb*(1+1e-12) {
				t.Fatalf("%s: float64 bound violated at %d", name, i)
			}
		}
		if _, _, err := qoz.Decode[float32](ctx, buf64); err == nil {
			t.Fatalf("%s: float64 stream narrowed to float32", name)
		}
	}
}

// TestCompressRejectsNineDims hands every registered codec, and the
// float64 payload encoder, a 9-dimensional field: one dimension past what
// any stream can carry. Each must return an error rather than panic in its
// predictor.
func TestCompressRejectsNineDims(t *testing.T) {
	ctx := context.Background()
	dims := []int{2, 2, 2, 2, 2, 2, 2, 2, 2}
	data := make([]float32, 512)
	d64 := make([]float64, 512)
	for i := range data {
		data[i] = float32(i % 7)
		d64[i] = float64(i % 7)
	}
	opts := qoz.Options{ErrorBound: 1e-2}
	for _, name := range qoz.Codecs() {
		c := qoz.MustLookup(name)
		mustNotPanic(t, name, func() {
			if _, err := c.Compress(ctx, data, dims, opts); err == nil {
				t.Errorf("%s: Compress accepted 9 dimensions", name)
			}
			if _, err := qoz.EncodePayload(ctx, c, d64, dims, opts); err == nil {
				t.Errorf("%s: EncodePayload accepted 9 dimensions", name)
			}
		})
	}
}

func TestDecodeLegacyFormats(t *testing.T) {
	ds := datagen.NYX(16, 16, 16)
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	ctx := context.Background()

	// Legacy QoZ container from the deprecated free function.
	legacy, err := qoz.MustLookup(qoz.DefaultCodec).Compress(context.Background(), ds.Data, ds.Dims, qoz.Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := qoz.Decode[float32](ctx, legacy)
	if err != nil {
		t.Fatalf("Decode of legacy container: %v", err)
	}
	b, _, err := qoz.MustLookup(qoz.DefaultCodec).Decompress(context.Background(), legacy)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("Decode and Decompress disagree at %d", i)
		}
	}

	// A baseline's bare container routes through the registry by id.
	sz3buf, err := qoz.MustLookup("sz3").Compress(ctx, ds.Data, ds.Dims, qoz.Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := qoz.Decode[float32](ctx, sz3buf); err != nil {
		t.Fatalf("Decode of SZ3 container: %v", err)
	}
	// Widening a float32 container into float64 is allowed.
	if _, _, err := qoz.Decode[float64](ctx, sz3buf); err != nil {
		t.Fatalf("Decode[float64] of float32 container: %v", err)
	}

	// Legacy float64 envelope.
	d64 := make([]float64, len(ds.Data))
	for i, v := range ds.Data {
		d64[i] = float64(v)
	}
	env, err := qoz.EncodePayload(context.Background(), nil, d64, ds.Dims, qoz.Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := qoz.Decode[float64](ctx, env); err != nil {
		t.Fatalf("Decode of legacy float64 envelope: %v", err)
	}
	if _, _, err := qoz.Decode[float32](ctx, env); err == nil {
		t.Fatal("legacy float64 envelope narrowed to float32")
	}
}

type myF32 float32

func TestGenericDefinedType(t *testing.T) {
	ctx := context.Background()
	n := 512
	data := make([]myF32, n)
	for i := range data {
		data[i] = myF32(math.Sin(float64(i) / 20))
	}
	buf, err := qoz.Encode(ctx, nil, data, []int{n}, qoz.Options{RelBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	recon, dims, err := qoz.Decode[myF32](ctx, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 1 || len(recon) != n {
		t.Fatalf("shape %v, %d points", dims, len(recon))
	}
	eb := 2 * 1e-3 // value range is ~2
	for i := range data {
		if math.Abs(float64(data[i])-float64(recon[i])) > eb {
			t.Fatalf("bound violated at %d", i)
		}
	}
}

func TestCanceledContext(t *testing.T) {
	ds := datagen.NYX(16, 16, 16)
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := qoz.Encode(ctx, nil, ds.Data, ds.Dims, qoz.Options{ErrorBound: eb}); err == nil {
		t.Error("Encode with canceled context succeeded")
	}
	buf, err := qoz.Encode(context.Background(), nil, ds.Data, ds.Dims, qoz.Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := qoz.Decode[float32](ctx, buf); err == nil {
		t.Error("Decode with canceled context succeeded")
	}
}

func TestCrossCodecStreamsRejected(t *testing.T) {
	ctx := context.Background()
	ds := datagen.CESMATM(48, 64)
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	bufSZ3, err := qoz.MustLookup("sz3").Compress(ctx, ds.Data, ds.Dims, qoz.Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sz2", "zfp"} {
		if _, _, err := qoz.MustLookup(name).Decompress(ctx, bufSZ3); err == nil {
			t.Errorf("%s accepted an sz3 stream", name)
		}
	}
}

// TestLiteralCountMismatchRejected: the prediction codecs keep escaped
// values in a literals section (id 2 in all three framings) beside a bin
// stream that says where they go, and the container has no checksum. A
// stream with one literal dropped or one added used to decode — to wrong
// samples, or with the surplus ignored — and must be refused.
func TestLiteralCountMismatchRejected(t *testing.T) {
	const secLiterals = 2
	ctx := context.Background()
	ds := datagen.NYX(24, 24, 24)
	data := append([]float32(nil), ds.Data...)
	for i := 5; i < len(data); i += 97 {
		data[i] = 1e30 // far outside the quantizer's radius: escapes
	}
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	for _, name := range []string{"sz2", "sz3", "mgard"} {
		c := qoz.MustLookup(name)
		buf, err := c.Compress(ctx, data, ds.Dims, qoz.Options{ErrorBound: eb})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for change, mutate := range map[string]func([]byte) []byte{
			"dropped": func(lits []byte) []byte { return lits[:len(lits)-4] },
			"added":   func(lits []byte) []byte { return append(lits, 0, 0, 128, 63) },
		} {
			s, err := container.Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for i := range s.Sections {
				if s.Sections[i].ID == secLiterals && len(s.Sections[i].Data) >= 4 {
					s.Sections[i].Data = mutate(s.Sections[i].Data)
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: stream holds no literals; the case lost its footing", name)
			}
			bad, err := container.Encode(s)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.Decompress(ctx, bad); err == nil || !strings.Contains(err.Error(), "literal") {
				t.Fatalf("%s, one literal %s: decoded with error %v", name, change, err)
			}
		}
	}
}

// TestDecodePayloadBox is the clipped decode's oracle at the public entry:
// for every registered codec, float32 and float64 payloads (the latter
// with points stored as exact escapes), 1- to 4-dimensional fields with
// NaNs, infinities and outliers, and random boxes, DecodePayload with a
// box returns the field's shape with the whole decode's values inside the
// box, bit for bit. Codecs without an interpolation pyramid (sz2, zfp)
// decode in full. A box outside the field or of the wrong rank is an error
// on the pyramid codecs.
func TestDecodePayloadBox(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(43))
	for _, dims := range [][]int{{300}, {37, 29}, {19, 17, 23}, {7, 9, 8, 11}} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		wide := make([]float64, n)
		for i := range wide {
			wide[i] = math.Sin(float64(i)/13) + 0.01*rng.NormFloat64()
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), 1e30, 1e12 + 0.5} {
			wide[rng.Intn(n)] = v
		}
		narrow := make([]float32, n)
		for i, v := range wide {
			narrow[i] = float32(v)
		}
		for _, name := range qoz.Codecs() {
			if name == "zfp" && len(dims) > 3 {
				continue // zfp codes 1 to 3 dimensions
			}
			c := qoz.MustLookup(name)
			opts := qoz.Options{ErrorBound: 1e-3}
			p32, err := qoz.EncodePayload(ctx, c, narrow, dims, opts)
			if err != nil {
				t.Fatalf("%s %v: %v", name, dims, err)
			}
			p64, err := qoz.EncodePayload(ctx, c, wide, dims, opts)
			if err != nil {
				t.Fatalf("%s %v float64: %v", name, dims, err)
			}
			for trial := 0; trial < 4; trial++ {
				box := make([]qoz.Range, len(dims))
				for q, ext := range dims {
					lo := rng.Intn(ext)
					box[q] = qoz.Range{Lo: lo, Hi: lo + 1 + rng.Intn(ext-lo)}
				}
				label := fmt.Sprintf("%s %v box %v", name, dims, box)
				boxMatches[float32](t, label, p32, dims, box)
				boxMatches[float64](t, label+" float64", p64, dims, box)
			}
			if name == "sz2" || name == "zfp" {
				continue
			}
			past, rank := make([]qoz.Range, len(dims)), make([]qoz.Range, len(dims)+1)
			for q := range rank {
				rank[q] = qoz.Range{Lo: 0, Hi: 1}
			}
			copy(past, rank)
			past[0].Hi = dims[0] + 1
			for _, bad := range [][]qoz.Range{past, rank} {
				if _, _, err := qoz.DecodePayload[float32](ctx, p32, bad...); err == nil {
					t.Errorf("%s %v: box %v accepted", name, dims, bad)
				}
			}
		}
	}
}

// boxMatches decodes payload whole and clipped to box as samples of type
// T and compares the two inside the box.
func boxMatches[T qoz.Float](t *testing.T, label string, payload []byte, dims []int, box []qoz.Range) {
	t.Helper()
	whole, _, err := qoz.DecodePayload[T](context.Background(), payload)
	if err != nil {
		t.Fatalf("%s: whole: %v", label, err)
	}
	got, gdims, err := qoz.DecodePayload[T](context.Background(), payload, box...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !slices.Equal(gdims, dims) || len(got) != len(whole) {
		t.Fatalf("%s: clipped decode has dims %v and %d points, want %v and %d", label, gdims, len(got), dims, len(whole))
	}
	for i := range got {
		in, r := true, i
		for q := len(dims) - 1; q >= 0; q-- {
			c := r % dims[q]
			r /= dims[q]
			in = in && c >= box[q].Lo && c < box[q].Hi
		}
		if in && math.Float64bits(float64(got[i])) != math.Float64bits(float64(whole[i])) {
			t.Fatalf("%s: point %d = %v, whole decode %v", label, i, got[i], whole[i])
		}
	}
}
