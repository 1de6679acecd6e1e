package qoz_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"qoz"
)

// sample and sample64 are defined sample types: every generic entry point
// must take them exactly as it takes float32 and float64.
type (
	sample   float32
	sample64 float64
)

func convert[F, T qoz.Float](v []F) []T {
	out := make([]T, len(v))
	for i, x := range v {
		out[i] = T(x)
	}
	return out
}

// kindField is a smooth 16x8x8 field carrying a NaN and an Inf; narrow makes
// every value (NaN payload included) survive a round trip through float32.
func kindField(narrow bool) []float64 {
	out := make([]float64, 16*8*8)
	for i := range out {
		out[i] = math.Cos(float64(i)/29) + 1e-9*float64(i%5)
	}
	out[7], out[700] = math.NaN(), math.Inf(-1)
	if narrow {
		for i, v := range out {
			out[i] = float64(float32(v))
		}
	}
	return out
}

// decodeOps runs every decode operation over stream (four slabs) and
// payload (one bare payload of the same field) as sample type T. When
// refuse is set each must fail with exactly qoz.ErrNarrowing; otherwise
// each must equal the archive's native-kind decode, widened — ref for the
// stream, pref for the payload — bit for bit (level decodes: on their
// stride grid).
func decodeOps[T qoz.Float](t *testing.T, stream, payload []byte, ref, pref []float64, refuse bool) {
	t.Helper()
	ctx := context.Background()
	type result struct {
		op   string
		got  []T
		want []float64
		err  error
	}
	var rs []result
	v, _, err := qoz.Decode[T](ctx, stream)
	rs = append(rs, result{"Decode", v, ref, err})
	v, _, err = qoz.DecodeT[T](ctx, qoz.NewDecoder(bytes.NewReader(stream)))
	rs = append(rs, result{"DecodeT", v, ref, err})

	dec := qoz.NewDecoder(bytes.NewReader(stream))
	var slabs []T
	for err = nil; err == nil; {
		var slab []T
		slab, _, err = qoz.NextSlabT[T](ctx, dec)
		slabs = append(slabs, slab...)
	}
	if err == io.EOF {
		err = nil
	}
	rs = append(rs, result{"NextSlabT", slabs, ref, err})

	v, _, err = qoz.DecodePayload[T](ctx, payload)
	rs = append(rs, result{"DecodePayload", v, pref, err})
	v, _, err = qoz.Decode[T](ctx, payload)
	rs = append(rs, result{"Decode(payload)", v, pref, err})
	for level := 1; level <= 3; level++ {
		var grid []float64
		step := 1 << (level - 1)
		for z := 0; z < 16; z += step {
			for y := 0; y < 8; y += step {
				for x := 0; x < 8; x += step {
					grid = append(grid, pref[(z*8+y)*8+x])
				}
			}
		}
		v, _, stride, err := qoz.DecodePayloadLevel[T](payload, level)
		if err == nil && stride != step {
			err = fmt.Errorf("stride %d, want %d", stride, step)
		}
		rs = append(rs, result{fmt.Sprintf("DecodePayloadLevel(%d)", level), v, grid, err})
	}
	for _, r := range rs {
		switch {
		case refuse && (!errors.Is(r.err, qoz.ErrNarrowing) || r.err.Error() != qoz.ErrNarrowing.Error()):
			t.Errorf("%s as %T: error %v, want exactly qoz.ErrNarrowing", r.op, *new(T), r.err)
		case !refuse && r.err != nil:
			t.Errorf("%s as %T: %v", r.op, *new(T), r.err)
		case !refuse && len(r.got) != len(r.want):
			t.Errorf("%s as %T: %d samples, want %d", r.op, *new(T), len(r.got), len(r.want))
		case !refuse:
			for i := range r.want {
				if math.Float64bits(float64(r.got[i])) != math.Float64bits(r.want[i]) {
					t.Errorf("%s as %T: sample %d is %v, the native decode has %v", r.op, *new(T), i, r.got[i], r.want[i])
					break
				}
			}
		}
	}
}

// encodeWays encodes field as sample type T three ways: Encode, an Encoder
// with four-row slabs via EncodeT, and one bare payload.
func encodeWays[T qoz.Float](t *testing.T, field []float64) (whole, slabbed, bare []byte) {
	t.Helper()
	ctx := context.Background()
	data, dims, opts := convert[float64, T](field), []int{16, 8, 8}, qoz.Options{RelBound: 1e-3}
	whole, err := qoz.Encode(ctx, nil, data, dims, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc, err := qoz.NewEncoder(&buf, qoz.StreamOptions{Opts: opts, SlabPoints: 4 * 8 * 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := qoz.EncodeT(ctx, enc, data, dims); err != nil {
		t.Fatal(err)
	}
	if bare, err = qoz.EncodePayload(ctx, nil, data, dims, opts); err != nil {
		t.Fatal(err)
	}
	return whole, buf.Bytes(), bare
}

// encodeKind encodes kindField as sample type T, checking that the type D
// defined on T produces the very same bytes every way, and returns the
// slabbed stream and the bare payload.
func encodeKind[T, D qoz.Float](t *testing.T, narrow bool) (stream, payload []byte) {
	t.Helper()
	w, s, b := encodeWays[T](t, kindField(narrow))
	dw, ds, db := encodeWays[D](t, kindField(narrow))
	if !bytes.Equal(w, dw) || !bytes.Equal(s, ds) || !bytes.Equal(b, db) {
		t.Fatalf("%T and %T encode differently", *new(T), *new(D))
	}
	return s, b
}

// TestKindMatrix runs every decode operation against archives of both
// sample kinds and, for each, every sample type: the native kind decodes as
// itself, float32 data widens bit-exactly, and float64 data is never
// narrowed — always refused with the one qoz.ErrNarrowing.
func TestKindMatrix(t *testing.T) {
	ctx := context.Background()

	stream32, payload32 := encodeKind[float32, sample](t, true)
	native32, _, err := qoz.Decode[float32](ctx, stream32)
	if err != nil {
		t.Fatal(err)
	}
	nativeP32, _, err := qoz.DecodePayload[float32](ctx, payload32)
	if err != nil {
		t.Fatal(err)
	}
	ref32, pref32 := convert[float32, float64](native32), convert[float32, float64](nativeP32)
	decodeOps[float32](t, stream32, payload32, ref32, pref32, false)
	decodeOps[float64](t, stream32, payload32, ref32, pref32, false)
	decodeOps[sample](t, stream32, payload32, ref32, pref32, false)
	decodeOps[sample64](t, stream32, payload32, ref32, pref32, false)

	stream64, payload64 := encodeKind[float64, sample64](t, false)
	ref64, _, err := qoz.Decode[float64](ctx, stream64)
	if err != nil {
		t.Fatal(err)
	}
	pref64, _, err := qoz.DecodePayload[float64](ctx, payload64)
	if err != nil {
		t.Fatal(err)
	}
	decodeOps[float64](t, stream64, payload64, ref64, pref64, false)
	decodeOps[sample64](t, stream64, payload64, ref64, pref64, false)
	decodeOps[float32](t, stream64, payload64, ref64, pref64, true)
	decodeOps[sample](t, stream64, payload64, ref64, pref64, true)

	for _, c := range []struct {
		payload []byte
		f64     bool
	}{{payload32, false}, {payload64, true}} {
		f64, id, dims, err := qoz.PeekPayload(c.payload)
		if err != nil || f64 != c.f64 || id != qoz.MustLookup(qoz.DefaultCodec).ID() || fmt.Sprint(dims) != "[16 8 8]" {
			t.Errorf("PeekPayload: float64=%v id=%d dims=%v err=%v", f64, id, dims, err)
		}
	}
}

// TestRelBoundIgnoresNonFiniteSamples is the table for the one bound
// resolver: a relative bound resolves against the range of the field's
// finite samples for both sample kinds, wherever the non-finite ones sit.
func TestRelBoundIgnoresNonFiniteSamples(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ramp := func(edit func(f []float64)) []float64 {
		f := make([]float64, 64)
		for i := range f {
			f[i] = float64(i) / 4 // range 15.75
		}
		edit(f)
		return f
	}
	cases := []struct {
		name  string
		field []float64
		vr    float64 // finite value range; 0 selects the constant-field bound
	}{
		{"NaN first", ramp(func(f []float64) { f[0] = nan }), 15.5},
		{"NaN middle", ramp(func(f []float64) { f[5] = nan }), 15.75},
		{"+Inf", ramp(func(f []float64) { f[9] = inf }), 15.75},
		{"-Inf", ramp(func(f []float64) { f[63] = -inf }), 15.5},
		{"all non-finite", ramp(func(f []float64) {
			for i := range f {
				f[i] = []float64{nan, inf, -inf}[i%3]
			}
		}), 0},
		{"constant", ramp(func(f []float64) {
			for i := range f {
				f[i] = 2.5
			}
		}), 0},
	}
	for _, tc := range cases {
		relBoundCase[float32](t, tc.name, tc.field, tc.vr, 1e-12)
		relBoundCase[float64](t, tc.name, tc.field, tc.vr, 1e-300)
	}
}

func relBoundCase[T qoz.Float](t *testing.T, name string, field []float64, vr, constBound float64) {
	t.Helper()
	ctx := context.Background()
	data := convert[float64, T](field)
	label := fmt.Sprintf("%s as %T", name, *new(T))
	want := 1e-2 * vr
	if vr == 0 {
		want = constBound
	}
	opts, err := qoz.ResolveAbsT(qoz.Options{RelBound: 1e-2}, data)
	if err != nil || opts.ErrorBound != want || opts.RelBound != 0 {
		t.Errorf("%s: ResolveAbsT = bound %g rel %g, %v; want bound %g", label, opts.ErrorBound, opts.RelBound, err, want)
	}
	buf, err := qoz.Encode(ctx, nil, data, []int{8, 8}, qoz.Options{RelBound: 1e-2})
	if err != nil {
		t.Errorf("%s: Encode: %v", label, err)
		return
	}
	hdr, err := qoz.NewDecoder(bytes.NewReader(buf)).Header()
	if err != nil || hdr.ErrorBound != want {
		t.Errorf("%s: stream bound %g, %v; want %g", label, hdr.ErrorBound, err, want)
	}
	got, _, err := qoz.Decode[T](ctx, buf)
	if err != nil {
		t.Errorf("%s: Decode: %v", label, err)
		return
	}
	for i, v := range data {
		g, w := float64(got[i]), float64(v)
		switch {
		case math.IsNaN(w) && !math.IsNaN(g), math.IsInf(w, 0) && g != w:
			t.Errorf("%s: sample %d is %v, want %v back exactly", label, i, g, w)
			return
		case !math.IsNaN(w) && !math.IsInf(w, 0) && !(math.Abs(g-w) <= want):
			t.Errorf("%s: sample %d off by %g, bound %g", label, i, math.Abs(g-w), want)
			return
		}
	}
}
