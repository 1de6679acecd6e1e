package qoz

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qoz/datagen"
	"qoz/internal/core"
)

func TestFloat64RoundTripRespectsBound(t *testing.T) {
	ds := datagen.NYX(32, 32, 32)
	data := make([]float64, ds.Len())
	for i, v := range ds.Data {
		data[i] = float64(v) * 1.000000001 // genuinely double-precision
	}
	eb := 1e-3 * finiteRange(data)
	buf, err := EncodePayload(context.Background(), nil, data, ds.Dims, Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	recon, dims, err := DecodePayload[float64](context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 3 || len(recon) != len(data) {
		t.Fatalf("shape %v", dims)
	}
	for i := range data {
		if math.Abs(data[i]-recon[i]) > eb {
			t.Fatalf("bound violated at %d: %g", i, math.Abs(data[i]-recon[i]))
		}
	}
}

// TestFloat64InnerStreamMatchesReference pins the fused decode pipeline
// bit-identical to the closure-based scalar oracle on the float32 core
// stream embedded in a float64 envelope. The envelope overlay itself is
// a deterministic function of that core reconstruction, so this extends
// the core differential guarantee to the f64 path.
func TestFloat64InnerStreamMatchesReference(t *testing.T) {
	ds := datagen.NYX(24, 24, 24)
	data := make([]float64, ds.Len())
	for i, v := range ds.Data {
		data[i] = float64(v) * 1.000000001
	}
	eb := 1e-3 * finiteRange(data)
	for _, opts := range []Options{
		{ErrorBound: eb},
		{ErrorBound: eb, DisableAnchors: true},
	} {
		buf, err := EncodePayload(context.Background(), nil, data, ds.Dims, opts)
		if err != nil {
			t.Fatal(err)
		}
		env, err := parseEnvelope(buf)
		if err != nil {
			t.Fatal(err)
		}
		inner := env.inner
		fast, _, err := core.Decompress(inner)
		if err != nil {
			t.Fatalf("fast inner decode: %v", err)
		}
		ref, _, err := core.DecompressReference(inner)
		if err != nil {
			t.Fatalf("reference inner decode: %v", err)
		}
		for i := range fast {
			if math.Float32bits(fast[i]) != math.Float32bits(ref[i]) {
				t.Fatalf("anchors=%v: inner recon[%d] = %x, want %x",
					!opts.DisableAnchors, i, math.Float32bits(fast[i]), math.Float32bits(ref[i]))
			}
		}
		if _, _, err := DecodePayload[float64](context.Background(), buf); err != nil {
			t.Fatalf("envelope decode: %v", err)
		}
	}
}

func TestFloat64EscapesHighPrecisionPoints(t *testing.T) {
	// Large magnitude + tiny bound: float32 conversion alone would break
	// the bound, so points must be escaped and restored exactly.
	n := 256
	data := make([]float64, n)
	for i := range data {
		data[i] = 1e12 + float64(i)*1e-3
	}
	eb := 1e-4
	buf, err := EncodePayload(context.Background(), nil, data, []int{n}, Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := DecodePayload[float64](context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] != recon[i] {
			t.Fatalf("escaped point %d not exact: %v vs %v", i, data[i], recon[i])
		}
	}
}

func TestFloat64RelBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 1000
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i)/30) + rng.NormFloat64()*0.001
	}
	buf, err := EncodePayload(context.Background(), nil, data, []int{n}, Options{RelBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := DecodePayload[float64](context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	eb := 1e-3 * finiteRange(data)
	for i := range data {
		if math.Abs(data[i]-recon[i]) > eb {
			t.Fatalf("bound violated at %d", i)
		}
	}
	// It should actually compress.
	if len(buf) >= n*8 {
		t.Fatalf("no compression: %d bytes for %d doubles", len(buf), n*8)
	}
}

func TestFloat64Validation(t *testing.T) {
	if _, err := EncodePayload(context.Background(), nil, make([]float64, 4), []int{4}, Options{}); err == nil {
		t.Error("missing bound accepted")
	}
	if _, err := EncodePayload(context.Background(), nil, make([]float64, 4), []int{4},
		Options{ErrorBound: 1, RelBound: 1}); err == nil {
		t.Error("both bounds accepted")
	}
	if _, _, err := DecodePayload[float64](context.Background(), []byte("xx")); err == nil {
		t.Error("garbage accepted")
	}
	// A float32 payload must be rejected by the envelope parser; the one
	// payload decoder recognizes it for what it is and widens it.
	buf, err := MustLookup(DefaultCodec).Compress(context.Background(), make([]float32, 16), []int{16}, Options{ErrorBound: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseEnvelope(buf); err == nil {
		t.Error("float32 stream accepted as float64")
	}
	if v, _, err := DecodePayload[float64](context.Background(), buf); err != nil || len(v) != 16 {
		t.Errorf("float32 payload did not widen: %d samples, %v", len(v), err)
	}
}

func TestFloat64BoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(512)
		data := make([]float64, n)
		scale := math.Pow(10, rng.Float64()*8-4)
		for i := range data {
			data[i] = rng.NormFloat64() * scale
		}
		eb := math.Pow(10, -1-5*rng.Float64()) * finiteRange(data)
		if eb <= 0 {
			return true
		}
		buf, err := EncodePayload(context.Background(), nil, data, []int{n}, Options{ErrorBound: eb})
		if err != nil {
			return false
		}
		recon, _, err := DecodePayload[float64](context.Background(), buf)
		if err != nil {
			return false
		}
		for i := range data {
			if math.Abs(data[i]-recon[i]) > eb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
