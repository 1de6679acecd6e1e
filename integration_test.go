package qoz_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"qoz"
	"qoz/datagen"
	"qoz/metrics"
)

// TestMatrixAllCodecsAllDatasets is the cross-module integration sweep:
// every codec × every dataset × three bounds must round-trip within bound.
func TestMatrixAllCodecsAllDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep skipped in -short mode")
	}
	ctx := context.Background()
	for _, ds := range datagen.AllSmall() {
		vr := metrics.ValueRange(ds.Data)
		for _, rel := range []float64{1e-2, 1e-3, 1e-4} {
			eb := rel * vr
			for _, name := range qoz.Codecs() {
				c := qoz.MustLookup(name)
				buf, err := c.Compress(ctx, ds.Data, ds.Dims, qoz.Options{ErrorBound: eb})
				if err != nil {
					t.Fatalf("%s/%s/ε=%g: %v", c.Name(), ds.Name, rel, err)
				}
				recon, dims, err := c.Decompress(ctx, buf)
				if err != nil {
					t.Fatalf("%s/%s/ε=%g: decompress: %v", c.Name(), ds.Name, rel, err)
				}
				if len(recon) != ds.Len() || len(dims) != len(ds.Dims) {
					t.Fatalf("%s/%s: shape mismatch", c.Name(), ds.Name)
				}
				maxErr, _ := metrics.MaxAbsError(ds.Data, recon)
				if maxErr > eb*(1+1e-12) {
					t.Fatalf("%s/%s/ε=%g: max error %g > %g", c.Name(), ds.Name, rel, maxErr, eb)
				}
			}
		}
	}
}

// TestNonFiniteValues verifies that NaN and ±Inf data points survive
// compression bit-exactly (escaped as literals / raw blocks) while finite
// points still respect the bound.
func TestNonFiniteValues(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	dims := []int{24, 24, 24}
	n := 24 * 24 * 24
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 17))
	}
	special := map[int]float32{}
	for k := 0; k < 40; k++ {
		idx := rng.Intn(n)
		var v float32
		switch k % 3 {
		case 0:
			v = float32(math.NaN())
		case 1:
			v = float32(math.Inf(1))
		default:
			v = float32(math.Inf(-1))
		}
		data[idx] = v
		special[idx] = v
	}
	eb := 1e-3
	for _, name := range qoz.Codecs() {
		c := qoz.MustLookup(name)
		buf, err := c.Compress(ctx, data, dims, qoz.Options{ErrorBound: eb})
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		recon, _, err := c.Decompress(ctx, buf)
		if err != nil {
			t.Fatalf("%s: decompress: %v", c.Name(), err)
		}
		for idx, want := range special {
			got := recon[idx]
			if math.IsNaN(float64(want)) {
				if !math.IsNaN(float64(got)) {
					t.Fatalf("%s: NaN at %d became %v", c.Name(), idx, got)
				}
			} else if got != want {
				t.Fatalf("%s: Inf at %d became %v", c.Name(), idx, got)
			}
		}
		for i, v := range data {
			if _, ok := special[i]; ok {
				continue
			}
			if math.Abs(float64(v)-float64(recon[i])) > eb*(1+1e-12) {
				t.Fatalf("%s: finite point %d off by %g", c.Name(), i,
					math.Abs(float64(v)-float64(recon[i])))
			}
		}
	}
}

// TestCorruptStreamsDoNotPanic flips bytes throughout compressed streams;
// decoders must either return an error or garbage — never panic.
func TestCorruptStreamsDoNotPanic(t *testing.T) {
	ctx := context.Background()
	ds := datagen.NYX(16, 16, 16)
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	rng := rand.New(rand.NewSource(12))
	for _, name := range qoz.Codecs() {
		c := qoz.MustLookup(name)
		buf, err := c.Compress(ctx, ds.Data, ds.Dims, qoz.Options{ErrorBound: eb})
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for trial := 0; trial < 200; trial++ {
			dup := append([]byte(nil), buf...)
			flips := 1 + rng.Intn(4)
			for f := 0; f < flips; f++ {
				dup[rng.Intn(len(dup))] ^= byte(1 + rng.Intn(255))
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic on corrupt stream: %v", c.Name(), r)
					}
				}()
				c.Decompress(ctx, dup) //nolint:errcheck // error or garbage both fine
			}()
		}
		// Truncations at every eighth byte.
		for cut := 0; cut < len(buf); cut += 8 {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic on truncated stream at %d: %v", c.Name(), cut, r)
					}
				}()
				c.Decompress(ctx, buf[:cut]) //nolint:errcheck
			}()
		}
	}
}

// TestDeterministicStreams verifies compression is deterministic: two runs
// over the same input produce identical bytes (required for reproducible
// archives).
func TestDeterministicStreams(t *testing.T) {
	ctx := context.Background()
	ds := datagen.Miranda(24, 32, 32)
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	for _, name := range qoz.Codecs() {
		c := qoz.MustLookup(name)
		a, err := c.Compress(ctx, ds.Data, ds.Dims, qoz.Options{ErrorBound: eb})
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		b, err := c.Compress(ctx, ds.Data, ds.Dims, qoz.Options{ErrorBound: eb})
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic sizes %d vs %d", c.Name(), len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: nondeterministic byte at %d", c.Name(), i)
			}
		}
	}
}
