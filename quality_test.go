package qoz_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"qoz"
	"qoz/datagen"
	"qoz/metrics"
)

// TestCompressTargetPSNRWithinBand asserts the fixed-quality mode lands in
// a tolerance band around the requested PSNR: at or above the target
// (the refinement rounds tighten until it is met) without wildly
// overshooting it (which would waste bits the caller asked to spend on
// rate instead).
func TestCompressTargetPSNRWithinBand(t *testing.T) {
	ds := datagen.CESMATM(64, 128)
	for _, target := range []float64{50, 70} {
		buf, stats, err := qoz.CompressTargetPSNRContext(context.Background(), ds.Data, ds.Dims, target, qoz.Options{})
		if err != nil {
			t.Fatalf("target %v dB: %v", target, err)
		}
		if stats.AbsBound <= 0 {
			t.Fatalf("target %v dB: no bound reported", target)
		}
		recon, _, err := qoz.MustLookup(qoz.DefaultCodec).Decompress(context.Background(), buf)
		if err != nil {
			t.Fatal(err)
		}
		psnr, err := metrics.PSNR(ds.Data, recon)
		if err != nil {
			t.Fatal(err)
		}
		const slack, band = 0.5, 15
		if psnr < target-slack || psnr > target+band {
			t.Fatalf("target %v dB: achieved %.2f dB, outside [%v, %v]", target, psnr, target-slack, target+band)
		}
	}
}

// TestCompressTargetPSNRCancellation verifies the bisection observes its
// context: a canceled context must abort the search with the context's
// error, not run 14 trial compressions to completion.
func TestCompressTargetPSNRCancellation(t *testing.T) {
	ds := datagen.CESMATM(64, 128)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := qoz.CompressTargetPSNRContext(ctx, ds.Data, ds.Dims, 60, qoz.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestCompressTargetPSNRRejectsBadTargets covers the argument validation.
func TestCompressTargetPSNRRejectsBadTargets(t *testing.T) {
	ds := datagen.CESMATM(32, 32)
	for _, bad := range []float64{0, -10} {
		if _, _, err := qoz.CompressTargetPSNRContext(context.Background(), ds.Data, ds.Dims, bad, qoz.Options{}); err == nil {
			t.Errorf("target %v accepted", bad)
		}
	}
}

// TestCompressTargetPSNRNonFinite: non-finite samples round-trip exactly,
// so a field holding a NaN and an infinity reaches the target over its
// finite points, as the same field without them does.
func TestCompressTargetPSNRNonFinite(t *testing.T) {
	const n, target = 32, 60.0
	dims := []int{n, n, n}
	data := make([]float32, n*n*n)
	for i := range data {
		z, y, x := i/(n*n), i/n%n, i%n
		data[i] = float32(math.Sin(float64(z)/5) * math.Cos(float64(y)/7) * math.Sin(float64(x)/3))
	}
	nan, inf := 1000, 20000
	data[nan], data[inf] = float32(math.NaN()), float32(math.Inf(1))
	buf, _, err := qoz.CompressTargetPSNRContext(context.Background(), data, dims, target, qoz.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := qoz.MustLookup(qoz.DefaultCodec).Decompress(context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(recon[nan])) || !math.IsInf(float64(recon[inf]), 1) {
		t.Fatalf("non-finite samples came back as %v and %v", recon[nan], recon[inf])
	}
	var orig, got []float32
	for i, v := range data {
		if i != nan && i != inf {
			orig, got = append(orig, v), append(got, recon[i])
		}
	}
	psnr, err := metrics.PSNR(orig, got)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < target-0.5 {
		t.Fatalf("finite points reach %.2f dB, want at least %v", psnr, target)
	}
}
