package qoz_test

import (
	"context"
	"errors"
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
