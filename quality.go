package qoz

import (
	"context"
	"errors"
	"math"
	"slices"

	"qoz/internal/core"
	"qoz/metrics"
)

// CompressTargetPSNRContext compresses data so that the reconstruction is
// estimated to reach (at least approximately) the given PSNR in dB,
// searching the error bound by bisection over sampled trial compressions
// — a fixed-quality mode in the spirit of the fixed-PSNR compression the
// paper cites as related work. Any bound set in opts is ignored; the other
// options (metric, ablation switches, sampling knobs) apply unchanged. The
// context is observed between bisection and refinement rounds.
//
// The achieved PSNR is approximate (the estimate is sampled); callers
// needing a hard guarantee should verify with metrics.PSNR and re-compress
// at a tightened target if necessary.
func CompressTargetPSNRContext(ctx context.Context, data []float32, dims []int, targetDB float64, opts Options) ([]byte, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if targetDB <= 0 || math.IsNaN(targetDB) || math.IsInf(targetDB, 0) {
		return nil, Stats{}, errors.New("qoz: target PSNR must be positive and finite")
	}
	codec := MustLookup(DefaultCodec)
	// Non-finite samples round-trip exactly, so quality is measured over
	// the finite ones: their range, and the estimate probes a copy in which
	// every sample is finite.
	vr := finiteRange(data)
	if vr == 0 {
		// Constant field: any bound is lossless in range terms.
		opts.ErrorBound, opts.RelBound = 1e-12, 0
		return CompressStats(data, dims, opts)
	}
	finite := finiteSamples(data)

	// PSNR decreases monotonically with the bound: bisect log10(ε).
	lo, hi := -8.0, -0.3
	for iter := 0; iter < 14; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
		mid := (lo + hi) / 2
		eb := math.Pow(10, mid) * vr
		probe := opts
		probe.ErrorBound, probe.RelBound = eb, 0
		co, err := probe.resolve(data)
		if err != nil {
			return nil, Stats{}, err
		}
		_, psnr, err := core.EstimateQuality(finite, dims, co)
		if err != nil {
			return nil, Stats{}, err
		}
		if psnr >= targetDB {
			lo = mid // bound can be loosened
		} else {
			hi = mid
		}
	}
	// The sampled estimate can be optimistic relative to the full array;
	// verify the achieved PSNR and tighten the bound until the target is
	// met (a few refinement rounds suffice in practice).
	eb := math.Pow(10, lo) * vr
	var lastBuf []byte
	var lastStats Stats
	for round := 0; round < 6; round++ {
		if err := ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
		opts.ErrorBound, opts.RelBound = eb, 0
		buf, st, err := CompressStats(data, dims, opts)
		if err != nil {
			return nil, Stats{}, err
		}
		recon, _, err := codec.Decompress(ctx, buf)
		if err != nil {
			return nil, Stats{}, err
		}
		if len(recon) != len(data) {
			return nil, Stats{}, metrics.ErrShapeMismatch
		}
		psnr := finitePSNR(data, recon, vr)
		lastBuf, lastStats = buf, st
		if psnr >= targetDB {
			break
		}
		// Halving the bound raises PSNR by ~6 dB; scale the step to the
		// remaining gap.
		gap := targetDB - psnr
		eb *= math.Pow(10, -gap/20) * 0.9
	}
	return lastBuf, lastStats, nil
}

// finiteSamples returns data with each non-finite sample replaced by the
// first finite one (0 when there is none), or data itself when every
// sample is finite.
func finiteSamples(data []float32) []float32 {
	if !slices.ContainsFunc(data, nonFinite) {
		return data
	}
	var fill float32
	if i := slices.IndexFunc(data, func(v float32) bool { return !nonFinite(v) }); i >= 0 {
		fill = data[i]
	}
	out := slices.Clone(data)
	for i, v := range out {
		if nonFinite(v) {
			out[i] = fill
		}
	}
	return out
}

// finitePSNR is metrics.PSNR over the points whose original sample is
// finite, against their value range vr: the non-finite ones round-trip
// exactly and would only turn the error sum into NaN.
func finitePSNR(orig, recon []float32, vr float64) float64 {
	var se float64
	n := 0
	for i, v := range orig {
		if !nonFinite(v) {
			d := float64(v) - float64(recon[i])
			se += d * d
			n++
		}
	}
	if se == 0 {
		return math.Inf(1)
	}
	return 20 * math.Log10(vr/math.Sqrt(se/float64(n)))
}

func nonFinite(v float32) bool {
	return math.IsNaN(float64(v)) || math.IsInf(float64(v), 0)
}
