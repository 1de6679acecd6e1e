// Package metrics implements the compression quality metrics used in the
// QoZ paper: PSNR / (N)RMSE, windowed SSIM, lag-k autocorrelation of
// compression errors, maximum error, and bit-rate helpers. All metrics
// take the original and reconstructed data as flat float32 slices (with
// dimensions where spatial structure matters) and compute in float64.
package metrics

import (
	"errors"
	"math"
)

// ErrShapeMismatch reports slices of different lengths.
var ErrShapeMismatch = errors.New("metrics: original and reconstructed lengths differ")

// MSE returns the mean squared error between a and b.
func MSE(a, b []float32) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrShapeMismatch
	}
	if len(a) == 0 {
		return 0, nil
	}
	var sum float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		sum += d * d
	}
	return sum / float64(len(a)), nil
}

// ValueRange returns max(a)-min(a) over the samples that are not NaN;
// zero for constant data and for data with no such sample.
func ValueRange(a []float32) float64 {
	lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, v := range a {
		// A NaN compares false both ways, so it never moves lo or hi.
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo > hi {
		return 0
	}
	return float64(hi) - float64(lo)
}

// PSNR returns the peak signal-to-noise ratio in dB:
// 20*log10(range / rmse). A perfect reconstruction returns +Inf.
func PSNR(orig, recon []float32) (float64, error) {
	mse, err := MSE(orig, recon)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return math.Inf(1), nil
	}
	vr := ValueRange(orig)
	if vr == 0 {
		return math.Inf(-1), nil
	}
	return 20 * math.Log10(vr/math.Sqrt(mse)), nil
}

// NRMSE returns the value-range-normalized root mean squared error.
func NRMSE(orig, recon []float32) (float64, error) {
	mse, err := MSE(orig, recon)
	if err != nil {
		return 0, err
	}
	vr := ValueRange(orig)
	if vr == 0 {
		if mse == 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return math.Sqrt(mse) / vr, nil
}

// MaxAbsError returns the L-infinity error, the quantity every
// error-bounded compressor must keep at or below the user's bound. A
// non-finite sample counts as exact only where the other side holds the
// same value (NaN for NaN, the same infinity); any other pair with a
// non-finite side is an error of +Inf.
func MaxAbsError(orig, recon []float32) (float64, error) {
	if len(orig) != len(recon) {
		return 0, ErrShapeMismatch
	}
	var m float64
	for i := range orig {
		a, b := float64(orig[i]), float64(recon[i])
		d := math.Abs(a - b)
		if math.IsNaN(d) { // NaN on a side, or the same infinity on both
			if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
				continue
			}
			return math.Inf(1), nil
		}
		if d > m {
			m = d
		}
	}
	return m, nil
}

// AutoCorrelation returns the lag-k autocorrelation of the compression
// error series e_i = orig_i - recon_i, as defined in the paper (Eq. 4).
// A constant error series (zero variance) returns 0; users read lower
// values as "whiter" error noise.
func AutoCorrelation(orig, recon []float32, lag int) (float64, error) {
	if len(orig) != len(recon) {
		return 0, ErrShapeMismatch
	}
	n := len(orig)
	if lag <= 0 || n <= lag+1 {
		return 0, errors.New("metrics: series too short for lag")
	}
	errs := make([]float64, n)
	var mean float64
	for i := range orig {
		errs[i] = float64(orig[i]) - float64(recon[i])
		mean += errs[i]
	}
	mean /= float64(n)
	var variance float64
	for _, e := range errs {
		d := e - mean
		variance += d * d
	}
	variance /= float64(n)
	if variance == 0 {
		return 0, nil
	}
	var cov float64
	for i := 0; i+lag < n; i++ {
		cov += (errs[i] - mean) * (errs[i+lag] - mean)
	}
	cov /= float64(n - lag)
	return cov / variance, nil
}

// BitRate returns bits per data point for a compressed payload covering
// n float values.
func BitRate(compressedBytes, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(compressedBytes) * 8 / float64(n)
}

// CompressionRatio returns original bytes / compressed bytes, counting
// 4 bytes per (float32) data point as in the paper.
func CompressionRatio(n, compressedBytes int) float64 {
	if compressedBytes == 0 {
		return math.Inf(1)
	}
	return float64(n) * 4 / float64(compressedBytes)
}
