package metrics

import (
	"errors"
	"math"

	"qoz/internal/grid"
)

// SSIM constants follow Wang et al. 2004 with K1=0.01, K2=0.03 applied to
// the data's value range (scientific data is not 8-bit, so the dynamic
// range is measured from the original field, as Z-checker does).
const (
	ssimK1 = 0.01
	ssimK2 = 0.03
)

// ssimWindow2D / ssimWindow3D are the window edge lengths for tiled SSIM.
// Non-overlapping tiles keep the metric cheap enough for online tuning;
// this deviates from the dense sliding windows of Wang et al.
const (
	ssimWindow2D = 8
	ssimWindow3D = 6
)

// SSIM computes the mean structural similarity between the original and
// reconstructed fields over non-overlapping windows. dims gives the
// spatial shape of both slices; 1D, 2D and 3D data are supported.
func SSIM(orig, recon []float32, dims []int) (float64, error) {
	if len(orig) != len(recon) {
		return 0, ErrShapeMismatch
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return 0, errors.New("metrics: non-positive dimension")
		}
		n *= d
	}
	if n != len(orig) {
		return 0, errors.New("metrics: dims do not match data length")
	}
	vr := ValueRange(orig)
	if vr == 0 {
		// Constant field: SSIM is 1 iff reconstruction is also constant
		// and equal; otherwise define via covariance terms directly.
		vr = 1e-12
	}
	c1 := (ssimK1 * vr) * (ssimK1 * vr)
	c2 := (ssimK2 * vr) * (ssimK2 * vr)

	var edge int // windows are cubes
	switch len(dims) {
	case 1:
		edge = ssimWindow2D * ssimWindow2D
	case 2:
		edge = ssimWindow2D
	case 3:
		edge = ssimWindow3D
	default:
		return 0, errors.New("metrics: SSIM supports 1-3 dimensions")
	}

	var total float64
	var count int
	grid.EachTile(dims, edge, func(origin, size []int) {
		if m := windowSSIM(orig, recon, dims, origin, size, c1, c2); !math.IsNaN(m) {
			total += m
			count++
		}
	})
	if count == 0 {
		return 0, errors.New("metrics: no SSIM windows")
	}
	return total / float64(count), nil
}

// windowSSIM computes the SSIM index for the window of the given (clipped)
// size at origin, summing its points in row-major order.
func windowSSIM(a, b []float32, dims, origin, size []int, c1, c2 float64) float64 {
	cnt := 1
	for _, s := range size {
		cnt *= s
	}
	if cnt < 4 {
		return math.NaN() // too small to carry structure
	}
	var sa, sb, saa, sbb, sab float64
	var zero grid.Coord
	w := grid.Walk(size, dims, origin, 1, size, zero[:len(size)])
	for w.Next() {
		for off := w.A; off < w.A+w.Run; off++ {
			x, y := float64(a[off]), float64(b[off])
			sa += x
			sb += y
			saa += x * x
			sbb += y * y
			sab += x * y
		}
	}
	fn := float64(cnt)
	muA := sa / fn
	muB := sb / fn
	varA := saa/fn - muA*muA
	varB := sbb/fn - muB*muB
	cov := sab/fn - muA*muB
	if varA < 0 {
		varA = 0
	}
	if varB < 0 {
		varB = 0
	}
	num := (2*muA*muB + c1) * (2*cov + c2)
	den := (muA*muA + muB*muB + c1) * (varA + varB + c2)
	if den == 0 {
		return 1
	}
	return num / den
}
