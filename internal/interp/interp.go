// Package interp implements the multi-level spline-interpolation prediction
// engine shared by the SZ3 baseline and the QoZ compressor (paper §V).
//
// A level l works with stride s = 2^(l-1): points whose coordinates are all
// multiples of 2s are already known, and one sub-pass per dimension (in the
// level's dimension order) predicts the points whose active coordinate is an
// odd multiple of s. Predictions use linear or cubic spline interpolation
// along the active dimension, always reading previously *reconstructed*
// values so that decompression replays bit-identically.
//
// Two grid modes are supported:
//
//   - anchored (QoZ): points on a coarse grid with stride 2^m are stored
//     losslessly; levels m..1 fill in the rest, so no interpolation ever
//     spans more than the anchor stride (paper §V-B1);
//   - global (SZ3): only the origin is known initially (committed with a
//     zero prediction) and the top level spans the whole array, reproducing
//     SZ3's long-range interpolation behaviour.
//
// The level walk exists twice, once to be right and once to be fast.
// LevelPass is the reference: an odometer that hands every point's
// prediction to a commit closure. sweep (sweep.go) is the production
// walker: the same points in the same order, handed to a kernel as runs
// that share one stencil form, limited per sub-pass to a clip of
// coordinate ranges. Three kernels ride it — LevelPassDecode (decode.go)
// dequantizes a run (LevelPassDecodeClip also steps over the symbols of
// clipped-out points), LevelPassEncode (encode.go) quantizes it,
// LevelPassEncodeL1 also sums the prediction errors that rank
// interpolators — and every codec's compression, decompression and trial
// runs through them. Differential tests and FuzzSweepVsLevelPass
// pin all three bit-identical to LevelPass, which nothing calls but
// they, the reference decoders and the benchmark's layer timings.
//
// The level loop around the kernels is one too: Pyramid (pyramid.go)
// seeds and sweeps every level for QoZ, SZ3 and MGARD alike — whole, or
// through the cone of clips that leaves a requested box exact — and only
// the tuners' trials keep loops of their own.
package interp

import (
	"fmt"

	"qoz/internal/grid"
)

// Kind selects the interpolation basis along a line.
type Kind uint8

const (
	// Linear interpolates with the two stride-s neighbours.
	Linear Kind = iota
	// Cubic interpolates with the four neighbours at ±s and ±3s
	// (SZ3's not-a-knot cubic spline stencil).
	Cubic
	// Quadratic fits a parabola through the three nearest neighbours
	// (−3s, −s, +s). It is an extension beyond the paper's two types
	// (its §VIII future work); the level-wise selector simply gains one
	// more candidate and picks it only where it wins.
	Quadratic
)

func (k Kind) String() string {
	switch k {
	case Linear:
		return "linear"
	case Cubic:
		return "cubic"
	default:
		return "quadratic"
	}
}

// Order selects the dimension sequence of the sub-passes within one level.
// The paper tests the increasing and decreasing permutations only (§VI-B),
// which cover the best choices in almost all cases.
type Order uint8

const (
	// Increasing processes dim 0, then dim 1, ...
	Increasing Order = iota
	// Decreasing processes the last dim first.
	Decreasing
)

func (o Order) String() string {
	if o == Increasing {
		return "inc"
	}
	return "dec"
}

// Method is one interpolator candidate: a basis plus a dimension order.
type Method struct {
	Kind  Kind
	Order Order
}

func (m Method) String() string { return fmt.Sprintf("%s/%s", m.Kind, m.Order) }

// Candidates returns the interpolator candidates evaluated per level.
// For 1D data the dimension order is irrelevant, so only the two bases
// are returned.
func Candidates(ndims int) []Method {
	if ndims <= 1 {
		return []Method{{Linear, Increasing}, {Cubic, Increasing}, {Quadratic, Increasing}}
	}
	// Decreasing orders come first: when a selection ties (common on
	// isotropic data), the earlier candidate wins, and the decreasing
	// layout emits quantization bins in an order the downstream
	// dictionary coder compresses measurably better.
	return []Method{
		{Linear, Decreasing},
		{Linear, Increasing},
		{Cubic, Decreasing},
		{Cubic, Increasing},
		{Quadratic, Decreasing},
		{Quadratic, Increasing},
	}
}

// PaperCandidates returns the candidate set of the original paper (linear
// and cubic only) — used by the SZ3 baseline and by QoZ's sampling-disabled
// ablation so that the Quadratic extension stays an opt-in of the improved
// selector.
func PaperCandidates(ndims int) []Method {
	var out []Method
	for _, m := range Candidates(ndims) {
		if m.Kind != Quadratic {
			out = append(out, m)
		}
	}
	return out
}

// Commit receives a point's flat index and its prediction, and must return
// the reconstructed value to store (compressors quantize here; the
// decompressor dequantizes).
type Commit func(idx int, pred float64) float32

// MaxLevelGlobal returns the top interpolation level for anchor-free (SZ3)
// traversal: the smallest L with 2^L >= max(dims), so that the only
// initially-known point is the origin.
func MaxLevelGlobal(dims []int) int {
	m := 0
	for _, d := range dims {
		if d > m {
			m = d
		}
	}
	l := 0
	for (1 << l) < m {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// MaxLevelAnchored returns the top level when anchors with the given
// power-of-two stride are stored: log2(stride).
func MaxLevelAnchored(anchorStride int) int {
	l := 0
	for (1 << (l + 1)) <= anchorStride {
		l++
	}
	return l
}

// AnchorIndices lists the flat indices of the anchor-grid points (all
// coordinates multiples of stride), in row-major order. The same order is
// used when serializing and restoring anchors.
func AnchorIndices(dims []int, stride int) []int {
	nd := len(dims)
	var zero grid.Coord
	g, _ := grid.LevelOf(zero[:nd], dims, stride)
	out := make([]int, 0, g.N)
	w := grid.Walk(g.Dims[:nd], dims, zero[:nd], stride, g.Dims[:nd], zero[:nd])
	for w.Next() {
		for j := range w.Run {
			out = append(out, w.A+j*stride)
		}
	}
	return out
}

// LevelPass runs the prediction sweep for one level over buf (the
// reconstruction buffer), invoking commit for every predicted point in a
// deterministic order. Points earlier in the level are visible to the
// predictions of later points, exactly as during decompression.
func LevelPass(buf []float32, dims []int, level int, m Method, commit Commit) {
	nd := len(dims)
	strides := grid.StridesOf(dims)
	s := 1 << (level - 1)

	dimSeq := make([]int, nd)
	for i := range dimSeq {
		if m.Order == Increasing {
			dimSeq[i] = i
		} else {
			dimSeq[i] = nd - 1 - i
		}
	}

	starts := make([]int, nd)
	steps := make([]int, nd)
	for p := 0; p < nd; p++ {
		d := dimSeq[p]
		if dims[d] <= s {
			continue // no points to predict along this dimension
		}
		for qi, q := range dimSeq {
			starts[q] = 0
			if qi < p {
				steps[q] = s
			} else {
				steps[q] = 2 * s
			}
		}
		starts[d] = s
		steps[d] = 2 * s
		iteratePass(buf, dims, strides, starts, steps, d, s, m.Kind, commit)
	}
}

// iteratePass walks the odometer defined by starts/steps and predicts each
// visited point along dimension d.
func iteratePass(buf []float32, dims, strides, starts, steps []int, d, s int, kind Kind, commit Commit) {
	nd := len(dims)
	coord := make([]int, nd)
	copy(coord, starts)
	for q := 0; q < nd; q++ {
		if coord[q] >= dims[q] {
			return
		}
	}
	st := strides[d]
	for {
		idx := 0
		for q := 0; q < nd; q++ {
			idx += coord[q] * strides[q]
		}
		pred := predict1D(buf, idx, coord[d], dims[d], st, s, kind)
		buf[idx] = commit(idx, pred)

		q := nd - 1
		for q >= 0 {
			coord[q] += steps[q]
			if coord[q] < dims[q] {
				break
			}
			coord[q] = starts[q]
			q--
		}
		if q < 0 {
			return
		}
	}
}

// predict1D predicts the value at coordinate c (an odd multiple of s) along
// a line with element stride st and extent n, reading reconstructed
// neighbours at c±s and c±3s with boundary fallbacks.
func predict1D(buf []float32, idx, c, n, st, s int, kind Kind) float64 {
	fm1 := float64(buf[idx-s*st]) // c-s always exists (c >= s)
	hasP1 := c+s < n
	hasM3 := c-3*s >= 0
	hasP3 := c+3*s < n

	if !hasP1 {
		// Right neighbour missing: extrapolate from the left.
		if hasM3 {
			fm3 := float64(buf[idx-3*s*st])
			return 1.5*fm1 - 0.5*fm3
		}
		return fm1
	}
	fp1 := float64(buf[idx+s*st])
	if kind == Linear {
		return 0.5 * (fm1 + fp1)
	}
	if kind == Quadratic {
		if hasM3 {
			fm3 := float64(buf[idx-3*s*st])
			return (-fm3 + 6*fm1 + 3*fp1) / 8
		}
		if hasP3 {
			fp3 := float64(buf[idx+3*s*st])
			return (3*fm1 + 6*fp1 - fp3) / 8
		}
		return 0.5 * (fm1 + fp1)
	}
	switch {
	case hasM3 && hasP3:
		fm3 := float64(buf[idx-3*s*st])
		fp3 := float64(buf[idx+3*s*st])
		return (-fm3 + 9*fm1 + 9*fp1 - fp3) / 16
	case hasM3:
		fm3 := float64(buf[idx-3*s*st])
		return (-fm3 + 6*fm1 + 3*fp1) / 8
	case hasP3:
		fp3 := float64(buf[idx+3*s*st])
		return (3*fm1 + 6*fp1 - fp3) / 8
	default:
		return 0.5 * (fm1 + fp1)
	}
}

// CountLevelPoints returns how many points LevelPass would commit for the
// given level, without touching any data. Used for stream accounting and
// by the tuner's bit-rate estimates.
func CountLevelPoints(dims []int, level int) int {
	nd := len(dims)
	s := 1 << (level - 1)
	total := 0
	for p := 0; p < nd; p++ {
		cnt := 1
		for q := 0; q < nd; q++ {
			var m int
			switch {
			case q == p:
				m = countRange(s, 2*s, dims[q])
			case q < p:
				m = countRange(0, s, dims[q])
			default:
				m = countRange(0, 2*s, dims[q])
			}
			cnt *= m
		}
		total += cnt
	}
	return total
}

// countRange counts values start, start+step, ... < n.
func countRange(start, step, n int) int {
	if start >= n {
		return 0
	}
	return (n-start-1)/step + 1
}

// CoarseDims returns the per-dimension point counts of the stride-aligned
// subgrid of dims: the points whose coordinates are all multiples of
// stride. This is the shape a progressive decode materializes after
// stopping at the level whose stride this is.
func CoarseDims(dims []int, stride int) []int {
	out := make([]int, len(dims))
	for i, d := range dims {
		out[i] = (d-1)/stride + 1
	}
	return out
}
