// Package sz2 implements the SZ2.1 baseline: block-wise prediction with a
// per-block choice between the Lorenzo predictor and a linear-regression
// hyperplane (Liang et al., IEEE Big Data 2018), followed by linear-scale
// quantization and Huffman + dictionary coding. It is the second
// comparison compressor of the QoZ paper.
package sz2

import (
	"errors"
	"fmt"
	"math"

	"qoz/internal/container"
	"qoz/internal/grid"
	"qoz/internal/huffman"
	"qoz/internal/quant"
)

// Block edges follow SZ2's defaults: 6^3 in 3D, 12^2 in 2D, 128 in 1D.
func blockEdge(nd int) int {
	switch nd {
	case 1:
		return 128
	case 2:
		return 12
	default:
		return 6
	}
}

// Per-block predictor selection codes.
const (
	selLorenzo    = 0
	selRegression = 1
)

const codecID = container.CodecSZ2

// Section ids beyond the common ones.
const (
	secBins      = 1
	secLiterals  = 2
	secSelection = 3
	secCoeffs    = 4
)

// Compress compresses data under absolute error bound eb.
func Compress(data []float32, dims []int, eb float64) ([]byte, error) {
	if err := container.CheckField(dims, len(data), eb); err != nil {
		return nil, fmt.Errorf("sz2: %w", err)
	}
	nd := len(dims)
	be := blockEdge(nd)
	strides := grid.StridesOf(dims)
	q := quant.New(eb, 0)
	recon := make([]float32, len(data))
	var selection []byte
	var coeffs []float32

	grid.EachTile(dims, be, func(origin, size []int) {
		sel, cf := chooseBlockPredictor(data, dims, strides, origin, size)
		selection = append(selection, byte(sel))
		if sel == selRegression {
			coeffs = append(coeffs, cf...)
		}
		forEachPoint(origin, size, func(coord []int) {
			idx := grid.Dot(coord, strides)
			var pred float64
			if sel == selRegression {
				pred = planeAt(cf, coord, origin)
			} else {
				pred = lorenzo(recon, dims, strides, coord)
			}
			recon[idx] = q.Quantize(data[idx], pred)
		})
	})

	s := &container.Stream{
		Codec:      codecID,
		Dims:       dims,
		ErrorBound: eb,
		Sections: []container.Section{
			{ID: secBins, Data: huffman.Encode(q.Bins)},
			{ID: secLiterals, Data: container.Float32sToBytes(q.Literals)},
			{ID: secSelection, Data: selection},
			{ID: secCoeffs, Data: container.Float32sToBytes(coeffs)},
		},
	}
	return container.Encode(s)
}

// Decompress reverses Compress.
func Decompress(buf []byte) ([]float32, []int, error) {
	s, err := container.Decode(buf)
	if err != nil {
		return nil, nil, err
	}
	defer s.Release() // everything returned is copied out of the sections
	if s.Codec != codecID {
		return nil, nil, container.ErrCodecMismatch
	}
	dims := s.Dims
	nd := len(dims)
	n := 1
	for _, d := range dims {
		n *= d
	}
	bins, err := huffman.Decode(s.Section(secBins))
	if err != nil {
		return nil, nil, err
	}
	if len(bins) != n {
		return nil, nil, errors.New("sz2: bin count does not match dims")
	}
	lits, err := container.BytesToFloat32s(s.Section(secLiterals))
	if err != nil {
		return nil, nil, err
	}
	coeffs, err := container.BytesToFloat32s(s.Section(secCoeffs))
	if err != nil {
		return nil, nil, err
	}
	selection := s.Section(secSelection)

	deq := quant.NewDequantizer(s.ErrorBound, 0, bins, lits)
	recon := make([]float32, n)
	strides := grid.StridesOf(dims)
	be := blockEdge(nd)
	blockNo := 0
	coefPos := 0
	var decodeErr error
	grid.EachTile(dims, be, func(origin, size []int) {
		if decodeErr != nil {
			return
		}
		if blockNo >= len(selection) {
			decodeErr = errors.New("sz2: selection stream too short")
			return
		}
		sel := int(selection[blockNo])
		blockNo++
		var cf []float32
		if sel == selRegression {
			if coefPos+nd+1 > len(coeffs) {
				decodeErr = errors.New("sz2: coefficient stream too short")
				return
			}
			cf = coeffs[coefPos : coefPos+nd+1]
			coefPos += nd + 1
		}
		forEachPoint(origin, size, func(coord []int) {
			idx := grid.Dot(coord, strides)
			var pred float64
			if sel == selRegression {
				pred = planeAt(cf, coord, origin)
			} else {
				pred = lorenzo(recon, dims, strides, coord)
			}
			recon[idx] = deq.Next(pred)
		})
	})
	if decodeErr != nil {
		return nil, nil, decodeErr
	}
	if deq.Remaining() != 0 {
		return nil, nil, errors.New("sz2: trailing quantization symbols")
	}
	if err := deq.CheckLiterals(); err != nil {
		return nil, nil, fmt.Errorf("sz2: %w", err)
	}
	return recon, dims, nil
}

// chooseBlockPredictor estimates the absolute prediction error of the
// Lorenzo predictor vs a fitted hyperplane on the block's original values
// and returns the winner (SZ2's sampled selection, here over all points of
// the small block).
func chooseBlockPredictor(data []float32, dims, strides []int, origin, size []int) (int, []float32) {
	nd := len(dims)
	npts := 1
	for _, s := range size {
		npts *= s
	}
	if npts < nd+2 {
		return selLorenzo, nil
	}
	cf := fitPlane(data, strides, origin, size)
	var errReg, errLor float64
	forEachPoint(origin, size, func(coord []int) {
		idx := grid.Dot(coord, strides)
		v := float64(data[idx])
		errReg += math.Abs(v - planeAt(cf, coord, origin))
		errLor += math.Abs(v - lorenzoOriginal(data, dims, strides, coord))
	})
	if errReg < errLor {
		return selRegression, cf
	}
	return selLorenzo, nil
}

// fitPlane least-squares fits v ≈ c0 + Σ c_d (coord_d - origin_d) over the
// block. Local coordinates are decorrelated enough for a plain normal-
// equations solve (nd+1 ≤ 5 unknowns).
func fitPlane(data []float32, strides []int, origin, size []int) []float32 {
	nd := len(size)
	k := nd + 1
	ata := make([]float64, k*k)
	atb := make([]float64, k)
	x := make([]float64, k)
	forEachPoint(origin, size, func(coord []int) {
		idx := grid.Dot(coord, strides)
		x[0] = 1
		for d := 0; d < nd; d++ {
			x[d+1] = float64(coord[d] - origin[d])
		}
		v := float64(data[idx])
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				ata[i*k+j] += x[i] * x[j]
			}
			atb[i] += x[i] * v
		}
	})
	sol := solve(ata, atb, k)
	cf := make([]float32, k)
	for i := range sol {
		cf[i] = float32(sol[i])
	}
	return cf
}

// solve performs Gaussian elimination with partial pivoting on a k×k system.
func solve(a []float64, b []float64, k int) []float64 {
	// Work on copies to keep the caller's buffers intact.
	m := append([]float64(nil), a...)
	v := append([]float64(nil), b...)
	for col := 0; col < k; col++ {
		piv := col
		for r := col + 1; r < k; r++ {
			if math.Abs(m[r*k+col]) > math.Abs(m[piv*k+col]) {
				piv = r
			}
		}
		if math.Abs(m[piv*k+col]) < 1e-12 {
			continue // singular direction; leave coefficient at 0
		}
		if piv != col {
			for c := 0; c < k; c++ {
				m[col*k+c], m[piv*k+c] = m[piv*k+c], m[col*k+c]
			}
			v[col], v[piv] = v[piv], v[col]
		}
		inv := 1 / m[col*k+col]
		for r := col + 1; r < k; r++ {
			f := m[r*k+col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < k; c++ {
				m[r*k+c] -= f * m[col*k+c]
			}
			v[r] -= f * v[col]
		}
	}
	out := make([]float64, k)
	for r := k - 1; r >= 0; r-- {
		if math.Abs(m[r*k+r]) < 1e-12 {
			out[r] = 0
			continue
		}
		s := v[r]
		for c := r + 1; c < k; c++ {
			s -= m[r*k+c] * out[c]
		}
		out[r] = s / m[r*k+r]
	}
	return out
}

// planeAt evaluates the regression plane at a point (block-local coords).
func planeAt(cf []float32, coord, origin []int) float64 {
	p := float64(cf[0])
	for d := 0; d < len(origin); d++ {
		p += float64(cf[d+1]) * float64(coord[d]-origin[d])
	}
	return p
}

// lorenzo computes the N-dimensional Lorenzo prediction from reconstructed
// neighbours (zero outside the array), by inclusion–exclusion over the
// nonempty subsets of dimensions.
func lorenzo(recon []float32, dims, strides, coord []int) float64 {
	return lorenzoFrom(recon, dims, strides, coord)
}

// lorenzoOriginal is the same stencil over original values, used only for
// the compressor's cheap predictor-selection estimate.
func lorenzoOriginal(data []float32, dims, strides, coord []int) float64 {
	return lorenzoFrom(data, dims, strides, coord)
}

func lorenzoFrom(buf []float32, dims, strides, coord []int) float64 {
	nd := len(dims)
	var pred float64
	for mask := 1; mask < 1<<nd; mask++ {
		off := 0
		ok := true
		for d := 0; d < nd; d++ {
			if mask&(1<<d) != 0 {
				if coord[d] == 0 {
					ok = false
					break
				}
				off -= strides[d]
			}
		}
		if !ok {
			continue
		}
		sign := 1.0
		if popcount(mask)%2 == 0 {
			sign = -1
		}
		pred += sign * float64(buf[grid.Dot(coord, strides)+off])
	}
	return pred
}

func popcount(v int) int {
	c := 0
	for v != 0 {
		c += v & 1
		v >>= 1
	}
	return c
}

// forEachPoint iterates the points of a block in row-major order.
func forEachPoint(origin, size []int, fn func(coord []int)) {
	nd := len(origin)
	coord := make([]int, nd)
	copy(coord, origin)
	for {
		fn(coord)
		d := nd - 1
		for d >= 0 {
			coord[d]++
			if coord[d] < origin[d]+size[d] {
				break
			}
			coord[d] = origin[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}
