// Package sz3 implements the SZ3 baseline: error-bounded lossy compression
// with a global multi-level spline-interpolation predictor (Zhao et al.,
// ICDE'21), as used for comparison throughout the QoZ paper.
//
// Differences from QoZ (internal/core), mirroring the paper's Fig. 5:
//   - no anchor points: the top interpolation level spans the whole array,
//     so long-range interpolation occurs on large inputs;
//   - one interpolation method for all levels, chosen once per dataset by
//     trial compression on a centered sample block;
//   - a single error bound for every level (no α/β tuning).
package sz3

import (
	"errors"
	"fmt"
	"math"

	"qoz/internal/interp"
	"qoz/internal/quant"
	"qoz/internal/szstream"
)

// sampleEdge bounds the centered trial block used for the global
// interpolator selection.
const sampleEdge = 32

// Compress compresses data (row-major, shape dims) under the absolute
// error bound eb.
func Compress(data []float32, dims []int, eb float64) ([]byte, error) {
	if err := validate(data, dims, eb); err != nil {
		return nil, err
	}
	method := selectMethod(data, dims, eb)
	q := quant.New(eb, 0)
	q.Bins = make([]uint32, 0, len(data))
	recon := make([]float32, len(data))
	recon[0] = q.Quantize(data[0], 0)
	for level := interp.MaxLevelGlobal(dims); level >= 1; level-- {
		interp.LevelPassEncode(recon, data, dims, level, method, q)
	}
	payload := &szstream.Payload{
		Bins:     q.Bins,
		Literals: q.Literals,
		Config:   []byte{byte(method.Kind), byte(method.Order)},
	}
	return szstream.Encode(codecID, dims, eb, payload)
}

// Decompress reverses Compress, returning the reconstructed field and its
// dimensions.
func Decompress(buf []byte) ([]float32, []int, error) {
	stream, payload, err := szstream.Decode(buf, codecID)
	if err != nil {
		return nil, nil, err
	}
	if len(payload.Config) != 2 {
		return nil, nil, errors.New("sz3: malformed config section")
	}
	method := interp.Method{
		Kind:  interp.Kind(payload.Config[0]),
		Order: interp.Order(payload.Config[1]),
	}
	n := 1
	for _, d := range stream.Dims {
		n *= d
	}
	if len(payload.Bins) != n {
		return nil, nil, errors.New("sz3: bin count does not match dims")
	}
	deq := quant.NewDequantizer(stream.ErrorBound, 0, payload.Bins, payload.Literals)
	recon := make([]float32, n)
	recon[0] = deq.Next(0)
	for level := interp.MaxLevelGlobal(stream.Dims); level >= 1; level-- {
		interp.LevelPassDecode(recon, stream.Dims, level, method, deq)
	}
	if deq.Remaining() != 0 {
		return nil, nil, errors.New("sz3: trailing quantization symbols")
	}
	if err := deq.CheckLiterals(); err != nil {
		return nil, nil, fmt.Errorf("sz3: %w", err)
	}
	return recon, stream.Dims, nil
}

const codecID = 2 // container.CodecSZ3

func validate(data []float32, dims []int, eb float64) error {
	if eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return errors.New("sz3: error bound must be positive and finite")
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return errors.New("sz3: non-positive dimension")
		}
		n *= d
	}
	if n != len(data) {
		return errors.New("sz3: dims do not match data length")
	}
	return nil
}

// selectMethod chooses the global interpolation method by trial-compressing
// a centered block with every candidate and keeping the lowest mean
// absolute prediction error (SZ3's dataset-level "dynamic" selection).
func selectMethod(data []float32, dims []int, eb float64) interp.Method {
	block, bdims := centerBlock(data, dims)
	best := interp.Method{Kind: interp.Cubic, Order: interp.Increasing}
	bestErr := math.Inf(1)
	for _, m := range interp.PaperCandidates(len(dims)) {
		if e := TrialError(block, bdims, eb, m); e < bestErr {
			bestErr = e
			best = m
		}
	}
	return best
}

// TrialError runs an in-memory trial compression of a (small) field with a
// single method across all levels and returns the mean absolute prediction
// error. Exported for reuse by the ablation harness.
func TrialError(data []float32, dims []int, eb float64, m interp.Method) float64 {
	recon := make([]float32, len(data))
	q := quant.New(eb, 0)
	q.Bins = make([]uint32, 0, len(data))
	recon[0] = q.Quantize(data[0], 0)
	var sum float64
	for level := interp.MaxLevelGlobal(dims); level >= 1; level-- {
		sum = interp.LevelPassEncodeL1(recon, data, dims, level, m, q, sum)
	}
	count := len(q.Bins) - 1 // the origin is seeded, not predicted
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// centerBlock extracts a sampleEdge^nd block from the middle of the field.
func centerBlock(data []float32, dims []int) ([]float32, []int) {
	nd := len(dims)
	origin := make([]int, nd)
	size := make([]int, nd)
	n := 1
	for d := 0; d < nd; d++ {
		size[d] = dims[d]
		if size[d] > sampleEdge {
			size[d] = sampleEdge
		}
		origin[d] = (dims[d] - size[d]) / 2
		n *= size[d]
	}
	strides := make([]int, nd)
	s := 1
	for i := nd - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	out := make([]float32, n)
	coord := make([]int, nd)
	for i := 0; i < n; i++ {
		off := 0
		for d := 0; d < nd; d++ {
			off += (origin[d] + coord[d]) * strides[d]
		}
		out[i] = data[off]
		d := nd - 1
		for d >= 0 {
			coord[d]++
			if coord[d] < size[d] {
				break
			}
			coord[d] = 0
			d--
		}
	}
	return out, size
}
