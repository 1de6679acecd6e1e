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

	"qoz/internal/container"
	"qoz/internal/interp"
	"qoz/internal/quant"
	"qoz/internal/sampling"
	"qoz/internal/szstream"
)

// sampleEdge bounds the centered trial block used for the global
// interpolator selection.
const sampleEdge = 32

// pyramid is SZ3's predictor: the origin as seed, one interpolator, one
// bound for every level.
func pyramid(dims []int, eb float64, m interp.Method) *interp.Pyramid {
	return &interp.Pyramid{Dims: dims, Methods: []interp.Method{m}, EB: eb, Alpha: 1, Beta: 1}
}

// Compress compresses data (row-major, shape dims) under the absolute
// error bound eb.
func Compress(data []float32, dims []int, eb float64) ([]byte, error) {
	if err := container.CheckField(dims, len(data), eb); err != nil {
		return nil, fmt.Errorf("sz3: %w", err)
	}
	method := selectMethod(data, dims, eb)
	enc := pyramid(dims, eb, method).Encode(data)
	payload := &szstream.Payload{
		Config:   []byte{byte(method.Kind), byte(method.Order)},
		Segments: []interp.Segment{enc.Run},
	}
	return szstream.Encode(codecID, dims, eb, payload)
}

// Decompress reverses Compress, returning the reconstructed field and its
// dimensions. A non-nil box (one range per dimension) is the only part the
// caller reads: it comes out exact and the rest is left unset
// (interp.Pyramid.Decode).
func Decompress(buf []byte, box ...interp.Range) ([]float32, []int, error) {
	stream, payload, err := szstream.Decode(buf, codecID)
	if err != nil {
		return nil, nil, err
	}
	defer stream.Release() // the payload views the sections until the sweep is done
	if len(payload.Config) != 2 {
		return nil, nil, errors.New("sz3: malformed config section")
	}
	method := interp.Method{
		Kind:  interp.Kind(payload.Config[0]),
		Order: interp.Order(payload.Config[1]),
	}
	recon, err := pyramid(stream.Dims, stream.ErrorBound, method).Decode(nil, payload.Segments, 1, box, interp.LevelPassDecodeClip)
	if err != nil {
		return nil, nil, fmt.Errorf("sz3: %w", err)
	}
	return recon, stream.Dims, nil
}

const codecID = 2 // container.CodecSZ3

// selectMethod chooses the global interpolation method by trial-compressing
// a centered block with every candidate and keeping the lowest mean
// absolute prediction error (SZ3's dataset-level "dynamic" selection).
func selectMethod(data []float32, dims []int, eb float64) interp.Method {
	block := sampling.CenterBlock(data, dims, sampleEdge)
	best := interp.Method{Kind: interp.Cubic, Order: interp.Increasing}
	bestErr := math.Inf(1)
	for _, m := range interp.PaperCandidates(len(dims)) {
		if e := trialError(block.Data, block.Dims, eb, m); e < bestErr {
			bestErr = e
			best = m
		}
	}
	return best
}

// trialError runs an in-memory trial compression of a (small) field with a
// single method across all levels and returns the mean absolute prediction
// error.
func trialError(data []float32, dims []int, eb float64, m interp.Method) float64 {
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
