// Package mgard implements an MGARD+-like baseline (Liang et al., IEEE TC
// 2021): error-bounded compression by multilevel hierarchical decomposition.
//
// MGARD represents the field in a hierarchy of nested uniform grids and
// quantizes the multilevel (detail) coefficients level by level. We realize
// the same structure with the shared multi-level traversal engine using
// piecewise-linear basis functions (MGARD's L∞-mode multilinear hats),
// anchored on a coarse grid, with a per-level bound budget that tightens on
// coarse levels the way MGARD's theory weights coarse coefficients. This is
// a structural reimplementation, not a port: absolute ratios differ from
// the C++ MGARD+, but its standing relative to SZ2/SZ3/ZFP (between SZ2 and
// SZ3 on most data, per the paper's tables) is preserved.
package mgard

import (
	"errors"
	"fmt"
	"math"

	"qoz/internal/interp"
	"qoz/internal/quant"
	"qoz/internal/szstream"
)

const codecID = 5 // container.CodecMGARD

// anchorStride fixes the coarsest grid of the hierarchy.
const anchorStride = 64

// levelTighten is the per-level bound divisor growth: level l uses
// e / min(levelTighten^(l-1), levelCap), echoing MGARD's level weights.
const (
	levelTighten = 1.15
	levelCap     = 2.0
)

// Compress compresses data under absolute error bound eb.
func Compress(data []float32, dims []int, eb float64) ([]byte, error) {
	if err := validate(data, dims, eb); err != nil {
		return nil, err
	}
	maxLevel := interp.MaxLevelAnchored(anchorStride)
	idxs := interp.AnchorIndices(dims, anchorStride)
	anchors := make([]float32, len(idxs))
	recon := make([]float32, len(data))
	for i, idx := range idxs {
		anchors[i] = data[idx]
		recon[idx] = data[idx]
	}
	q := quant.New(eb, 0)
	q.Bins = make([]uint32, 0, len(data)-len(idxs))
	m := interp.Method{Kind: interp.Linear, Order: interp.Increasing}
	for level := maxLevel; level >= 1; level-- {
		q.SetBound(levelBound(eb, level))
		interp.LevelPassEncode(recon, data, dims, level, m, q)
	}
	payload := &szstream.Payload{
		Bins:     q.Bins,
		Literals: q.Literals,
		Anchors:  anchors,
	}
	return szstream.Encode(codecID, dims, eb, payload)
}

// Decompress reverses Compress.
func Decompress(buf []byte) ([]float32, []int, error) {
	stream, payload, err := szstream.Decode(buf, codecID)
	if err != nil {
		return nil, nil, err
	}
	dims := stream.Dims
	n := 1
	for _, d := range dims {
		n *= d
	}
	idxs := interp.AnchorIndices(dims, anchorStride)
	if len(payload.Anchors) != len(idxs) {
		return nil, nil, errors.New("mgard: anchor count mismatch")
	}
	if len(payload.Bins) != n-len(idxs) {
		return nil, nil, errors.New("mgard: bin count does not match dims")
	}
	recon := make([]float32, n)
	for i, idx := range idxs {
		recon[idx] = payload.Anchors[i]
	}
	deq := quant.NewDequantizer(stream.ErrorBound, 0, payload.Bins, payload.Literals)
	m := interp.Method{Kind: interp.Linear, Order: interp.Increasing}
	for level := interp.MaxLevelAnchored(anchorStride); level >= 1; level-- {
		deq.SetBound(levelBound(stream.ErrorBound, level))
		interp.LevelPassDecode(recon, dims, level, m, deq)
	}
	if deq.Remaining() != 0 {
		return nil, nil, errors.New("mgard: trailing quantization symbols")
	}
	if err := deq.CheckLiterals(); err != nil {
		return nil, nil, fmt.Errorf("mgard: %w", err)
	}
	return recon, dims, nil
}

func levelBound(eb float64, level int) float64 {
	div := math.Pow(levelTighten, float64(level-1))
	if div > levelCap {
		div = levelCap
	}
	return eb / div
}

func validate(data []float32, dims []int, eb float64) error {
	if eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return errors.New("mgard: error bound must be positive and finite")
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return errors.New("mgard: non-positive dimension")
		}
		n *= d
	}
	if n != len(data) {
		return errors.New("mgard: dims do not match data length")
	}
	return nil
}
