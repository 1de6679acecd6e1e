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
	"fmt"

	"qoz/internal/container"
	"qoz/internal/interp"
	"qoz/internal/szstream"
)

const codecID = 5 // container.CodecMGARD

// anchorStride fixes the coarsest grid of the hierarchy.
const anchorStride = 64

// levelTighten and levelCap shape the per-level bound: level l uses
// e / min(levelTighten^(l-1), levelCap), echoing MGARD's level weights.
const (
	levelTighten = 1.15
	levelCap     = 2.0
)

// pyramid is the MGARD-style predictor: an anchor grid, linear hats, and
// bounds that tighten on coarse levels.
func pyramid(dims []int, eb float64) *interp.Pyramid {
	return &interp.Pyramid{
		Dims:    dims,
		Anchor:  anchorStride,
		Methods: []interp.Method{{Kind: interp.Linear, Order: interp.Increasing}},
		EB:      eb,
		Alpha:   levelTighten,
		Beta:    levelCap,
	}
}

// Compress compresses data under absolute error bound eb.
func Compress(data []float32, dims []int, eb float64) ([]byte, error) {
	if err := container.CheckField(dims, len(data), eb); err != nil {
		return nil, fmt.Errorf("mgard: %w", err)
	}
	enc := pyramid(dims, eb).Encode(data)
	payload := &szstream.Payload{Anchors: enc.Anchors, Segments: []interp.Segment{enc.Run}}
	return szstream.Encode(codecID, dims, eb, payload)
}

// Decompress reverses Compress. A non-nil box (one range per dimension) is
// the only part the caller reads: it comes out exact and the rest is left
// unset (interp.Pyramid.Decode).
func Decompress(buf []byte, box ...interp.Range) ([]float32, []int, error) {
	stream, payload, err := szstream.Decode(buf, codecID)
	if err != nil {
		return nil, nil, err
	}
	defer stream.Release() // the payload views the sections until the sweep is done
	recon, err := pyramid(stream.Dims, stream.ErrorBound).Decode(payload.Anchors, payload.Segments, 1, box, interp.LevelPassDecodeClip)
	if err != nil {
		return nil, nil, fmt.Errorf("mgard: %w", err)
	}
	return recon, stream.Dims, nil
}
