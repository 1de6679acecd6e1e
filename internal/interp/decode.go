package interp

// This file holds the decode kernel of the sweep walker (sweep.go). During
// decompression LevelPass's commit closure is always "dequantize the next
// symbol", so the kernel fuses that into one loop per stencil form: a run
// is predicted and reconstructed point by point with no call in between.
// (Predicting a run into a buffer first, the encode kernel's shape, was
// measured 15–60 % slower here: decode has no quantizer loop to feed.)
// LevelPass remains the reference path; the differential tests and
// FuzzSweepVsLevelPass pin LevelPassDecode bit-identical to it.

import (
	"qoz/internal/quant"
)

// LevelPassDecode runs the prediction sweep for one level, reconstructing
// every predicted point by dequantizing the next symbol of deq. It visits
// points in exactly LevelPass's order and produces bit-identical output to
//
//	LevelPass(buf, dims, level, m, func(idx int, pred float64) float32 {
//	        return deq.Next(pred)
//	})
//
// while consuming the same number of bin symbols and literals.
func LevelPassDecode(buf []float32, dims []int, level int, m Method, deq *quant.Dequantizer) {
	LevelPassDecodeClip(buf, dims, level, m, nil, deq)
}

// LevelPassDecodeClip is LevelPassDecode limited to clip (sweep's
// per-sub-pass ranges; nil is the whole level), the DecodeSweep production
// decodes run: it reconstructs the points inside clip bit-identically to
// the full sweep and steps over the symbols of the others, counting their
// escapes against the literal stream, so deq ends where the full sweep
// leaves it.
func LevelPassDecodeClip(buf []float32, dims []int, level int, m Method, clip []Range, deq *quant.Dequantizer) {
	bins, lits, radius, twoEB := deq.DecodeState()
	st := dqState{bins: bins, lits: lits, radius: radius, twoEB: twoEB}
	if clip == nil {
		var all [maxFlatDims * maxFlatDims]Range
		clip = whole(dims, all[:])
	}
	sweep(dims, level, m, clip, func(skip, lo, hi, step, off1, form int) {
		if skip > 0 {
			st.skip(skip)
		}
		st.lineAcross(buf, lo, hi, step, off1, form)
	})
	deq.Advance(st.bp, st.lp)
}

// dqState is the fused dequantizer cursor threaded through the kernel's
// loops: the remaining bin/literal streams plus the constants of
// quant.Dequantizer.Next, with positions tracked locally so the inner
// loops touch no heap state.
type dqState struct {
	bins   []uint32
	lits   []float32
	bp, lp int
	radius int32
	twoEB  float64
}

// next mirrors quant.Dequantizer.Next exactly, including the counted zero
// of an escape symbol with no literal left and the arithmetic
// pred + (2*eb)*bin.
func (st *dqState) next(pred float64) float32 {
	sym := st.bins[st.bp]
	st.bp++
	if sym == quant.LiteralSymbol {
		st.lp++
		if st.lp > len(st.lits) {
			return 0
		}
		return st.lits[st.lp-1]
	}
	return float32(pred + st.twoEB*float64(int32(sym)-st.radius))
}

// skip steps over the symbols of n points the sweep does not
// reconstruct, counting their escapes as next would.
func (st *dqState) skip(n int) {
	lp := st.lp
	for _, sym := range st.bins[st.bp : st.bp+n] {
		if sym == quant.LiteralSymbol {
			lp++
		}
	}
	st.bp += n
	st.lp = lp
}

// lineAcross reconstructs one run: the points lo, lo+step, … < hi, each
// predicted with the stencil form from its neighbours at flat offsets
// ±off1/±3·off1 and dequantized in the same loop.
func (st *dqState) lineAcross(buf []float32, lo, hi, step, off1 int, form int) {
	switch form {
	case formCopy:
		for i := lo; i < hi; i += step {
			buf[i] = st.next(float64(buf[i-off1]))
		}
	case formExtrap:
		off3 := 3 * off1
		for i := lo; i < hi; i += step {
			buf[i] = st.next(1.5*float64(buf[i-off1]) - 0.5*float64(buf[i-off3]))
		}
	case formAvg:
		for i := lo; i < hi; i += step {
			buf[i] = st.next(0.5 * (float64(buf[i-off1]) + float64(buf[i+off1])))
		}
	case formQM3:
		off3 := 3 * off1
		for i := lo; i < hi; i += step {
			fm3 := float64(buf[i-off3])
			fm1 := float64(buf[i-off1])
			fp1 := float64(buf[i+off1])
			buf[i] = st.next((-fm3 + 6*fm1 + 3*fp1) / 8)
		}
	case formQP3:
		off3 := 3 * off1
		for i := lo; i < hi; i += step {
			fm1 := float64(buf[i-off1])
			fp1 := float64(buf[i+off1])
			fp3 := float64(buf[i+off3])
			buf[i] = st.next((3*fm1 + 6*fp1 - fp3) / 8)
		}
	default: // formFull
		off3 := 3 * off1
		for i := lo; i < hi; i += step {
			fm3 := float64(buf[i-off3])
			fm1 := float64(buf[i-off1])
			fp1 := float64(buf[i+off1])
			fp3 := float64(buf[i+off3])
			buf[i] = st.next((-fm3 + 9*fm1 + 9*fp1 - fp3) / 16)
		}
	}
}
