package interp

// This file holds the encode kernels of the sweep walker (sweep.go).
// During compression LevelPass's commit closure is always "quantize the
// original value against the prediction", so the kernel does that a run
// at a time: predict fills a chunk of predictions under the run's stencil
// form, quantRun applies quant.Quantizer.Quantize's arithmetic to the
// chunk and stores its symbols into a pre-sized window of the quantizer's
// own bin stream. The L1 trial is the same kernel with Σ|pred − data|
// accumulated between the two steps. LevelPass + Quantize remains the
// reference path; the differential tests and FuzzSweepVsLevelPass pin the
// kernels bit-identical to it.

import (
	"math"
	"slices"

	"qoz/internal/pool"
	"qoz/internal/quant"
)

// LevelPassEncode runs the prediction sweep for one level, quantizing
// data at every predicted point against its prediction and storing the
// reconstruction in recon. It visits points in exactly LevelPass's order
// and leaves recon, q.Bins and q.Literals bit-identical to
//
//	LevelPass(recon, dims, level, m, func(idx int, pred float64) float32 {
//	        return q.Quantize(data[idx], pred)
//	})
//
// Every point it reads from recon was written by the seed stage or an
// earlier pass, so recon may start out holding garbage elsewhere.
func LevelPassEncode(recon, data []float32, dims []int, level int, m Method, q *quant.Quantizer) {
	levelPassEncode(recon, data, dims, level, m, q, false, 0)
}

// LevelPassEncodeL1 is LevelPassEncode for trials that rank interpolators
// by prediction error: it also returns l1 plus |pred − data| of every
// point of the level, added one by one in sweep order — bit-identical to
// the closure above running l1 += math.Abs(pred - float64(data[idx]))
// before it quantizes. Passing each level's result into the next keeps a
// multi-level sum a single left-to-right chain of additions.
func LevelPassEncodeL1(recon, data []float32, dims []int, level int, m Method, q *quant.Quantizer, l1 float64) float64 {
	return levelPassEncode(recon, data, dims, level, m, q, true, l1)
}

func levelPassEncode(recon, data []float32, dims []int, level int, m Method, q *quant.Quantizer, sumL1 bool, l1 float64) float64 {
	// The level's symbol count is known up front, so the bin stream grows
	// once and the loops store by index instead of appending.
	count := CountLevelPoints(dims, level)
	st := newEQState(q, data, count)
	st.sumL1, st.l1 = sumL1, l1
	sweep(dims, level, m, whole(dims), st.kernel(recon))
	if st.bp != count {
		panic("interp: sweep visited a different number of points than CountLevelPoints")
	}
	q.Literals = st.lits
	return st.l1
}

// minChunkedPass is the fewest points a sub-pass must hold before
// Pyramid.Encode splits it over workers. On 128³ fields at two workers
// 2^12 and 2^15 sweep in the same time, 2^18 is about 7 % slower and
// never splitting 1.5× slower (docs/PERFORMANCE.md, encode path §4).
// Smaller fields and more workers were not measured.
const minChunkedPass = 1 << 15

// levelPassEncodeChunked is LevelPassEncode with every sub-pass of at
// least minPoints points cut into `chunks` ranges of whole dim-0 rows and
// swept on up to `workers` goroutines. Each dim-0 coordinate of a sub-pass
// holds the same number of points (subPass), so a chunk's symbols have a
// known place in the level's window; its literals are appended to q's in
// chunk order once the sub-pass is done. The result is bit-identical to
// LevelPassEncode for any chunks, minPoints and workers.
func levelPassEncodeChunked(recon, data []float32, dims []int, level int, m Method, q *quant.Quantizer, chunks, minPoints, workers int) {
	proto := newEQState(q, data, CountLevelPoints(dims, level))
	bins, at := proto.bins, 0
	s := 1 << (level - 1)
	for p := range dims {
		start, step, perRow := subPass(dims, s, m, p)
		rows := countRange(start, step, dims[0])
		k := 1
		if rows*perRow >= minPoints {
			k = max(1, min(chunks, rows))
		}
		parts := make([]eqState, k)
		pool.Fork(k, workers, func(_, j int) {
			r0, r1 := j*rows/k, (j+1)*rows/k
			st := &parts[j]
			*st = proto
			st.bins, st.lits = bins[at+r0*perRow:at+r1*perRow], nil
			if j == 0 {
				st.lits = q.Literals
			}
			sweep(dims, level, m, span{p, start + r0*step, start + r1*step}, st.kernel(recon))
			if st.bp != len(st.bins) {
				panic("interp: sweep visited a different number of points than subPass")
			}
		})
		q.Literals = parts[0].lits
		for _, part := range parts[1:] {
			q.Literals = append(q.Literals, part.lits...)
		}
		at += rows * perRow
	}
	if at != len(bins) {
		panic("interp: sub-passes hold a different number of points than CountLevelPoints")
	}
}

// predChunk is how many predictions the kernel computes before handing
// them to the quantizer. No prediction of a run depends on a point
// committed in the same pass (see sweep), so predicting a chunk and then
// quantizing it visits the same values in the same order as interleaving
// the two, and keeps the quantizer a single loop with no call per point.
const predChunk = 256

// eqState is the fused quantizer threaded through the kernel: the original
// values, a window of the bin stream with its write cursor, the literal
// stream, the constants of quant.Quantizer.Quantize, the L1 sum of a
// trial, and the prediction scratch.
type eqState struct {
	data   []float32
	bins   []uint32
	bp     int
	lits   []float32
	radius int32
	limit  float64 // float64(radius-1): |scaled| beyond it escapes
	eb     float64
	twoEB  float64 // 2*eb exactly as Quantize computes it
	sumL1  bool
	l1     float64
	preds  [predChunk]float64
}

// newEQState grows q's bin stream by a level of count symbols and returns
// the kernel state writing that window.
func newEQState(q *quant.Quantizer, data []float32, count int) eqState {
	head := len(q.Bins)
	q.Bins = slices.Grow(q.Bins, count)[:head+count]
	radius, eb := q.EncodeState()
	return eqState{
		data:   data,
		bins:   q.Bins[head:],
		lits:   q.Literals,
		radius: radius,
		limit:  float64(radius - 1),
		eb:     eb,
		twoEB:  2 * eb,
	}
}

// kernel returns the sweep callback that predicts and quantizes each run
// of recon into st.
func (st *eqState) kernel(recon []float32) func(lo, hi, step, off1, form int) {
	return func(lo, hi, step, off1, form int) {
		for lo < hi {
			n := 1 // a line's head and tail points are runs of one: no divide
			if hi-lo > step {
				n = min((hi-lo+step-1)/step, predChunk)
			}
			preds := st.preds[:n]
			predict(recon, lo, step, off1, form, preds)
			if st.sumL1 {
				for k, pred := range preds {
					st.l1 += math.Abs(pred - float64(st.data[lo+k*step]))
				}
			}
			st.quantRun(recon, lo, step, preds)
			lo += n * step
		}
	}
}

// roundHalfAway returns math.Round(x) as an integer for |x| < 2^31: the
// truncation t is exact, so is the fraction x−t (it has no more
// significant bits than x), so is doubling it, and truncating 2·(x−t)
// yields ±1 exactly when |x−t| >= 0.5 — round half away from zero,
// without math.Round's data-dependent branches.
func roundHalfAway(x float64) int32 {
	t := int32(x)
	return t + int32(2*(x-float64(t)))
}

// quantRun quantizes the points buf[lo], buf[lo+step], ... against preds,
// one per prediction. It mirrors quant.Quantizer.Quantize exactly —
// (v−p)/(2·eb), the NaN/out-of-radius escape (a NaN fails both range
// comparisons), rounding to the nearest bin, float32(p + 2·eb·bin), the
// float32-rounding escape — storing symbols by index into the level's
// pre-sized window.
func (st *eqState) quantRun(buf []float32, lo, step int, preds []float64) {
	data, bins, bp := st.data, st.bins, st.bp
	limit, eb, twoEB, radius := st.limit, st.eb, st.twoEB, st.radius
	for k, pred := range preds {
		i := lo + k*step
		v := float64(data[i])
		scaled := (v - pred) / twoEB
		if scaled <= limit && scaled >= -limit {
			bin := roundHalfAway(scaled)
			recon := float32(pred + twoEB*float64(bin))
			if d := float64(recon) - v; d <= eb && d >= -eb {
				bins[bp] = uint32(bin + radius)
				bp++
				buf[i] = recon
				continue
			}
			// float32 rounding pushed the reconstruction out of bound.
		}
		bins[bp] = quant.LiteralSymbol
		bp++
		st.lits = append(st.lits, data[i])
		buf[i] = data[i]
	}
	st.bp = bp
}

// predict fills preds with the predictions of the points buf[lo],
// buf[lo+step], ... under one stencil form whose neighbours sit at flat
// offsets ±off1/±3·off1.
func predict(buf []float32, lo, step, off1, form int, preds []float64) {
	off3 := 3 * off1
	switch form {
	case formCopy:
		for k := range preds {
			preds[k] = float64(buf[lo+k*step-off1])
		}
	case formExtrap:
		for k := range preds {
			i := lo + k*step
			preds[k] = 1.5*float64(buf[i-off1]) - 0.5*float64(buf[i-off3])
		}
	case formAvg:
		for k := range preds {
			i := lo + k*step
			preds[k] = 0.5 * (float64(buf[i-off1]) + float64(buf[i+off1]))
		}
	case formQM3:
		for k := range preds {
			i := lo + k*step
			fm3 := float64(buf[i-off3])
			fm1 := float64(buf[i-off1])
			fp1 := float64(buf[i+off1])
			preds[k] = (-fm3 + 6*fm1 + 3*fp1) / 8
		}
	case formQP3:
		for k := range preds {
			i := lo + k*step
			fm1 := float64(buf[i-off1])
			fp1 := float64(buf[i+off1])
			fp3 := float64(buf[i+off3])
			preds[k] = (3*fm1 + 6*fp1 - fp3) / 8
		}
	default: // formFull
		for k := range preds {
			i := lo + k*step
			fm3 := float64(buf[i-off3])
			fm1 := float64(buf[i-off1])
			fp1 := float64(buf[i+off1])
			fp3 := float64(buf[i+off3])
			preds[k] = (-fm3 + 9*fm1 + 9*fp1 - fp3) / 16
		}
	}
}
