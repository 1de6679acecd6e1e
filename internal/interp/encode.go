package interp

// This file holds the flattened encode sweep, the twin of decode.go's
// LevelPassDecode. During compression LevelPass's commit closure is always
// "quantize the original value against the prediction", so the sweep is
// specialized the same way: the same line walker, the same per-line
// stencil selection, with quant.Quantizer.Quantize's arithmetic fused
// into the inner loops and its symbols stored into a pre-sized window of
// the quantizer's own bin stream. LevelPass + Quantize remains the
// reference path; the differential tests in this package pin
// LevelPassEncode bit-identical to it.

import (
	"slices"

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
	nd := len(dims)
	if nd > maxFlatDims {
		LevelPass(recon, dims, level, m, func(idx int, pred float64) float32 {
			return q.Quantize(data[idx], pred)
		})
		return
	}
	var strides [maxFlatDims]int
	sv := 1
	for i := nd - 1; i >= 0; i-- {
		strides[i] = sv
		sv *= dims[i]
	}
	s := 1 << (level - 1)

	var dimSeq, starts, steps [maxFlatDims]int
	for i := 0; i < nd; i++ {
		if m.Order == Increasing {
			dimSeq[i] = i
		} else {
			dimSeq[i] = nd - 1 - i
		}
	}

	// The level's symbol count is known up front, so the bin stream grows
	// once and the loops store by index instead of appending.
	count := CountLevelPoints(dims, level)
	head := len(q.Bins)
	q.Bins = slices.Grow(q.Bins, count)[:head+count]
	radius, eb := q.EncodeState()
	st := eqState{
		data:   data,
		bins:   q.Bins[head:],
		lits:   q.Literals,
		radius: radius,
		limit:  float64(radius - 1),
		eb:     eb,
		twoEB:  2 * eb,
	}
	for p := 0; p < nd; p++ {
		d := dimSeq[p]
		if dims[d] <= s {
			continue // no points to predict along this dimension
		}
		for qi := 0; qi < nd; qi++ {
			dq := dimSeq[qi]
			starts[dq] = 0
			if qi < p {
				steps[dq] = s
			} else {
				steps[dq] = 2 * s
			}
		}
		starts[d] = s
		steps[d] = 2 * s
		passEncode(recon, dims, strides[:nd], starts[:nd], steps[:nd], d, s, m.Kind, &st)
	}
	if st.bp != count {
		panic("interp: sweep visited a different number of points than CountLevelPoints")
	}
	q.Literals = st.lits
}

// predChunk is how many predictions a line loop computes before handing
// them to the quantizer. Within one pass every stencil reads only points
// whose active-dimension coordinate is an even multiple of the stride,
// and the pass writes only odd multiples, so no prediction depends on a
// point committed in the same pass: predicting a run and then quantizing
// it visits the same values in the same order as interleaving the two.
// Splitting the work this way keeps the quantizer a single loop with no
// call per point.
const predChunk = 256

// eqState is the fused quantizer threaded through the flattened loops:
// the original values, this level's window of the bin stream with its
// write cursor, the literal stream, the constants of
// quant.Quantizer.Quantize, and the prediction scratch.
type eqState struct {
	data   []float32
	bins   []uint32
	bp     int
	lits   []float32
	radius int32
	limit  float64 // float64(radius-1): |scaled| beyond it escapes
	eb     float64
	twoEB  float64 // 2*eb exactly as Quantize computes it
	preds  [predChunk]float64
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

// put quantizes the single point buf[i]; the boundary points of a line
// come through here, its interior through whole runs.
func (st *eqState) put(buf []float32, i int, pred float64) {
	st.preds[0] = pred
	st.quantRun(buf, i, 1, st.preds[:1])
}

// passEncode is passDecode's walker over the same odometer.
func passEncode(buf []float32, dims, strides, starts, steps []int, d, s int, kind Kind, st *eqState) {
	nd := len(dims)
	for q := 0; q < nd; q++ {
		if starts[q] >= dims[q] {
			return
		}
	}
	inner := nd - 1
	var coord [maxFlatDims]int
	base := 0
	for q := 0; q < inner; q++ {
		coord[q] = starts[q]
		base += starts[q] * strides[q]
	}
	for {
		if d == inner {
			n := dims[d]
			switch kind {
			case Linear:
				st.lineLinear(buf, base, n, s)
			case Quadratic:
				st.lineQuadratic(buf, base, n, s)
			default:
				st.lineCubic(buf, base, n, s)
			}
		} else {
			form := stencilForm(coord[d], dims[d], s, kind)
			st.lineAcross(buf, base+starts[inner], base+dims[inner], steps[inner], s*strides[d], form)
		}
		q := inner - 1
		for q >= 0 {
			coord[q] += steps[q]
			base += steps[q] * strides[q]
			if coord[q] < dims[q] {
				break
			}
			base -= (coord[q] - starts[q]) * strides[q]
			coord[q] = starts[q]
			q--
		}
		if q < 0 {
			return
		}
	}
}

// The line loops below apply decode.go's stencils, boundary case for
// boundary case. Lines along the contiguous dimension start at flat
// index b; their head and tail points go through put, the full-stencil
// interior through interior.

// interior predicts the points b+c, b+c+2s, ... while c+reach < n with
// the stencil of form (reach is how far right it reads: s or 3s) and
// quantizes them chunk by chunk, returning the first c left over.
func (st *eqState) interior(buf []float32, b, c, n, s, reach, form int) int {
	for c+reach < n {
		m := min((n-reach-c+2*s-1)/(2*s), predChunk)
		preds := st.preds[:m]
		st.predict(buf, b+c, 2*s, s, form, preds)
		st.quantRun(buf, b+c, 2*s, preds)
		c += m * 2 * s
	}
	return c
}

func (st *eqState) lineLinear(buf []float32, b, n, s int) {
	c := s
	fm1 := float64(buf[b])
	if c+s < n {
		st.put(buf, b+c, 0.5*(fm1+float64(buf[b+c+s])))
	} else {
		st.put(buf, b+c, fm1)
	}
	c = st.interior(buf, b, c+2*s, n, s, s, formAvg)
	if c < n {
		st.put(buf, b+c, 1.5*float64(buf[b+c-s])-0.5*float64(buf[b+c-3*s]))
	}
}

// headLeftless quantizes a line's first point for the bases that reach
// past ±s: it has no −3s neighbour, so the right-biased parabola, the
// average or a plain copy applies.
func (st *eqState) headLeftless(buf []float32, b, n, s int) {
	c := s
	fm1 := float64(buf[b])
	if c+s < n {
		fp1 := float64(buf[b+c+s])
		if c+3*s < n {
			fp3 := float64(buf[b+c+3*s])
			st.put(buf, b+c, (3*fm1+6*fp1-fp3)/8)
		} else {
			st.put(buf, b+c, 0.5*(fm1+fp1))
		}
	} else {
		st.put(buf, b+c, fm1)
	}
}

func (st *eqState) lineQuadratic(buf []float32, b, n, s int) {
	st.headLeftless(buf, b, n, s)
	c := st.interior(buf, b, 3*s, n, s, s, formQM3)
	if c < n {
		st.put(buf, b+c, 1.5*float64(buf[b+c-s])-0.5*float64(buf[b+c-3*s]))
	}
}

func (st *eqState) lineCubic(buf []float32, b, n, s int) {
	st.headLeftless(buf, b, n, s)
	c := st.interior(buf, b, 3*s, n, s, 3*s, formFull)
	if c+s < n {
		fm3 := float64(buf[b+c-3*s])
		fm1 := float64(buf[b+c-s])
		fp1 := float64(buf[b+c+s])
		st.put(buf, b+c, (-fm3+6*fm1+3*fp1)/8)
		c += 2 * s
	}
	if c < n {
		st.put(buf, b+c, 1.5*float64(buf[b+c-s])-0.5*float64(buf[b+c-3*s]))
	}
}

// lineAcross encodes one inner line [lo, hi) stepped by step, with the
// active-dimension neighbours at fixed flat offsets ±off1/±3·off1.
func (st *eqState) lineAcross(buf []float32, lo, hi, step, off1 int, form int) {
	for lo < hi {
		m := min((hi-lo+step-1)/step, predChunk)
		preds := st.preds[:m]
		st.predict(buf, lo, step, off1, form, preds)
		st.quantRun(buf, lo, step, preds)
		lo += m * step
	}
}

// predict fills preds with the predictions of the points buf[lo],
// buf[lo+step], ... under one stencil form whose neighbours sit at flat
// offsets ±off1/±3·off1.
func (st *eqState) predict(buf []float32, lo, step, off1, form int, preds []float64) {
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
