package interp

// This file holds the predictor every codec runs: a Pyramid names one
// setting of the multi-level interpolation predictor, and its Encode and
// Decode are the only level loops outside the tuners' trials. QoZ is a
// pyramid with an anchor grid (or, ablated, the origin as seed), one
// interpolator per level and α/β-tightened bounds; SZ3 is the origin, one
// interpolator and one bound; the MGARD-style baseline is an anchor grid,
// linear hats and bounds that tighten by a fixed rule.

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"qoz/internal/pool"
	"qoz/internal/quant"
)

// Pyramid is one setting of the predictor: the field's shape, its seed,
// and each level's interpolator and error bound.
type Pyramid struct {
	Dims []int
	// Anchor is the stride of the anchor grid stored losslessly as the
	// seed. 0 seeds the origin alone, quantized at EB against a zero
	// prediction, and lets the top level span the whole field.
	Anchor int
	// Methods[l-1] interpolates level l; levels past the end reuse the
	// last entry (Algorithm 1's rule for tall grids).
	Methods []Method
	// EB, Alpha and Beta give level l the bound LevelBound(EB, Alpha,
	// Beta, l); Alpha = Beta = 1 gives every level EB.
	EB, Alpha, Beta float64
	// Workers bounds the goroutines Encode sweeps a level on, the caller's
	// among them; 0 or 1 sweeps on the caller alone. It changes nothing
	// in the encoding.
	Workers int
}

// LevelBound computes e_l = e / min(α^(l-1), β) (paper Eq. 5). Level 1
// always gets the full bound e.
func LevelBound(eb, alpha, beta float64, level int) float64 {
	div := math.Pow(alpha, float64(level-1))
	if div > beta {
		div = beta
	}
	if div < 1 {
		div = 1
	}
	return eb / div
}

// Top returns the highest interpolation level: log2 of the anchor
// stride, or with the origin as seed the level whose stride spans the
// longest dimension. The seed is stage Top()+1.
func (p *Pyramid) Top() int {
	if p.Anchor > 0 {
		return MaxLevelAnchored(p.Anchor)
	}
	return MaxLevelGlobal(p.Dims)
}

// stage returns the bound a stage quantizes under and how many symbols it
// codes: the seed stage (above top) codes the origin, or nothing beside
// the anchors.
func (p *Pyramid) stage(level, top int) (eb float64, count int) {
	switch {
	case level <= top:
		return LevelBound(p.EB, p.Alpha, p.Beta, level), CountLevelPoints(p.Dims, level)
	case p.Anchor > 0:
		return p.EB, 0
	}
	return p.EB, 1
}

func (p *Pyramid) method(level int) Method {
	return p.Methods[min(level, len(p.Methods))-1]
}

// Segment is one stage's share of the quantization streams — the seed
// stage (Level Top()+1) or one level — or, with Level 0, a single run of
// every stage's symbols in stream order (seed, then levels Top()..1).
type Segment struct {
	Level    int
	Bins     []uint32
	Literals []float32 // the values of the stage's escape symbols, in order
}

// Encoding is what Encode makes of a field.
type Encoding struct {
	// Recon is the reconstruction that decoding the symbols yields, bit
	// for bit.
	Recon []float32
	// Anchors holds the anchor-grid values in AnchorIndices order; nil
	// with the origin as seed.
	Anchors []float32
	// Run holds every symbol as one Level-0 segment; Segments cuts the
	// same streams per stage, seed first.
	Run      Segment
	Segments []Segment
}

// Encode seeds the field, then predicts and quantizes levels Top()..1.
func (p *Pyramid) Encode(data []float32) *Encoding {
	top := p.Top()
	e := &Encoding{Recon: make([]float32, len(data))}
	q := quant.New(p.EB, 0)
	nBins := len(data)
	if p.Anchor > 0 {
		idxs := AnchorIndices(p.Dims, p.Anchor)
		e.Anchors = make([]float32, len(idxs))
		for i, idx := range idxs {
			e.Anchors[i] = data[idx]
			e.Recon[idx] = data[idx]
		}
		nBins -= len(idxs)
	}
	// Recon and the bins are sized once from the known counts and not
	// pooled: a sync.Pool keeps up to one set per P alive across GC cycles,
	// which on whole-field encodes raised the collector's heap target (and
	// peak RSS by a third) for a few percent of throughput. The streams
	// are cut per stage once the pass is over and they can no longer move.
	q.Bins = make([]uint32, 0, nBins)
	if p.Anchor == 0 {
		e.Recon[0] = q.Quantize(data[0], 0)
	}
	ends := make([][2]int, 1, top+1)
	ends[0] = [2]int{len(q.Bins), len(q.Literals)}
	for l := top; l >= 1; l-- {
		q.SetBound(LevelBound(p.EB, p.Alpha, p.Beta, l))
		w := max(1, p.Workers)
		levelPassEncodeChunked(e.Recon, data, p.Dims, l, p.method(l), q, w, minChunkedPass, w)
		ends = append(ends, [2]int{len(q.Bins), len(q.Literals)})
	}
	e.Run = Segment{Bins: q.Bins, Literals: q.Literals}
	e.Segments = make([]Segment, len(ends))
	var from [2]int
	for i, to := range ends {
		e.Segments[i] = Segment{Level: top + 1 - i, Bins: q.Bins[from[0]:to[0]], Literals: q.Literals[from[1]:to[1]]}
		from = to
	}
	return e
}

// DecodeSweep reconstructs one level of buf from deq's symbols:
// LevelPassDecode, or the reference decoders' closure-driven LevelPass. A
// non-nil clip names the points each sub-pass must reconstruct (sweep's
// layout); a sweep may reconstruct more, but must consume every symbol of
// the level either way.
type DecodeSweep func(buf []float32, dims []int, level int, m Method, clip []Range, deq *quant.Dequantizer)

// Decode reconstructs the field from its anchors (ignored with the origin
// as seed) and symbols through sweep, down to level stop in [1, Top()+1]:
// 1 decodes everything, Top()+1 the seed alone. segs is either the
// level-segmented layout — a segment per stage, found by level, each
// checked for its symbol count before and its literal count after its
// stage, none below stop looked at — or the single-run layout, one Level-0
// segment whose total count is checked before the first stage and whose
// trailing symbols and literals after the last; a run decodes in full.
// A non-nil box, one range per dimension, asks for those points only: each
// sub-pass predicts just the points later passes read on the way to the
// box (cone), the others keep whatever the buffer holds, and every symbol
// is still consumed and checked. The reconstruction is a cleared
// pool.Slab, drawn once the symbol counts are known to fit the dims: a
// caller done with it may hand it back with pool.PutSlab, and a failed
// decode hands it back itself.
func (p *Pyramid) Decode(anchors []float32, segs []Segment, stop int, box []Range, sweep DecodeSweep) ([]float32, error) {
	n := 1
	for _, d := range p.Dims {
		n *= d
	}
	if box != nil && !inside(box, p.Dims) {
		return nil, errors.New("decode box outside the field")
	}
	var idxs []int
	if p.Anchor > 0 {
		idxs = AnchorIndices(p.Dims, p.Anchor)
		if len(anchors) != len(idxs) {
			return nil, errors.New("anchor count mismatch")
		}
	}
	run := len(segs) == 1 && segs[0].Level == 0
	if run {
		if len(segs[0].Bins) != n-len(idxs) {
			return nil, errors.New("bin count does not match dims")
		}
		stop = 1
	}
	recon := pool.Slab[float32](n)
	clear(recon)
	for i, idx := range idxs {
		recon[idx] = anchors[i]
	}
	cone := p.cone(box, stop)
	err := p.sweepLevels(recon, segs, stop, run, cone, sweep)
	releaseCone(cone)
	if err != nil {
		pool.PutSlab(recon)
		return nil, err
	}
	return recon, nil
}

// inside reports whether box is a non-empty box of one range per
// dimension within dims.
func inside(box []Range, dims []int) bool {
	if len(box) != len(dims) {
		return false
	}
	for q, r := range box {
		if r.Lo < 0 || r.Lo >= r.Hi || r.Hi > dims[q] {
			return false
		}
	}
	return true
}

// cone returns the clip of every sub-pass of levels stop..Top() (sweep's
// layout, len(Dims)² ranges per level, level l's from (l-1)·len(Dims)²)
// that leaves box exact after level stop, or nil for no box. It starts
// from box and walks the passes backwards, from level stop's last to the
// top level's first: a pass must predict the box the passes after it
// read, and reads its inputs up to 3s along its own axis (the cubic
// stencil's reach at stride s), so the box before it is that box widened
// by 3s along the axis and clamped to the field.
//
// The clips are built in a recycled fixed-size array when they fit, as a
// store's bricks' do; releaseCone hands it back.
func (p *Pyramid) cone(box []Range, stop int) []Range {
	if box == nil {
		return nil
	}
	nd, top := len(p.Dims), p.Top()
	var out []Range
	if n := top * nd * nd; n <= maxConeRanges {
		out = cones.Get().(*[maxConeRanges]Range)[:n]
	} else {
		out = make([]Range, n)
	}
	var cur [maxFlatDims]Range
	copy(cur[:], box)
	for l := stop; l <= top; l++ {
		s := 1 << (l - 1)
		m := p.method(l)
		for pass := nd - 1; pass >= 0; pass-- {
			copy(out[((l-1)*nd+pass)*nd:], cur[:nd])
			d := pass
			if m.Order == Decreasing {
				d = nd - 1 - pass
			}
			cur[d] = Range{max(0, cur[d].Lo-3*s), min(p.Dims[d], cur[d].Hi+3*s)}
		}
	}
	return out
}

// maxConeRanges is how many clips a recycled cone array holds: sixteen
// levels of a 4-D pyramid. A store's bricks fit; a 32³ brick anchored at
// stride 32 has five levels of nine.
const maxConeRanges = 16 * 4 * 4

// cones recycles cone arrays. The sweep is called through a function
// value, which the compiler cannot see into, so clips it is handed must be
// heap memory: without the pool, every clipped decode allocated its cone.
var cones = sync.Pool{New: func() any { return new([maxConeRanges]Range) }}

// releaseCone hands back a cone drawn from cones; others are left to the
// collector.
func releaseCone(cone []Range) {
	if cap(cone) == maxConeRanges {
		cones.Put((*[maxConeRanges]Range)(cone[:maxConeRanges]))
	}
}

// sweepLevels runs Decode's stages from the seed down to level stop over
// recon, which holds the anchors, each level clipped to its share of cone
// (nil: whole levels).
func (p *Pyramid) sweepLevels(recon []float32, segs []Segment, stop int, run bool, cone []Range, sweep DecodeSweep) error {
	top := p.Top()
	nd := len(p.Dims)
	var deq quant.Dequantizer
	for l := top + 1; l >= stop; l-- {
		eb, count := p.stage(l, top)
		switch {
		case !run:
			seg := find(segs, l)
			if seg == nil {
				return fmt.Errorf("stream ends above level %d", l)
			}
			if len(seg.Bins) != count {
				return errors.New("bin count does not match dims")
			}
			deq = *quant.NewDequantizer(eb, 0, seg.Bins, seg.Literals)
		case l > top:
			deq = *quant.NewDequantizer(eb, 0, segs[0].Bins, segs[0].Literals)
		default:
			deq.SetBound(eb)
		}
		if l <= top {
			var clip []Range
			if cone != nil {
				clip = cone[(l-1)*nd*nd : l*nd*nd]
			}
			sweep(recon, p.Dims, l, p.method(l), clip, &deq)
		} else if count > 0 {
			recon[0] = deq.Next(0)
		}
		if !run {
			if err := deq.CheckLiterals(); err != nil {
				return fmt.Errorf("level %d: %w", l, err)
			}
		}
	}
	if run {
		if deq.Remaining() != 0 {
			return errors.New("trailing quantization symbols")
		}
		if err := deq.CheckLiterals(); err != nil {
			return err
		}
	}
	return nil
}

// find returns the segment of a level, or nil.
func find(segs []Segment, level int) *Segment {
	for i := range segs {
		if segs[i].Level == level {
			return &segs[i]
		}
	}
	return nil
}
