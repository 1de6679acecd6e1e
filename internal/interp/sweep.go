package interp

// This file holds the one line walker behind the fused sweeps. LevelPass
// pays a closure call per point and recomputes the flat index at every
// odometer step; sweep walks the same points in the same order line by
// line, and hands its caller every maximal run of points that share one
// stencil form. Along the innermost dimension a line's boundary structure
// is fixed (head point, full-stencil interior, at most two tail points),
// so its runs are laid out once per pass; along an outer dimension the
// boundary flags depend only on the active coordinate, constant over an
// inner line, so the whole line is one run. What happens to a run —
// dequantize it (decode.go), quantize it, or quantize it while summing
// prediction errors (encode.go) — is the caller's kernel.

// maxFlatDims bounds the dimensionality sweep walks with stack-allocated
// coordinate state. It equals container.CheckDims's 8-dimension cap, which
// every stream header and every codec's input (container.CheckField)
// passes, so no caller can ask for more.
const maxFlatDims = 8

// Stencil forms: predict1D's branches, named so a run can carry the one
// that holds for all of its points.
const (
	formCopy   = iota // no neighbours beyond −s: copy fm1
	formExtrap        // right neighbour missing: 1.5*fm1 − 0.5*fm3
	formAvg           // linear average of ±s
	formQM3           // left-biased parabola (−3s, −s, +s)
	formQP3           // right-biased parabola (−s, +s, +3s)
	formFull          // full cubic stencil (±s, ±3s)
)

// stencilForm reproduces predict1D's branch structure for a point at
// coordinate c of an extent-n dimension.
func stencilForm(c, n, s int, kind Kind) int {
	hasP1 := c+s < n
	if !hasP1 {
		if c >= 3*s {
			return formExtrap
		}
		return formCopy
	}
	hasM3 := c >= 3*s
	hasP3 := c+3*s < n
	switch kind {
	case Linear:
		return formAvg
	case Quadratic:
		if hasM3 {
			return formQM3
		}
		if hasP3 {
			return formQP3
		}
		return formAvg
	default: // Cubic
		switch {
		case hasM3 && hasP3:
			return formFull
		case hasM3:
			return formQM3
		case hasP3:
			return formQP3
		default:
			return formAvg
		}
	}
}

// lineRun is one run of a line along the innermost dimension, as offsets
// from the line's base index.
type lineRun struct{ lo, hi, form int }

// alongRuns lays out the runs of a line of extent n predicted along
// itself at stride s: the points c = s, 3s, … split wherever the stencil
// form changes. The interior — every point with a −3s neighbour whose
// right reach (s, or 3s for the cubic) stays inside the line — is one run;
// the head has no −3s neighbour, which only the linear basis never reads,
// so only there does it join the interior; at most two tail points follow.
func alongRuns(runs *[4]lineRun, n, s int, kind Kind) []lineRun {
	out := runs[:0]
	c := s
	reach, form := s, formAvg
	switch kind {
	case Quadratic:
		form = formQM3
	case Cubic:
		reach, form = 3*s, formFull
	}
	if kind != Linear {
		out = append(out, lineRun{c, c + 1, stencilForm(c, n, s, kind)})
		c += 2 * s
	}
	if c+reach < n {
		out = append(out, lineRun{c, n - reach, form})
		c += (n - reach - c + 2*s - 1) / (2 * s) * 2 * s
	}
	for ; c < n; c += 2 * s {
		out = append(out, lineRun{c, c + 1, stencilForm(c, n, s, kind)})
	}
	return out
}

// Range is the half-open range [Lo, Hi) of coordinates along one
// dimension.
type Range struct{ Lo, Hi int }

// whole fills clip with the ranges of a full level sweep over dims: every
// sub-pass predicts every point of its lattice. clip must hold
// len(dims)² ranges.
func whole(dims []int, clip []Range) []Range {
	nd := len(dims)
	clip = clip[:nd*nd]
	for i := range clip {
		clip[i] = Range{0, dims[i%nd]}
	}
	return clip
}

// subPass describes sub-pass p of the level of stride s by the dim-0
// coordinates its points take — start, start+step, … below dims[0] —
// each holding perRow points. The CountLevelPoints product is rows ×
// perRow, summed over the sub-passes.
func subPass(dims []int, s int, m Method, p int) (start, step, perRow int) {
	d := p
	if m.Order == Decreasing {
		d = len(dims) - 1 - p
	}
	perRow = 1
	for q := 1; q < len(dims); q++ {
		st, sp := lattice(q, d, s, m)
		perRow *= countRange(st, sp, dims[q])
	}
	start, step = lattice(0, d, s, m)
	return start, step, perRow
}

// lattice returns the coordinates dimension q takes in the sub-pass along
// d at stride s, start, start+step, …: the active dimension starts at s,
// dimensions already swept at this level are dense at stride s, the rest
// still at 2s.
func lattice(q, d, s int, m Method) (start, step int) {
	switch {
	case q == d:
		return s, 2 * s
	case (q < d) != (m.Order == Decreasing): // swept
		return 0, s
	}
	return 0, 2 * s
}

// sweep visits the points LevelPass predicts at this level, in LevelPass's
// order, as runs: run is called with the flat indices lo, lo+step, … < hi
// of points that all predict with the stencil form from neighbours at
// flat offsets ±off1 and ±3·off1. Within one sub-pass every stencil reads
// only points whose active coordinate is an even multiple of the stride
// and the pass writes only odd multiples, so a kernel may predict a whole
// run before committing any of it — and the points of disjoint dim-0
// ranges of one sub-pass may be swept concurrently.
//
// clip, len(dims)² ranges, limits what is visited: sub-pass p predicts
// only its points whose coordinate along each dimension q lies in
// clip[p·nd+q]. The level's other points are skipped, and each run
// carries skip, the number of skipped points LevelPass would have visited
// since the previous run; a final run with lo = hi carries what is left
// after the last point visited. A decode advances its symbol cursor by
// skip, so the symbols of the visited points stay where the full sweep
// reads them; an encode that clips only dim 0 of one sub-pass sees no
// skip between two of its runs and may ignore it.
func sweep(dims []int, level int, m Method, clip []Range, run func(skip, lo, hi, step, off1, form int)) {
	nd := len(dims)
	if nd > maxFlatDims {
		panic("interp: sweep over more than maxFlatDims dimensions")
	}
	// Per dimension: flat stride, odometer coordinate and step, the first
	// clipped coordinate and the bound below which clipped coordinates lie,
	// and the lattice's ordinal step (points per unit of the coordinate's
	// lattice index).
	var strides, coord, steps, first, limit, plane [maxFlatDims]int
	sv := 1
	for i := nd - 1; i >= 0; i-- {
		strides[i] = sv
		sv *= dims[i]
	}
	s := 1 << (level - 1)
	inner := nd - 1
	var runBuf [4]lineRun
	pending := 0 // skipped points not yet handed to run

	for p := 0; p < nd; p++ {
		d := p
		if m.Order == Decreasing {
			d = nd - 1 - p
		}
		// The lattice of the sub-pass, its clipped sub-box in lattice
		// indices [a, b) per dimension, and the ordinal of the sub-box's
		// first point: LevelPass visits the lattice in row-major order.
		total, empty, ord := 1, false, 0
		var a, b [maxFlatDims]int
		for q := nd - 1; q >= 0; q-- {
			start, step := lattice(q, d, s, m)
			n := countRange(start, step, dims[q])
			r := clip[p*nd+q]
			a[q] = countRange(start, step, max(r.Lo, 0))
			b[q] = countRange(start, step, min(r.Hi, dims[q]))
			first[q], limit[q], steps[q] = start+a[q]*step, min(r.Hi, dims[q]), step
			plane[q] = total
			total *= n
			empty = empty || a[q] >= b[q]
		}
		if empty {
			pending += total
			continue
		}
		base := 0
		for q := 0; q < nd; q++ {
			coord[q] = first[q]
			if q < inner {
				base += coord[q] * strides[q]
				ord += a[q] * plane[q]
			}
		}
		var along []lineRun
		if d == inner {
			along = clipRuns(alongRuns(&runBuf, dims[d], s, m.Kind), first[inner], limit[inner], steps[inner])
		}
		done := 0 // the sub-pass's points visited or skipped so far
		for {
			skip := pending + ord + a[inner] - done
			pending = 0
			if d == inner {
				for _, r := range along {
					run(skip, base+r.lo, base+r.hi, 2*s, s, r.form)
					skip = 0
				}
			} else {
				run(skip, base+first[inner], base+limit[inner], steps[inner], s*strides[d], stencilForm(coord[d], dims[d], s, m.Kind))
			}
			done = ord + b[inner]
			q := inner - 1
			for q >= 0 {
				coord[q] += steps[q]
				base += steps[q] * strides[q]
				ord += plane[q]
				if coord[q] < limit[q] {
					break
				}
				back := (coord[q] - first[q]) / steps[q]
				base -= back * steps[q] * strides[q]
				ord -= back * plane[q]
				coord[q] = first[q]
				q--
			}
			if q < 0 {
				break
			}
		}
		pending += total - done
	}
	if pending > 0 {
		run(pending, 0, 0, 1, 0, formCopy)
	}
}

// clipRuns trims the runs of a 1-D line, whose points sit at offsets
// on a lattice of the given step, to the offsets in [lo, hi), dropping
// runs left empty. lo is on the lattice.
func clipRuns(runs []lineRun, lo, hi, step int) []lineRun {
	out := runs[:0]
	for _, r := range runs {
		if r.lo < lo {
			r.lo += (lo - r.lo + step - 1) / step * step
		}
		r.hi = min(r.hi, hi)
		if r.lo < r.hi {
			out = append(out, r)
		}
	}
	return out
}
