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

// sweep visits the points LevelPass predicts at this level, in LevelPass's
// order, as runs: run is called with the flat indices lo, lo+step, … < hi
// of points that all predict with the stencil form from neighbours at
// flat offsets ±off1 and ±3·off1. Within one sub-pass every stencil reads
// only points whose active coordinate is an even multiple of the stride
// and the pass writes only odd multiples, so a kernel may predict a whole
// run before committing any of it.
func sweep(dims []int, level int, m Method, run func(lo, hi, step, off1, form int)) {
	nd := len(dims)
	if nd > maxFlatDims {
		panic("interp: sweep over more than maxFlatDims dimensions")
	}
	var strides, coord, steps [maxFlatDims]int
	sv := 1
	for i := nd - 1; i >= 0; i-- {
		strides[i] = sv
		sv *= dims[i]
	}
	s := 1 << (level - 1)
	inner := nd - 1
	var runBuf [4]lineRun

	for p := 0; p < nd; p++ {
		d := p
		if m.Order == Decreasing {
			d = nd - 1 - p
		}
		if dims[d] <= s {
			continue // no points to predict along this dimension
		}
		// Dimensions already swept at this level are dense at stride s,
		// the rest still at 2s; the active one starts at s.
		for q := 0; q < nd; q++ {
			swept := q < d
			if m.Order == Decreasing {
				swept = q > d
			}
			steps[q] = 2 * s
			if swept {
				steps[q] = s
			}
			coord[q] = 0
		}
		coord[d] = s
		base := 0
		if d != inner {
			base = s * strides[d]
		}
		var along []lineRun
		if d == inner {
			along = alongRuns(&runBuf, dims[d], s, m.Kind)
		}
		for {
			if d == inner {
				for _, r := range along {
					run(base+r.lo, base+r.hi, 2*s, s, r.form)
				}
			} else {
				run(base, base+dims[inner], steps[inner], s*strides[d], stencilForm(coord[d], dims[d], s, m.Kind))
			}
			q := inner - 1
			for q >= 0 {
				coord[q] += steps[q]
				base += steps[q] * strides[q]
				if coord[q] < dims[q] {
					break
				}
				start := 0
				if q == d {
					start = s
				}
				base -= (coord[q] - start) * strides[q]
				coord[q] = start
				q--
			}
			if q < 0 {
				break
			}
		}
	}
}
