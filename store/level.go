package store

// Progressive (multi-resolution) region reads. A level-L read returns the
// points of the requested box whose global coordinates are all multiples
// of stride 2^(L-1), bit-identical to the same points of a full-resolution
// read. Each brick whose manifest entry carries a level table fetches and
// decodes only the payload prefix up to the level boundary — strictly
// fewer bytes than a full read; bricks without a table (other codecs,
// stores written before tables were recorded) fall back to a full decode
// followed by stride sampling, so the result is the same either way.

import (
	"context"
	"fmt"

	"qoz"
	"qoz/internal/pool"
)

// MaxReadLevel bounds the level a region read accepts; stride 2^(L-1)
// already exceeds every admissible extent well before it.
const MaxReadLevel = 30

// LevelEntry describes one progressive level boundary of a brick payload:
// decoding the first Bytes bytes materializes the coarse grid of Level.
type LevelEntry struct {
	Level int   `json:"level"`
	Bytes int64 `json:"bytes"`
}

// FormatVersion returns the store's on-disk format version: 3, the
// generation journal, for every store this package writes; 1, 2, 4 or 5
// for a legacy index store written before PR 22.
func (s *Store) FormatVersion() int { return int(s.man.Load().hdr.version) }

// BrickLevels returns brick i's progressive level table — seed stage
// first, level 1 (the whole payload) last — or nil when the store or the
// brick's codec does not record one.
func (s *Store) BrickLevels(i int) []LevelEntry {
	m := s.man.Load()
	if i < 0 || i >= len(m.bricks) || len(m.bricks[i].levels) == 0 {
		return nil
	}
	spans := m.bricks[i].levels
	out := make([]LevelEntry, len(spans))
	for j, sp := range spans {
		out[j] = LevelEntry{Level: len(spans) - j, Bytes: sp.bytes}
	}
	return out
}

// ReadRegionLevel is ReadRegionLevelT for a float32 store.
func (s *Store) ReadRegionLevel(ctx context.Context, lo, hi []int, level int) ([]float32, []int, error) {
	return ReadRegionLevelT[float32](ctx, s, lo, hi, level)
}

// ReadRegionLevelT decodes the level-L coarse grid of the half-open box
// [lo, hi) as samples of type T: every point of the box whose global
// coordinates are all multiples of 2^(L-1), row-major over the returned
// coarse dims. Level 1 is a full-resolution ReadRegionT. The values —
// escaped double-precision points that land on the coarse grid included —
// are bit-identical to the same points of a full read; where the manifest
// records level tables (a progressive codec) only the level-prefix bytes of
// each brick are fetched and decoded.
func ReadRegionLevelT[T qoz.Float](ctx context.Context, s *Store, lo, hi []int, level int) ([]T, []int, error) {
	m := s.man.Load()
	if err := checkRead[T](m, lo, hi); err != nil {
		return nil, nil, err
	}
	_, dims, n, err := levelGrid(lo, hi, level)
	if err != nil {
		return nil, nil, err
	}
	out := make([]T, n)
	if err := fillBoxes(ctx, s, m, out, []Box{{lo, hi}}, level); err != nil {
		return nil, nil, err
	}
	return out, dims, nil
}

// levelGrid returns the level-L grid of the box [lo, hi): its origin in
// global coarse coordinates (coarse coordinate c is full coordinate
// c*2^(L-1)), its dims and its point count. A level outside
// 1..MaxReadLevel, or a box no grid point falls in, is an error.
func levelGrid(lo, hi []int, level int) (outLo, outDims []int, n int, err error) {
	if level < 1 || level > MaxReadLevel {
		return nil, nil, 0, fmt.Errorf("store: level %d outside 1..%d", level, MaxReadLevel)
	}
	stride := 1 << (level - 1)
	outLo = make([]int, len(lo))
	outDims = make([]int, len(lo))
	n = 1
	for d := range lo {
		outLo[d] = ceilDiv(lo[d], stride)
		outDims[d] = (hi[d]-1)/stride + 1 - outLo[d]
		if outDims[d] <= 0 {
			return nil, nil, 0, fmt.Errorf("store: region [%v,%v) holds no level-%d points (stride %d)", lo, hi, level, stride)
		}
		n *= outDims[d]
	}
	return outLo, outDims, n, nil
}

// fillRegionLevel stitches the level-L coarse grids of every brick the
// validated box intersects into the front of out, a dense coarse array of
// native kind N, and returns how many points that is.
func fillRegionLevel[N qoz.Float](ctx context.Context, s *Store, m *manifest, out []N, lo, hi []int, level int) (int, error) {
	outLo, outDims, n, err := levelGrid(lo, hi, level)
	if err != nil {
		return 0, err
	}
	stride := 1 << (level - 1)
	nd := len(lo)
	bricks := m.intersectingBricks(lo, hi)
	err = pool.RunErr(ctx, len(bricks), s.workers, func(k int) error {
		bi := bricks[k]
		blo, bhi := m.hdr.brickBox(bi)
		// The brick's share of the coarse output, in global coarse
		// coordinates. A brick the box intersects can still hold no
		// stride-aligned points of the intersection; it is skipped without
		// being fetched.
		cilo := make([]int, nd)
		size := make([]int, nd)
		for d := range lo {
			cilo[d] = ceilDiv(max(lo[d], blo[d]), stride)
			size[d] = (min(hi[d], bhi[d])-1)/stride + 1 - cilo[d]
			if size[d] <= 0 {
				return nil
			}
		}
		data, bcd, err := brickCoarse[N](ctx, s, m, bi, level)
		if err != nil {
			return err
		}
		srcLo := make([]int, nd)
		dstLo := make([]int, nd)
		for d := range lo {
			srcLo[d] = cilo[d] - ceilDiv(blo[d], stride)
			dstLo[d] = cilo[d] - outLo[d]
		}
		copyBox(out, outDims, dstLo, data, bcd, srcLo, size)
		return nil
	})
	return n, err
}

// brickCoarse returns brick i's stride-aligned points — the points
// of the brick box whose GLOBAL coordinates are all multiples of
// stride 2^(level-1) — as a dense array with its dims. Two cases:
//
//   - the brick origin is stride-aligned and its entry carries a level
//     table: fetch and decode only the level-prefix bytes (clamped to the
//     brick's own top level, then subsampled down to the requested
//     stride when the brick has fewer levels than asked for);
//   - otherwise: decode the full brick (through the ordinary brick cache)
//     and gather the aligned points.
//
// Both paths produce bit-identical values, so mixed-alignment grids
// stitch seamlessly.
func brickCoarse[N qoz.Float](ctx context.Context, s *Store, m *manifest, i, level int) ([]N, []int, error) {
	stride := 1 << (level - 1)
	blo, bhi := m.hdr.brickBox(i)
	nd := len(blo)
	bdims := make([]int, nd)
	aligned := true
	for d := range blo {
		bdims[d] = bhi[d] - blo[d]
		if blo[d]%stride != 0 {
			aligned = false
		}
	}
	// A one-entry table's only prefix is the whole payload: nothing to save.
	if table := m.bricks[i].levels; level > 1 && aligned && len(table) > 1 {
		eff := min(level, len(table))
		data, err := brick[N](ctx, s, m, i, eff)
		if err != nil {
			return nil, nil, err
		}
		if eff < level {
			// The brick's own top level is finer than requested: its coarse
			// grid contains the requested one, gather every stride/strideEff-th
			// point.
			start := make([]int, nd)
			return gatherStrided(data, qoz.CoarseDims(bdims, 1<<(eff-1)), start, stride/(1<<(eff-1)))
		}
		return data, qoz.CoarseDims(bdims, stride), nil
	}
	full, err := brick[N](ctx, s, m, i, 0)
	if err != nil {
		return nil, nil, err
	}
	if level == 1 {
		return full, bdims, nil
	}
	// Brick-local coordinates of the globally stride-aligned points:
	// c ≡ -blo (mod stride).
	start := make([]int, nd)
	for d := range start {
		start[d] = (stride - blo[d]%stride) % stride
	}
	return gatherStrided(full, bdims, start, stride)
}

// gatherStrided extracts the points of src (row-major over dims) at
// coordinates start[d] + k*step per dimension, returning the dense result
// and its dims. Every start must lie inside its extent.
func gatherStrided[T qoz.Float](src []T, dims, start []int, step int) ([]T, []int, error) {
	nd := len(dims)
	cd := make([]int, nd)
	n := 1
	for d := range dims {
		if start[d] >= dims[d] {
			return nil, nil, fmt.Errorf("store: stride gather start %v outside %v", start, dims)
		}
		cd[d] = (dims[d]-1-start[d])/step + 1
		n *= cd[d]
	}
	ss := strides(dims)
	out := make([]T, n)
	coord := make([]int, nd)
	for i := 0; i < n; i++ {
		idx := 0
		for d := 0; d < nd; d++ {
			idx += (start[d] + coord[d]*step) * ss[d]
		}
		out[i] = src[idx]
		d := nd - 1
		for d >= 0 {
			coord[d]++
			if coord[d] < cd[d] {
				break
			}
			coord[d] = 0
			d--
		}
	}
	return out, cd, nil
}

// ceilDiv returns ceil(a/b) for a >= 0, b > 0.
func ceilDiv(a, b int) int { return (a + b - 1) / b }
