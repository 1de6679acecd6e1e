package store

// Zero-allocation serving of fully-cached region reads. The general read
// path pays per-request allocations that don't matter next to a codec run
// — worker-pool goroutines, per-brick coordinate slices — but dominate
// once every intersecting brick is already in the decoded-brick cache.
// serveRegionCached recognizes that case up front and serves the request
// on the calling goroutine with all coordinate state in stack arrays, so
// a steady-state cache-hit ReadRegionInto performs no heap allocation at
// all (and ReadRegion exactly one: its result).

import (
	"context"
	"fmt"

	"qoz"
	"qoz/internal/pool"
)

// maxFastDims bounds the rank the stack-allocated serving path handles;
// higher ranks (which no current writer produces) use the general path.
const maxFastDims = 8

// Box is the half-open box [Lo, Hi) of field coordinates.
type Box struct{ Lo, Hi []int }

// ReadRegionInto is ReadRegionIntoT for a float32 destination.
func (s *Store) ReadRegionInto(ctx context.Context, dst []float32, lo, hi []int) error {
	return ReadRegionIntoT(ctx, s, dst, lo, hi)
}

// ReadRegionIntoT is ReadRegionT writing into a caller-provided buffer:
// the one-box, full-resolution case of ReadBoxesIntoT.
func ReadRegionIntoT[T qoz.Float](ctx context.Context, s *Store, dst []T, lo, hi []int) error {
	_, _, err := ReadBoxesIntoT(ctx, s, dst, []Box{{lo, hi}}, 1)
	return err
}

// ReadBoxesIntoT reads a list of boxes into one caller-provided buffer:
// consecutive sub-slices of dst receive each box's level-L grid (level 1:
// the box itself, row-major with shape Hi-Lo; level L: what
// ReadRegionLevelT returns for it), in list order. Boxes may overlap or
// repeat. Every box, the level, the sample kind and the destination size —
// exactly the sum of the grids — are checked before any brick is fetched,
// and the whole list is served from one committed generation, whose
// (manifest CRC, generation) pair is returned so that a caller which
// validated against an earlier ManifestVersion can tell the two apart.
// When T is the store's own sample type, a level-1 box whose bricks are
// all cached costs no allocation, so a hot serving loop can reuse one
// buffer across requests; the bricks of all other boxes decode on one
// bounded worker pool across the whole list. A float32 store read into
// float64 samples is widened through a temporary float32 read.
func ReadBoxesIntoT[T qoz.Float](ctx context.Context, s *Store, dst []T, boxes []Box, level int) (crc uint32, gen uint64, err error) {
	m := s.man.Load()
	total := 0
	for _, b := range boxes {
		if err := checkRead[T](m, b.Lo, b.Hi); err != nil {
			return 0, 0, err
		}
		n := boxPoints(b.Lo, b.Hi)
		if level != 1 { // the level-1 count above allocates nothing
			if _, _, n, err = levelGrid(b.Lo, b.Hi, level); err != nil {
				return 0, 0, err
			}
		}
		total += n
	}
	if len(dst) != total {
		return 0, 0, fmt.Errorf("store: destination holds %d points, region has %d", len(dst), total)
	}
	return m.fp, m.gen, fillBoxes(ctx, s, m, dst, boxes, level)
}

// fillBoxes decodes the validated boxes into consecutive sub-slices of dst
// — the one place a region read dispatches on the store's sample kind.
func fillBoxes[T qoz.Float](ctx context.Context, s *Store, m *manifest, dst []T, boxes []Box, level int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if m.hdr.kind == kindFloat64 {
		return fillBoxesFrom[float64](ctx, s, m, dst, boxes, level)
	}
	return fillBoxesFrom[float32](ctx, s, m, dst, boxes, level)
}

// fillBoxesFrom decodes the boxes from bricks of native kind N: straight
// into dst when T is N, otherwise into a native buffer that is then
// widened whole. Every access goes through the manifest snapshot m, so the
// whole read is served from one committed generation.
func fillBoxesFrom[N, T qoz.Float](ctx context.Context, s *Store, m *manifest, dst []T, boxes []Box, level int) error {
	native, same := any(dst).([]N)
	if !same {
		native = make([]N, len(dst))
	}
	if level > 1 {
		off := 0
		for _, b := range boxes {
			n, err := fillRegionLevel(ctx, s, m, native[off:], b.Lo, b.Hi, level)
			if err != nil {
				return err
			}
			off += n
		}
	} else if err := fillBoxesFull(ctx, s, m, native, boxes); err != nil {
		return err
	}
	if !same {
		for i, x := range native {
			dst[i] = T(x)
		}
	}
	return nil
}

// brickJob is one brick of one box that the cache could not serve whole:
// the box's corners and where its samples start in the destination.
type brickJob struct {
	lo, hi []int
	off    int
	brick  int
}

// fillBoxesFull fills the boxes at full resolution. A box whose bricks are
// all cached is served on the calling goroutine without allocating; the
// intersecting bricks of every other box are decoded (or cache-fetched)
// concurrently on one bounded worker pool, each copied into its slot of
// dst, so a cold list keeps s.workers decodes in flight however its bricks
// are spread over the boxes.
func fillBoxesFull[N qoz.Float](ctx context.Context, s *Store, m *manifest, dst []N, boxes []Box) error {
	var jobs []brickJob
	off := 0
	for _, b := range boxes {
		n := boxPoints(b.Lo, b.Hi)
		if !serveRegionCached(ctx, s, m, dst[off:off+n], b.Lo, b.Hi) {
			for _, bi := range m.intersectingBricks(b.Lo, b.Hi) {
				jobs = append(jobs, brickJob{lo: b.Lo, hi: b.Hi, off: off, brick: bi})
			}
		}
		off += n
	}
	if len(jobs) == 0 {
		return nil
	}
	nd := len(m.hdr.dims)
	return pool.RunErr(ctx, len(jobs), s.workers, func(k int) error {
		j := jobs[k]
		blo, bhi := m.hdr.brickBox(j.brick)
		data, err := brick[N](ctx, s, m, j.brick, 0)
		if err != nil {
			return err
		}
		// Intersection of the brick box and the requested box, copied from
		// brick-local coordinates into box-local coordinates. Workers write
		// disjoint elements of dst, so no synchronization is needed.
		outDims := make([]int, nd)
		size := make([]int, nd)
		srcLo := make([]int, nd)
		dstLo := make([]int, nd)
		bdims := make([]int, nd)
		for i := 0; i < nd; i++ {
			ilo := max(j.lo[i], blo[i])
			outDims[i] = j.hi[i] - j.lo[i]
			size[i] = min(j.hi[i], bhi[i]) - ilo
			srcLo[i] = ilo - blo[i]
			dstLo[i] = ilo - j.lo[i]
			bdims[i] = bhi[i] - blo[i]
		}
		copyBox(dst[j.off:], outDims, dstLo, data, bdims, srcLo, size)
		return nil
	})
}

// serveRegionCached attempts to serve the box entirely from the decoded-
// brick cache, on the calling goroutine, without allocating. It returns
// false — possibly after partially writing dst — when any intersecting
// brick is absent (or evicted mid-pass); the caller then runs the general
// path, which rewrites every element.
func serveRegionCached[N qoz.Float](ctx context.Context, s *Store, m *manifest, dst []N, lo, hi []int) bool {
	h := m.hdr
	nd := len(h.dims)
	if nd > maxFastDims || s.cache == nil {
		return false
	}
	var g, gStride, cLo, cHi [maxFastDims]int
	for i := 0; i < nd; i++ {
		g[i] = (h.dims[i] + h.brick[i] - 1) / h.brick[i]
		cLo[i] = lo[i] / h.brick[i]
		cHi[i] = (hi[i]-1)/h.brick[i] + 1
	}
	acc := 1
	for i := nd - 1; i >= 0; i-- {
		gStride[i] = acc
		acc *= g[i]
	}
	var dstStride [maxFastDims]int
	acc = 1
	for i := nd - 1; i >= 0; i-- {
		dstStride[i] = acc
		acc *= hi[i] - lo[i]
	}

	// Probe pass: every intersecting brick must already be cached. Probing
	// first keeps the stats and stage observations of an abandoned attempt
	// clean — a request that falls through to the decode path reports its
	// bricks exactly once, from there.
	var coord [maxFastDims]int
	copy(coord[:nd], cLo[:nd])
	for {
		idx := 0
		for i := 0; i < nd; i++ {
			idx += coord[i] * gStride[i]
		}
		if _, ok := s.cache.get(cacheKey{owner: s, epoch: m.epoch, brick: idx, off: m.bricks[idx].off}); !ok {
			return false
		}
		k := nd - 1
		for ; k >= 0; k-- {
			coord[k]++
			if coord[k] < cHi[k] {
				break
			}
			coord[k] = cLo[k]
		}
		if k < 0 {
			break
		}
	}

	// Serve pass: copy each brick's intersection into dst with all
	// coordinate state on the stack.
	obsv := stageObserverFrom(ctx)
	elem := int64(kindSize(h.kind))
	served := int64(0)
	copy(coord[:nd], cLo[:nd])
	for {
		idx := 0
		for i := 0; i < nd; i++ {
			idx += coord[i] * gStride[i]
		}
		v, ok := s.cache.get(cacheKey{owner: s, epoch: m.epoch, brick: idx, off: m.bricks[idx].off})
		if !ok {
			// Evicted between the passes; redo everything on the slow path.
			return false
		}
		data := v.([]N)
		var bdims, size, srcLo, dstLo, srcStride [maxFastDims]int
		for i := 0; i < nd; i++ {
			blo := coord[i] * h.brick[i]
			bhi := min(blo+h.brick[i], h.dims[i])
			ilo := max(lo[i], blo)
			size[i] = min(hi[i], bhi) - ilo
			srcLo[i] = ilo - blo
			dstLo[i] = ilo - lo[i]
			bdims[i] = bhi - blo
		}
		acc = 1
		for i := nd - 1; i >= 0; i-- {
			srcStride[i] = acc
			acc *= bdims[i]
		}
		so, do := 0, 0
		for i := 0; i < nd; i++ {
			so += srcLo[i] * srcStride[i]
			do += dstLo[i] * dstStride[i]
		}
		run := size[nd-1]
		if nd == 1 {
			copy(dst[do:do+run], data[so:so+run])
		} else {
			var ix [maxFastDims]int
			for {
				copy(dst[do:do+run], data[so:so+run])
				k := nd - 2
				for ; k >= 0; k-- {
					ix[k]++
					so += srcStride[k]
					do += dstStride[k]
					if ix[k] < size[k] {
						break
					}
					so -= size[k] * srcStride[k]
					do -= size[k] * dstStride[k]
					ix[k] = 0
				}
				if k < 0 {
					break
				}
			}
		}
		if obsv != nil {
			obsv(StageCacheHit, 0, int64(len(data))*elem)
		}
		served++
		k := nd - 1
		for ; k >= 0; k-- {
			coord[k]++
			if coord[k] < cHi[k] {
				break
			}
			coord[k] = cLo[k]
		}
		if k < 0 {
			break
		}
	}
	s.read.Add(served)
	s.hits.Add(served)
	return true
}
