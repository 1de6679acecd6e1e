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

// ReadRegionInto is ReadRegionIntoT for a float32 destination.
func (s *Store) ReadRegionInto(ctx context.Context, dst []float32, lo, hi []int) error {
	return ReadRegionIntoT(ctx, s, dst, lo, hi)
}

// ReadRegionIntoT is ReadRegionT writing into a caller-provided buffer:
// dst must hold exactly boxPoints(lo, hi) elements and receives the box
// row-major with shape hi-lo. The box, the destination size and the
// sample kind are all checked before any brick is fetched. When T is the
// store's own sample type and every intersecting brick is cached the read
// allocates nothing, so a hot serving loop can reuse one buffer across
// requests; a float32 store read into float64 samples is widened through
// a temporary float32 read.
func ReadRegionIntoT[T qoz.Float](ctx context.Context, s *Store, dst []T, lo, hi []int) error {
	m := s.man.Load()
	if err := checkRead[T](m, lo, hi); err != nil {
		return err
	}
	if len(dst) != boxPoints(lo, hi) {
		return fmt.Errorf("store: destination holds %d points, region has %d", len(dst), boxPoints(lo, hi))
	}
	return fillRegion(ctx, s, m, dst, lo, hi)
}

// readRegionSlow is the general path: intersecting bricks decoded (or
// cache-fetched) concurrently on the bounded worker pool, each copied
// into its slot of dst.
func readRegionSlow[N qoz.Float](ctx context.Context, s *Store, m *manifest, dst []N, lo, hi []int) error {
	dims := m.hdr.dims
	outDims := make([]int, len(dims))
	for i := range dims {
		outDims[i] = hi[i] - lo[i]
	}
	bricks := m.intersectingBricks(lo, hi)
	return pool.RunErr(ctx, len(bricks), s.workers, func(k int) error {
		bi := bricks[k]
		blo, bhi := m.hdr.brickBox(bi)
		data, err := brick[N](ctx, s, m, bi, 0)
		if err != nil {
			return err
		}
		// Intersection of the brick box and the requested box, copied from
		// brick-local coordinates into region-local coordinates. Workers
		// write disjoint elements of dst, so no synchronization is needed.
		ilo := make([]int, len(dims))
		size := make([]int, len(dims))
		srcLo := make([]int, len(dims))
		dstLo := make([]int, len(dims))
		bdims := make([]int, len(dims))
		for i := range dims {
			ilo[i] = max(lo[i], blo[i])
			size[i] = min(hi[i], bhi[i]) - ilo[i]
			srcLo[i] = ilo[i] - blo[i]
			dstLo[i] = ilo[i] - lo[i]
			bdims[i] = bhi[i] - blo[i]
		}
		copyBox(dst, outDims, dstLo, data, bdims, srcLo, size)
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
