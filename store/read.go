package store

// Region reads. Every read — one box or many, full resolution or a coarser
// level, cold, warm or half of each — is one fill loop: walk each box's
// pieces (box ∩ brick, internal/grid) once, copy a piece whose brick is in
// the decoded-brick cache out at once on the calling goroutine, and decode
// the rest on one bounded worker pool across the whole box list. All
// coordinate state lives in stack arrays, so a read the cache serves whole
// into a caller's buffer of the store's own sample type allocates nothing.

import (
	"context"
	"fmt"

	"qoz"
	"qoz/internal/grid"
)

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
// When T is the store's own sample type, a list whose bricks are all cached
// costs no allocation at any level, so a hot serving loop can reuse one
// buffer across requests; the bricks the cache does not hold decode on one
// bounded worker pool across the whole list. A float32 store read into
// float64 samples is widened through a temporary float32 read.
func ReadBoxesIntoT[T qoz.Float](ctx context.Context, s *Store, dst []T, boxes []Box, level int) (crc uint32, gen uint64, err error) {
	m := s.man.Load()
	total := 0
	for _, b := range boxes {
		if err := checkRead[T](m, b.Lo, b.Hi); err != nil {
			return 0, 0, err
		}
		g, err := levelGrid(b.Lo, b.Hi, level)
		if err != nil {
			return 0, 0, err
		}
		total += g.N
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
	if err := fillNative(ctx, s, m, native, boxes, level); err != nil {
		return err
	}
	if !same {
		for i, x := range native {
			dst[i] = T(x)
		}
	}
	return nil
}

// pieceJob is one piece the cache could not serve: the box it is a piece
// of and where that box's grid starts in the destination. With the decode
// it needs, the piece itself is rebuilt from these on the worker.
type pieceJob struct {
	off int
	box Box
}

// fillNative is the one fill loop: it writes the level grids of the
// validated boxes into consecutive sub-slices of dst. A piece that holds no
// point of the level is skipped without its brick being fetched.
func fillNative[N qoz.Float](ctx context.Context, s *Store, m *manifest, dst []N, boxes []Box, level int) error {
	bk := m.hdr.bricks()
	nd, step := bk.Rank, 1<<(level-1)
	obsv := stageObserverFrom(ctx)
	var refs []brickRef
	var misses []pieceJob
	off := 0
	for _, b := range boxes {
		og, _ := grid.LevelOf(b.Lo, b.Hi, step)
		it := bk.Pieces(b.Lo, b.Hi)
		for it.Next() {
			p := it.Piece
			pg, ok := grid.LevelOf(p.Lo[:nd], p.Hi[:nd], step)
			if !ok {
				continue
			}
			src := sourceLevel(m, &p, level)
			if data, ent := cachedBrick[N](s, m, p.Index, src, obsv); ent != nil {
				copyPiece(dst[off:], &og, data, &p, &pg, nd, step, src)
				ent.release()
			} else {
				refs = append(refs, brickRef{p.Index, src})
				misses = append(misses, pieceJob{off, b})
			}
		}
		off += og.N
	}
	if len(misses) == 0 {
		return nil
	}
	return fillMisses(ctx, s, m, dst, level, refs, misses)
}

// fillMisses decodes the bricks of the pieces the fill loop could not
// serve — job k needs decode refs[k] — through one fetch plan, so a brick
// two pieces share is fetched and decoded once, and copies each decode
// into every slot of dst that wants it; pieces write disjoint elements, so
// no synchronization is needed. It is its own function because the decode
// callback escapes: inside fillNative it would move that loop's variables
// to the heap on every read, hits included.
func fillMisses[N qoz.Float](ctx context.Context, s *Store, m *manifest, dst []N, level int, refs []brickRef, jobs []pieceJob) error {
	bk := m.hdr.bricks()
	nd, step := bk.Rank, 1<<(level-1)
	boxOf := func(k int) (lo, hi []int) { return jobs[k].box.Lo, jobs[k].box.Hi }
	return decodeBricks(ctx, s, m, refs, boxOf, func(k int, p grid.Piece, data []N) {
		j := &jobs[k]
		og, _ := grid.LevelOf(j.box.Lo, j.box.Hi, step)
		pg, _ := grid.LevelOf(p.Lo[:nd], p.Hi[:nd], step)
		copyPiece(dst[j.off:], &og, data, &p, &pg, nd, step, refs[k].level)
	})
}

// sourceLevel picks the decode that serves a level read of piece p's brick.
// A brick whose origin is aligned to the level's stride and whose entry
// carries a level table is served from its level prefix — fewer bytes
// fetched and decoded — clamped to the brick's own top level; the result
// is that level, at least 2. Every other brick, and every level-1 read, is
// served from the full decode: 0. Both hold bit-identical values at the
// points they share, so mixed-alignment grids stitch seamlessly.
func sourceLevel(m *manifest, p *grid.Piece, level int) int {
	table := m.bricks[p.Index].levels
	// A one-entry table's only prefix is the whole payload: nothing to save.
	if level == 1 || len(table) < 2 {
		return 0
	}
	for _, o := range p.BLo {
		if o%(1<<(level-1)) != 0 {
			return 0
		}
	}
	return min(level, len(table))
}

// copyPiece copies piece p's points on the level grid of spacing step —
// pg, inside the box's grid og that out holds densely — straight out of
// data: p's brick decoded whole (src 0) or to its own coarse grid of
// spacing 2^(src-1), which divides step. Either way the points wanted are
// every (step/spacing)-th of a box of that array.
func copyPiece[N qoz.Float](out []N, og *grid.LevelGrid, data []N, p *grid.Piece, pg *grid.LevelGrid, nd, step, src int) {
	spacing := 1 << max(src-1, 0)
	var srcDims, srcLo grid.Coord
	for d := 0; d < nd; d++ {
		srcDims[d] = (p.BHi[d]-p.BLo[d]-1)/spacing + 1
		srcLo[d] = (pg.Lo[d]*step - p.BLo[d]) / spacing
	}
	dstLo := grid.Sub(pg.Lo[:nd], og.Lo[:nd])
	every := step / spacing
	w := grid.Walk(pg.Dims[:nd], srcDims[:nd], srcLo[:nd], every, og.Dims[:nd], dstLo[:nd])
	for w.Next() {
		if every == 1 {
			copy(out[w.B:w.B+w.Run], data[w.A:w.A+w.Run])
			continue
		}
		for j, a := 0, w.A; j < w.Run; j, a = j+1, a+every {
			out[w.B+j] = data[a]
		}
	}
}
