// Exported brick-geometry helpers: the pure functions that map between
// field coordinates and brick indices. They are the basis of distributed
// serving — "which node owns which bytes" is a function of (dims, brick,
// index) alone, so a gateway that knows only a field's manifest (its
// extents and brick shape, e.g. from a shard's JSON manifest endpoint)
// computes the same brick grid as the shards that hold the data, with no
// coordination service in between. The methods on Store are conveniences
// over the same arithmetic for callers that hold an open store.
package store

import (
	"fmt"

	"qoz/internal/grid"
)

// newBricks validates a (dims, brick) partition that arrives from outside
// the package.
func newBricks(dims, brick []int) (grid.Bricks, error) {
	bk, err := grid.NewBricks(dims, brick)
	if err != nil {
		return bk, fmt.Errorf("store: %w", err)
	}
	return bk, nil
}

// Grid returns the brick-grid extent per dimension for a field of the
// given extents partitioned into bricks of the given shape:
// ceil(dims[i]/brick[i]). It errors when the two vectors disagree in rank,
// the rank is outside 1..8, or any brick extent is non-positive (dims[0]
// may be zero: a mutable store created empty along the time axis has an
// empty grid).
func Grid(dims, brick []int) ([]int, error) {
	bk, err := newBricks(dims, brick)
	if err != nil {
		return nil, err
	}
	return append([]int(nil), bk.Grid[:bk.Rank]...), nil
}

// NumBricksIn returns the total brick count of the (dims, brick) grid.
func NumBricksIn(dims, brick []int) (int, error) {
	bk, err := newBricks(dims, brick)
	if err != nil {
		return 0, err
	}
	return bk.Count(), nil
}

// BrickBoxIn returns the half-open box [lo, hi) of brick i — row-major
// over the (dims, brick) grid — clipped to the field extents.
func BrickBoxIn(dims, brick []int, i int) (lo, hi []int, err error) {
	bk, err := newBricks(dims, brick)
	if err != nil {
		return nil, nil, err
	}
	if nb := bk.Count(); i < 0 || i >= nb {
		return nil, nil, fmt.Errorf("store: brick %d outside grid of %d bricks", i, nb)
	}
	blo, bhi := bk.Box(i)
	return append([]int(nil), blo[:bk.Rank]...), append([]int(nil), bhi[:bk.Rank]...), nil
}

// IntersectingBricksIn returns the indices of the bricks the half-open
// box [lo, hi) intersects, in row-major brick order. The box must lie
// inside the field extents.
func IntersectingBricksIn(dims, brick, lo, hi []int) ([]int, error) {
	bk, err := newBricks(dims, brick)
	if err != nil {
		return nil, err
	}
	if err := checkBox(dims, lo, hi); err != nil {
		return nil, err
	}
	var out []int
	it := bk.Pieces(lo, hi)
	for it.Next() {
		out = append(out, it.Index)
	}
	return out, nil
}

// BrickBox returns the half-open box [lo, hi) of brick i of the store's
// current generation, clipped to the field extents.
func (s *Store) BrickBox(i int) (lo, hi []int, err error) {
	h := s.man.Load().hdr
	return BrickBoxIn(h.dims, h.brick, i)
}

// IntersectingBricks returns the indices of the bricks the box [lo, hi)
// intersects in the store's current generation, in row-major brick order.
func (s *Store) IntersectingBricks(lo, hi []int) ([]int, error) {
	h := s.man.Load().hdr
	return IntersectingBricksIn(h.dims, h.brick, lo, hi)
}
