// Exported brick-geometry helpers: the pure functions that map between
// field coordinates and brick indices. They are the basis of distributed
// serving — "which node owns which bytes" is a function of (dims, brick,
// index) alone, so a gateway that knows only a field's manifest (its
// extents and brick shape, e.g. from a shard's JSON manifest endpoint)
// computes the same brick grid as the shards that hold the data, with no
// coordination service in between. The methods on Store are conveniences
// over the same arithmetic for callers that hold an open store.
package store

import "fmt"

// Grid returns the brick-grid extent per dimension for a field of the
// given extents partitioned into bricks of the given shape:
// ceil(dims[i]/brick[i]). It errors when the two vectors disagree in rank
// or any brick extent is non-positive (dims[0] may be zero: a mutable
// store created empty along the time axis has an empty grid).
func Grid(dims, brick []int) ([]int, error) {
	if len(dims) == 0 || len(dims) != len(brick) {
		return nil, fmt.Errorf("store: grid of rank-%d dims with rank-%d brick", len(dims), len(brick))
	}
	for i := range dims {
		if brick[i] <= 0 || dims[i] < 0 || (dims[i] == 0 && i != 0) {
			return nil, fmt.Errorf("store: invalid brick grid: dims %v, brick %v", dims, brick)
		}
	}
	h := header{dims: dims, brick: brick}
	return h.grid(), nil
}

// NumBricksIn returns the total brick count of the (dims, brick) grid.
func NumBricksIn(dims, brick []int) (int, error) {
	g, err := Grid(dims, brick)
	if err != nil {
		return 0, err
	}
	n := 1
	for _, e := range g {
		n *= e
	}
	return n, nil
}

// BrickBoxIn returns the half-open box [lo, hi) of brick i — row-major
// over the (dims, brick) grid — clipped to the field extents.
func BrickBoxIn(dims, brick []int, i int) (lo, hi []int, err error) {
	nb, err := NumBricksIn(dims, brick)
	if err != nil {
		return nil, nil, err
	}
	if i < 0 || i >= nb {
		return nil, nil, fmt.Errorf("store: brick %d outside grid of %d bricks", i, nb)
	}
	h := header{dims: dims, brick: brick}
	lo, hi = h.brickBox(i)
	return lo, hi, nil
}

// IntersectingBricksIn returns the indices of the bricks the half-open
// box [lo, hi) intersects, in row-major brick order. The box must lie
// inside the field extents.
func IntersectingBricksIn(dims, brick, lo, hi []int) ([]int, error) {
	if _, err := Grid(dims, brick); err != nil {
		return nil, err
	}
	if err := checkBox(dims, lo, hi); err != nil {
		return nil, err
	}
	m := manifest{hdr: &header{dims: dims, brick: brick}}
	return m.intersectingBricks(lo, hi), nil
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
