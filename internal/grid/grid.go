// Package grid is the box geometry of row-major N-d arrays held as bare
// slices: row-major strides and offsets (StridesOf, Dot), a field cut into
// tiles (EachTile) or bricks (Bricks, Pieces), a box's step-aligned level
// grid (LevelOf), and the one box walk (Walk) that steps a box through two
// arrays a run at a time. Codecs, stores and the gateway share it; none of
// it owns data.
package grid

// StridesOf returns the row-major strides for dims.
func StridesOf(dims []int) []int {
	strides := make([]int, len(dims))
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	return strides
}

// Dot returns the flat offset of a multi-index given row-major strides.
func Dot(coord, strides []int) int {
	off := 0
	for i := range coord {
		off += coord[i] * strides[i]
	}
	return off
}

// EachTile invokes fn for every non-overlapping tile of edge length `edge`
// covering dims, in row-major order of their origins, passing the tile's
// origin and clipped size. The block-based codecs tile with it (SZ2's 6^3
// prediction blocks, ZFP's 4^d transform blocks).
func EachTile(dims []int, edge int, fn func(origin, size []int)) {
	nd := len(dims)
	origin := make([]int, nd)
	for {
		size := make([]int, nd)
		for d := 0; d < nd; d++ {
			size[d] = edge
			if origin[d]+size[d] > dims[d] {
				size[d] = dims[d] - origin[d]
			}
		}
		fn(append([]int(nil), origin...), size)
		d := nd - 1
		for d >= 0 {
			origin[d] += edge
			if origin[d] < dims[d] {
				break
			}
			origin[d] = 0
			d--
		}
		if d < 0 {
			return
		}
	}
}
