package grid

import "testing"

// TestEachTileCoversFieldOnce checks, on 1-D to 3-D fields whose last tile
// is ragged, that the tiles cover every point exactly once, that each
// tile's size is its edge clipped to the field, and that origins come in
// row-major order.
func TestEachTileCoversFieldOnce(t *testing.T) {
	for _, c := range []struct {
		dims []int
		edge int
	}{
		{[]int{10}, 4},
		{[]int{5, 7}, 3},
		{[]int{7, 6, 5}, 4},
		{[]int{1, 9, 2}, 3},
	} {
		strides := StridesOf(c.dims)
		covered := make([]int, strides[0]*c.dims[0])
		prev, tiles := -1, 0
		EachTile(c.dims, c.edge, func(origin, size []int) {
			tiles++
			if at := Dot(origin, strides); at <= prev {
				t.Fatalf("dims %v: tile at %v (offset %d) after offset %d", c.dims, origin, at, prev)
			} else {
				prev = at
			}
			n := 1
			for d := range size {
				if origin[d]%c.edge != 0 || size[d] != min(c.edge, c.dims[d]-origin[d]) {
					t.Fatalf("dims %v edge %d: tile at %v of size %v", c.dims, c.edge, origin, size)
				}
				n *= size[d]
			}
			coord := make([]int, len(size))
			for i := range n {
				for d, rem := len(size)-1, i; d >= 0; d-- {
					coord[d] = origin[d] + rem%size[d]
					rem /= size[d]
				}
				covered[Dot(coord, strides)]++
			}
		})
		want := 1
		for _, n := range c.dims {
			want *= (n + c.edge - 1) / c.edge
		}
		if tiles != want {
			t.Errorf("dims %v edge %d: %d tiles, want %d", c.dims, c.edge, tiles, want)
		}
		for i, k := range covered {
			if k != 1 {
				t.Fatalf("dims %v edge %d: point %d covered %d times", c.dims, c.edge, i, k)
			}
		}
	}
}
