package grid

import "testing"

// FuzzBoxWalk is the one oracle for the one box kernel. Its input picks a
// rank 1..MaxRank, field and brick extents, a box and a level step; it then
// checks, against index arithmetic done per point with no carry loop, that
//
//   - Pieces yields exactly the bricks the box meets, in brick order, each
//     with its clipped box and box ∩ brick;
//   - the pieces' level grids partition the box's level grid: every point
//     is visited exactly once;
//   - a Walker over a piece visits its points in row-major order, at the
//     offsets the field (stepped) and the box's dense level grid hold them.
func FuzzBoxWalk(f *testing.F) {
	// seed encodes a case the way the target decodes it (extents up to 8).
	seed := func(stepLog int, dims, brick, lo, hi []int) {
		in := []byte{byte(len(dims) - 1), byte(stepLog)}
		for i := range dims {
			in = append(in, byte(dims[i]-1), byte(brick[i]-1), byte(lo[i]), byte(hi[i]-1))
		}
		f.Add(in)
	}
	seed(0, []int{8}, []int{3}, []int{2}, []int{7})
	seed(0, []int{8, 8}, []int{2, 2}, []int{2, 4}, []int{8, 8})                         // rows of bricks that start past brick 0
	seed(0, []int{7, 6, 5}, []int{3, 4, 2}, []int{1, 0, 1}, []int{7, 5, 5})             // ragged edge bricks
	seed(1, []int{8, 8, 8}, []int{8, 5, 8}, []int{1, 2, 0}, []int{8, 8, 5})             // pieces several level points wide
	seed(2, []int{8, 8, 8}, []int{8, 8, 8}, []int{0, 4, 0}, []int{8, 5, 5})             // one brick, an axis of one
	seed(0, []int{4, 4, 4, 4}, []int{2, 2, 2, 2}, []int{1, 2, 3, 0}, []int{2, 3, 4, 1}) // one point
	seed(0, []int{4, 4, 4, 4}, []int{2, 2, 2, 2}, []int{0, 1, 0, 1}, []int{4, 4, 3, 4}) // carries through two plane axes
	seed(3, []int{5, 3}, []int{2, 2}, []int{1, 1}, []int{4, 3})                         // no level point
	seed(1, []int{2, 2, 2, 2, 2, 2, 3, 5}, []int{1, 2, 1, 2, 1, 2, 2, 3},
		make([]int, 8), []int{2, 2, 2, 2, 2, 2, 3, 5}) // MaxRank
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		nd := 1 + next()%MaxRank
		step := 1 << (next() % 4)
		dims, brick, lo, hi := make([]int, nd), make([]int, nd), make([]int, nd), make([]int, nd)
		points := 1
		for i := range dims {
			dims[i] = 1 + next()%min(8, 4096/points)
			points *= dims[i]
			brick[i] = 1 + next()%dims[i]
			a, b := next()%dims[i], next()%dims[i]
			lo[i], hi[i] = min(a, b), max(a, b)+1
		}
		bk, err := NewBricks(dims, brick)
		if err != nil {
			t.Fatalf("NewBricks(%v, %v): %v", dims, brick, err)
		}
		if err := CheckBox("box", dims, lo, hi); err != nil {
			t.Fatal(err)
		}
		og, ok := LevelOf(lo, hi, step)
		want := true // the level grid, by counting
		for i := range dims {
			n := 0
			for c := lo[i]; c < hi[i]; c++ {
				if c%step == 0 {
					n++
				}
			}
			want = want && n > 0
			if ok && (og.Dims[i] != n || og.Lo[i]*step < lo[i] || (og.Lo[i]-1)*step >= lo[i]) {
				t.Fatalf("LevelOf(%v, %v, %d) = %+v; axis %d holds %d", lo, hi, step, og, i, n)
			}
		}
		if ok != want {
			t.Fatalf("LevelOf(%v, %v, %d) reports ok=%v, want %v", lo, hi, step, ok, want)
		}
		if !ok {
			return
		}
		// index is the per-point oracle: point n of a row-major grid of shape
		// size, as an offset into an array of shape arr when the grid's origin
		// sits at org and its points are spacing apart.
		index := func(n int, size, arr, org []int, spacing int) int {
			off, stride := 0, 1
			for k := nd - 1; k >= 0; k-- {
				off += (org[k] + n%size[k]*spacing) * stride
				n /= size[k]
				stride *= arr[k]
			}
			return off
		}
		painted := make([]int, og.N)
		prev := -1
		met := 0
		it := bk.Pieces(lo, hi)
		for it.Next() {
			p := it.Piece
			met++
			if p.Index <= prev || p.Index >= bk.Count() {
				t.Fatalf("piece index %d after %d of %d", p.Index, prev, bk.Count())
			}
			prev = p.Index
			rem := p.Index
			for k := nd - 1; k >= 0; k-- {
				g := (dims[k] + brick[k] - 1) / brick[k]
				blo := rem % g * brick[k]
				bhi := min(blo+brick[k], dims[k])
				rem /= g
				if p.BLo[k] != blo || p.BHi[k] != bhi || p.Lo[k] != max(lo[k], blo) || p.Hi[k] != min(hi[k], bhi) || p.Lo[k] >= p.Hi[k] {
					t.Fatalf("piece %d axis %d: %+v, brick [%d,%d) of box [%v,%v)", p.Index, k, p, blo, bhi, lo, hi)
				}
			}
			if q := bk.Piece(p.Index, lo, hi); q != p {
				t.Fatalf("Piece(%d) = %+v, iterator gave %+v", p.Index, q, p)
			}
			pg, ok := LevelOf(p.Lo[:nd], p.Hi[:nd], step)
			if !ok {
				continue
			}
			fieldLo := make([]int, nd) // the piece's first level point, in field coordinates
			for k := range fieldLo {
				fieldLo[k] = pg.Lo[k] * step
			}
			inBox := Sub(pg.Lo[:nd], og.Lo[:nd])
			n := 0
			w := Walk(pg.Dims[:nd], dims, fieldLo, step, og.Dims[:nd], inBox[:nd])
			for w.Next() {
				if w.Run != pg.Dims[nd-1] {
					t.Fatalf("run of %d over an innermost extent of %d", w.Run, pg.Dims[nd-1])
				}
				for j := 0; j < w.Run; j, n = j+1, n+1 {
					wantA := index(n, pg.Dims[:nd], dims, fieldLo, step)
					wantB := index(n, pg.Dims[:nd], og.Dims[:nd], inBox[:nd], 1)
					if w.A+j*step != wantA || w.B+j != wantB {
						t.Fatalf("piece %d point %d: walker at (%d, %d), oracle (%d, %d)", p.Index, n, w.A+j*step, w.B+j, wantA, wantB)
					}
					painted[wantB]++
				}
			}
			if n != pg.N {
				t.Fatalf("piece %d: walker visited %d of %d points", p.Index, n, pg.N)
			}
		}
		for i, c := range painted {
			if c != 1 {
				t.Fatalf("dims %v brick %v box [%v,%v) step %d: level point %d visited %d times", dims, brick, lo, hi, step, i, c)
			}
		}
		meets := 1 // bricks the box meets, per axis
		for k := range dims {
			meets *= (hi[k]-1)/brick[k] - lo[k]/brick[k] + 1
		}
		if met != meets {
			t.Fatalf("box [%v,%v) met %d bricks, want %d", lo, hi, met, meets)
		}
	})
}
