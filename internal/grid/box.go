package grid

// Box geometry of a bricked field: the one place that knows how a box meets
// a brick grid, what its level-L grid is, and how a box is stepped through
// two row-major arrays at once. Region reads, level reads, query scans,
// brick cuts and the gateway's stitch are all these three pieces with a
// different thing done per run. Rank is capped at MaxRank, so every
// coordinate lives in a fixed array and nothing here allocates.

import "fmt"

// MaxRank is the highest rank a bricked field can have: the store header
// parser and container.CheckDims admit no more.
const MaxRank = 8

// Coord holds one value per axis; the axes past a field's rank are unused.
type Coord [MaxRank]int

// Sub returns a-b per axis.
func Sub(a, b []int) (c Coord) {
	for i := range a {
		c[i] = a[i] - b[i]
	}
	return c
}

// CheckBox validates the half-open box [lo, hi) against the field extents:
// same rank, inside, not empty. what names the box in the error.
func CheckBox(what string, dims, lo, hi []int) error {
	if len(lo) != len(dims) || len(hi) != len(dims) {
		return fmt.Errorf("%s rank %d/%d, field rank %d", what, len(lo), len(hi), len(dims))
	}
	for i := range dims {
		if lo[i] < 0 || hi[i] > dims[i] || lo[i] >= hi[i] {
			return fmt.Errorf("%s [%v,%v) outside field %v", what, lo, hi, dims)
		}
	}
	return nil
}

// LevelGrid is the points of a box whose coordinates are all multiples of a
// step: Lo is its origin in coarse coordinates (coarse c is full c*step),
// Dims its extents and N its point count.
type LevelGrid struct {
	Lo, Dims Coord
	N        int
}

// LevelOf returns the step-aligned grid of the box [lo, hi); ok is false
// when some axis holds no multiple of step. Step 1 is the box itself.
func LevelOf(lo, hi []int, step int) (g LevelGrid, ok bool) {
	g.N = 1
	for d := range lo {
		g.Lo[d] = (lo[d] + step - 1) / step
		g.Dims[d] = (hi[d]-1)/step + 1 - g.Lo[d]
		if g.Dims[d] <= 0 {
			return g, false
		}
		g.N *= g.Dims[d]
	}
	return g, true
}

// Bricks is a field of extents Dims cut into bricks of shape Brick; Grid is
// the brick count per axis, ceil(Dims/Brick). Bricks are numbered row-major
// over Grid.
type Bricks struct {
	Rank              int
	Dims, Brick, Grid Coord
}

// NewBricks validates a (dims, brick) partition: equal ranks in 1..MaxRank,
// positive brick extents, and positive field extents except that dims[0]
// may be zero (a store created empty along the time axis has no bricks).
func NewBricks(dims, brick []int) (b Bricks, err error) {
	if len(dims) == 0 || len(dims) > MaxRank || len(dims) != len(brick) {
		return b, fmt.Errorf("brick grid of rank-%d dims with rank-%d brick (rank is 1..%d)", len(dims), len(brick), MaxRank)
	}
	b.Rank = len(dims)
	for i := range dims {
		if brick[i] <= 0 || dims[i] < 0 || (dims[i] == 0 && i != 0) {
			return b, fmt.Errorf("invalid brick grid: dims %v, brick %v", dims, brick)
		}
		b.Dims[i], b.Brick[i] = dims[i], brick[i]
		b.Grid[i] = (dims[i] + brick[i] - 1) / brick[i]
	}
	return b, nil
}

// Count returns the number of bricks.
func (b *Bricks) Count() int {
	n := 1
	for _, g := range b.Grid[:b.Rank] {
		n *= g
	}
	return n
}

// Piece is one brick's share of a box: the brick's index, its own box
// [BLo, BHi) clipped to the field, and that box ∩ the box asked for,
// [Lo, Hi).
type Piece struct {
	Index            int
	BLo, BHi, Lo, Hi Coord
}

// Piece returns brick i's share of the box [lo, hi), which must intersect
// it. With the whole field as the box, [Lo, Hi) is the brick's own box.
func (b *Bricks) Piece(i int, lo, hi []int) (p Piece) {
	p.Index = i
	for k := b.Rank - 1; k >= 0; k-- {
		p.BLo[k] = i % b.Grid[k] * b.Brick[k]
		p.BHi[k] = min(p.BLo[k]+b.Brick[k], b.Dims[k])
		p.Lo[k], p.Hi[k] = max(lo[k], p.BLo[k]), min(hi[k], p.BHi[k])
		i /= b.Grid[k]
	}
	return p
}

// Box returns brick i's own box, clipped to the field.
func (b *Bricks) Box(i int) (lo, hi Coord) {
	var origin Coord
	p := b.Piece(i, origin[:], b.Dims[:])
	return p.BLo, p.BHi
}

// Pieces iterates over the bricks a validated box [lo, hi) intersects, in
// brick order:
//
//	it := b.Pieces(lo, hi)
//	for it.Next() { use(it.Piece) }
//
// Copy it.Piece by value; a pointer to it moves the iterator to the heap.
// Declared in the for statement itself, the iterator would be copied afresh
// every iteration (each gets its own loop variable).
type Pieces struct {
	Piece
	b             *Bricks
	lo, hi        []int
	cLo, cHi, cur Coord
	started       bool
}

// Pieces starts the iteration; b, lo and hi must outlive it.
func (b *Bricks) Pieces(lo, hi []int) Pieces {
	it := Pieces{b: b, lo: lo, hi: hi}
	for i := range lo {
		it.cLo[i] = lo[i] / b.Brick[i]
		it.cHi[i] = (hi[i]-1)/b.Brick[i] + 1
	}
	it.cur = it.cLo
	return it
}

// Next advances to the next intersecting brick.
func (it *Pieces) Next() bool {
	b := it.b
	if it.started {
		k := b.Rank - 1
		for ; k >= 0; k-- {
			it.cur[k]++
			if it.cur[k] < it.cHi[k] {
				break
			}
			it.cur[k] = it.cLo[k]
		}
		if k < 0 {
			return false
		}
	}
	it.started = true
	i := 0
	for k := 0; k < b.Rank; k++ {
		i = i*b.Grid[k] + it.cur[k]
	}
	it.Piece = b.Piece(i, it.lo, it.hi)
	return true
}

// Walker steps a box through two row-major arrays at once, one innermost
// run at a time: A and B are the run's first offsets in the two arrays and
// Run its length in points. Points of the run are A, A+step, ... in the
// first array and B, B+1, ... in the second.
//
//	w := grid.Walk(...)
//	for w.Next() { copy(b[w.B:w.B+w.Run], a[w.A:]) }
//
// As with Pieces, declare the walker before its for statement.
type Walker struct {
	A, B, Run int
	// The axis above the innermost is the one Next steps nearly every time,
	// so it is kept apart from the carry loop over the axes above it: left
	// counts the rows still to come in the current plane of rows.
	left, rows, rowA, rowB int
	planes                 int // axes above that one
	size, sa, sb, ix       Coord
}

// Walk positions a walker on the box of the given size (positive on every
// axis) whose origin is aLo in a row-major array of shape aDims, taking
// every step-th point per axis from there, and bLo in a dense row-major
// array of shape bDims.
func Walk(size, aDims, aLo []int, step int, bDims, bLo []int) Walker {
	n := len(size)
	w := Walker{Run: size[n-1], rows: 1, planes: max(n-2, 0)}
	sa, sb := 1, 1
	for k := n - 1; k >= 0; k-- {
		w.size[k], w.sa[k], w.sb[k] = size[k], sa*step, sb
		w.A += aLo[k] * sa
		w.B += bLo[k] * sb
		sa *= aDims[k]
		sb *= bDims[k]
	}
	if n > 1 {
		w.rows, w.rowA, w.rowB = size[n-2], w.sa[n-2], w.sb[n-2]
	}
	// Next's first step lands on the first row.
	w.left = w.rows
	w.A -= w.rowA
	w.B -= w.rowB
	return w
}

// Next advances to the next run; false once the box is exhausted.
func (w *Walker) Next() bool {
	if w.left == 0 {
		return w.nextPlane()
	}
	w.left--
	w.A += w.rowA
	w.B += w.rowB
	return true
}

// nextPlane moves from the last row of one plane of rows to the first row
// of the next, carrying through the axes above.
func (w *Walker) nextPlane() bool {
	w.A -= (w.rows - 1) * w.rowA
	w.B -= (w.rows - 1) * w.rowB
	for k := w.planes - 1; k >= 0; k-- {
		w.ix[k]++
		w.A += w.sa[k]
		w.B += w.sb[k]
		if w.ix[k] < w.size[k] {
			w.left = w.rows - 1
			return true
		}
		w.A -= w.size[k] * w.sa[k]
		w.B -= w.size[k] * w.sb[k]
		w.ix[k] = 0
	}
	return false
}
