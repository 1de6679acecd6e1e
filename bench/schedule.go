package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
)

// box is one region request: the half-open box [lo, hi) of stored field
// number field.
type box struct {
	field  int
	lo, hi [3]int
}

func (b box) points() int {
	return (b.hi[0] - b.lo[0]) * (b.hi[1] - b.lo[1]) * (b.hi[2] - b.lo[2])
}

func (b box) query() string {
	j := func(v [3]int) string { return fmt.Sprintf("%d,%d,%d", v[0], v[1], v[2]) }
	return "lo=" + j(b.lo) + "&hi=" + j(b.hi)
}

func (b box) String() string {
	return fmt.Sprintf("field %d [%s)", b.field, strings.ReplaceAll(b.query(), "&", " "))
}

// bricksTouched is how many bricks of edge brick the box intersects.
func (b box) bricksTouched(brick int) int {
	n := 1
	for a := 0; a < 3; a++ {
		n *= (b.hi[a]-1)/brick - b.lo[a]/brick + 1
	}
	return n
}

// scanBoxes draws n boxes of edge 1.5·brick whose offset on every axis is
// brick·k + 1 + U[0, brick/2): the box always straddles exactly one brick
// boundary per axis, so every request intersects exactly 8 bricks and
// decodes the same amount, while the boxes themselves almost never repeat.
func scanBoxes(rng *rand.Rand, n, fields, edge, brick int) []box {
	out := make([]box, n)
	for i := range out {
		b := box{field: rng.Intn(fields)}
		for a := 0; a < 3; a++ {
			k := rng.Intn(edge/brick - 1)
			b.lo[a] = brick*k + 1 + rng.Intn(brick/2)
			b.hi[a] = b.lo[a] + brick + brick/2
		}
		out[i] = b
	}
	return out
}

// hotBoxes draws n boxes of edge brick at offset brick·k + brick/2 per
// axis: 8 bricks each, one brick's worth of points served, and only
// (edge/brick − 1)³ distinct boxes per field, so a warmed cache that holds
// the field serves all of them without a decode.
func hotBoxes(rng *rand.Rand, n, fields, edge, brick int) []box {
	out := make([]box, n)
	for i := range out {
		b := box{field: rng.Intn(fields)}
		for a := 0; a < 3; a++ {
			b.lo[a] = brick*rng.Intn(edge/brick-1) + brick/2
			b.hi[a] = b.lo[a] + brick
		}
		out[i] = b
	}
	return out
}

// matchesBox reports whether body is byte-identical to box b of ref, the
// raw little-endian float32 image of a row-major field of the given cubic
// edge. It compares row by row and allocates nothing.
func matchesBox(body, ref []byte, edge int, b box) bool {
	row := (b.hi[2] - b.lo[2]) * 4
	if len(body) != b.points()*4 {
		return false
	}
	for z := b.lo[0]; z < b.hi[0]; z++ {
		for y := b.lo[1]; y < b.hi[1]; y++ {
			off := ((z*edge+y)*edge + b.lo[2]) * 4
			if !bytes.Equal(body[:row], ref[off:off+row]) {
				return false
			}
			body = body[row:]
		}
	}
	return true
}
