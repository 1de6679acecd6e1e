// Package sampling implements the uniform block-based sampling of paper
// §VI-A: fixed-size blocks taken on a fixed stride so that the sample
// captures both local patterns and the global picture, with the sampling
// rate (block volume / stride volume) controlled by the caller.
package sampling

import (
	"math"

	"qoz/internal/grid"
)

// Plan describes a uniform block sampling: blocks of edge Block starting at
// multiples of Stride in every dimension.
type Plan struct {
	Block  int
	Stride int
}

// NewPlan chooses the stride so that the fraction of sampled points is
// approximately rate for nd-dimensional data: (block/stride)^nd = rate.
func NewPlan(block, nd int, rate float64) Plan {
	if rate <= 0 || rate > 1 {
		rate = 0.01
	}
	stride := int(math.Round(float64(block) / math.Pow(rate, 1/float64(nd))))
	if stride < block {
		stride = block
	}
	return Plan{Block: block, Stride: stride}
}

// minBlocks is the smallest sample-block count PlanForDims aims for: a
// single block (typically at the array corner) is not a usable
// representative of the whole field, which matters on inputs much smaller
// than the paper's (their 47M-point RTM yields dozens of blocks at 0.5%).
const minBlocks = 8

// PlanForDims is NewPlan adjusted to the actual array shape: if the rate-
// derived stride would produce fewer than minBlocks sample blocks, the
// stride shrinks (down to the block size) until enough blocks fit. Inputs
// too small for that simply sample what they can.
func PlanForDims(block int, dims []int, rate float64) Plan {
	p := NewPlan(block, len(dims), rate)
	for p.Stride > p.Block && p.count(dims) < minBlocks {
		next := p.Stride * 3 / 4
		if next < p.Block {
			next = p.Block
		}
		p.Stride = next
	}
	return p
}

// along returns how many sample blocks the plan places along a dimension
// of n points. A dimension shorter than one block still gets one (clipped)
// block, so that tiny inputs produce a sample.
func (p Plan) along(n int) int {
	if n < p.Block {
		return 1
	}
	return (n-p.Block)/p.Stride + 1
}

// count is len(p.Origins(dims)) without the origins.
func (p Plan) count(dims []int) int {
	total := 1
	for _, n := range dims {
		total *= p.along(n)
	}
	return total
}

// Origins lists the origins of all fully-contained sample blocks, in
// row-major order. If the grid is smaller than one block along any
// dimension, a single block at the origin (clipped by the caller) is
// returned so that tiny inputs still produce a sample.
func (p Plan) Origins(dims []int) [][]int {
	nd := len(dims)
	counts := make([]int, nd)
	for d, n := range dims {
		counts[d] = p.along(n)
	}
	out := make([][]int, 0, p.count(dims))
	coord := make([]int, nd)
	for {
		origin := make([]int, nd)
		for d := 0; d < nd; d++ {
			origin[d] = coord[d] * p.Stride
		}
		out = append(out, origin)
		d := nd - 1
		for d >= 0 {
			coord[d]++
			if coord[d] < counts[d] {
				break
			}
			coord[d] = 0
			d--
		}
		if d < 0 {
			return out
		}
	}
}

// Extract copies the sample blocks out of a flat row-major field. Blocks
// are clipped at the boundary (only degenerate inputs produce clipped
// blocks; regular origins are fully contained by construction).
func (p Plan) Extract(data []float32, dims []int) []Block {
	origins := p.Origins(dims)
	blocks := make([]Block, 0, len(origins))
	for _, origin := range origins {
		size := make([]int, len(dims))
		for d, n := range dims {
			size[d] = min(origin[d]+p.Block, n) - origin[d]
		}
		blocks = append(blocks, cut(data, dims, origin, size))
	}
	return blocks
}

// CenterBlock copies the block of edge at most edge from the middle of a
// flat row-major field: the single trial block of SZ3-style selection.
func CenterBlock(data []float32, dims []int, edge int) Block {
	origin := make([]int, len(dims))
	size := make([]int, len(dims))
	for d, n := range dims {
		size[d] = min(n, edge)
		origin[d] = (n - size[d]) / 2
	}
	return cut(data, dims, origin, size)
}

// cut copies the block of extent size at origin out of a flat row-major
// field of shape dims.
func cut(data []float32, dims, origin, size []int) Block {
	n := 1
	for _, s := range size {
		n *= s
	}
	vals := make([]float32, n)
	var zero grid.Coord
	w := grid.Walk(size, dims, origin, 1, size, zero[:len(size)])
	for w.Next() {
		copy(vals[w.B:w.B+w.Run], data[w.A:])
	}
	return Block{Origin: origin, Dims: size, Data: vals}
}

// Block is one extracted sample block.
type Block struct {
	Origin []int
	Dims   []int
	Data   []float32
}
