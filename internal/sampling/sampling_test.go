package sampling

import (
	"math"
	"testing"
)

func TestNewPlanRate(t *testing.T) {
	// Paper example: 2D, block 4, stride 10 -> 16% rate.
	p := Plan{Block: 4, Stride: 10}
	if got := p.Rate(2); math.Abs(got-0.16) > 1e-12 {
		t.Fatalf("Rate = %v, want 0.16", got)
	}
	// NewPlan inverts Rate approximately.
	p2 := NewPlan(16, 3, 0.005)
	r := p2.Rate(3)
	if r < 0.002 || r > 0.01 {
		t.Fatalf("NewPlan rate = %v, want ≈ 0.005", r)
	}
	if p2.Stride < p2.Block {
		t.Fatalf("stride %d < block %d", p2.Stride, p2.Block)
	}
}

func TestNewPlanBadRate(t *testing.T) {
	p := NewPlan(8, 2, 0)
	if p.Rate(2) > 0.02 {
		t.Fatalf("fallback rate = %v, want ~0.01", p.Rate(2))
	}
}

func TestPlanForDimsEnsuresEnoughBlocks(t *testing.T) {
	// A 96³ grid at 0.5% with block 17 would give a single corner block
	// under the naive stride; PlanForDims must shrink the stride until at
	// least minBlocks fit.
	p := PlanForDims(17, []int{96, 96, 96}, 0.005)
	if got := len(p.Origins([]int{96, 96, 96})); got < minBlocks {
		t.Fatalf("got %d blocks, want >= %d", got, minBlocks)
	}
	if p.Stride < p.Block {
		t.Fatalf("stride %d < block %d", p.Stride, p.Block)
	}
	// Large grids keep the rate-derived stride (no shrinking needed).
	p2 := PlanForDims(17, []int{512, 512, 512}, 0.005)
	naive := NewPlan(17, 3, 0.005)
	if p2.Stride != naive.Stride {
		t.Fatalf("large grid stride %d, want naive %d", p2.Stride, naive.Stride)
	}
}

func TestPlanForDimsTinyInput(t *testing.T) {
	// Inputs smaller than one block cannot reach minBlocks; the plan must
	// still terminate with stride == block.
	p := PlanForDims(17, []int{8, 8}, 0.01)
	if p.Stride < p.Block {
		t.Fatalf("stride %d < block %d", p.Stride, p.Block)
	}
	if got := len(p.Origins([]int{8, 8})); got != 1 {
		t.Fatalf("tiny input gave %d blocks", got)
	}
}

func TestOriginsFullBlocks(t *testing.T) {
	p := Plan{Block: 4, Stride: 8}
	origins := p.Origins([]int{16, 16})
	// Positions 0 and 8 per dim -> 4 blocks.
	if len(origins) != 4 {
		t.Fatalf("origins = %v, want 4 blocks", origins)
	}
	for _, o := range origins {
		if o[0]+4 > 16 || o[1]+4 > 16 {
			t.Fatalf("origin %v leaves block out of range", o)
		}
	}
}

func TestOriginsTinyInput(t *testing.T) {
	p := Plan{Block: 8, Stride: 16}
	origins := p.Origins([]int{5, 5})
	if len(origins) != 1 || origins[0][0] != 0 || origins[0][1] != 0 {
		t.Fatalf("tiny input origins = %v, want [[0 0]]", origins)
	}
}

func TestExtractValues(t *testing.T) {
	dims := []int{6, 6}
	data := make([]float32, 36)
	for i := range data {
		data[i] = float32(i)
	}
	p := Plan{Block: 2, Stride: 4}
	blocks := p.Extract(data, dims)
	// Origins: (0,0),(0,4),(4,0),(4,4).
	if len(blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(blocks))
	}
	b := blocks[1] // origin (0,4)
	want := []float32{4, 5, 10, 11}
	for i := range want {
		if b.Data[i] != want[i] {
			t.Fatalf("block data = %v, want %v", b.Data, want)
		}
	}
}

func TestExtractClipped(t *testing.T) {
	dims := []int{3, 3}
	data := make([]float32, 9)
	p := Plan{Block: 8, Stride: 8}
	blocks := p.Extract(data, dims)
	if len(blocks) != 1 {
		t.Fatalf("got %d blocks", len(blocks))
	}
	if blocks[0].Dims[0] != 3 || blocks[0].Dims[1] != 3 {
		t.Fatalf("clipped block dims = %v", blocks[0].Dims)
	}
}

func TestExtract3D(t *testing.T) {
	dims := []int{8, 8, 8}
	data := make([]float32, 512)
	for i := range data {
		data[i] = float32(i % 97)
	}
	p := Plan{Block: 4, Stride: 4}
	blocks := p.Extract(data, dims)
	if len(blocks) != 8 {
		t.Fatalf("got %d blocks, want 8", len(blocks))
	}
	total := 0
	for _, b := range blocks {
		total += len(b.Data)
	}
	if total != 512 {
		t.Fatalf("blocks cover %d points, want 512", total)
	}
}

func TestCountMatchesOrigins(t *testing.T) {
	for _, dims := range [][]int{{5000}, {3}, {150, 130}, {64, 64, 64}, {70, 33, 50}, {9, 14, 11, 13}, {17, 17, 200}} {
		for _, p := range []Plan{{Block: 17, Stride: 17}, {Block: 17, Stride: 40}, {Block: 65, Stride: 300}, {Block: 4, Stride: 5}} {
			if got, want := p.count(dims), len(p.Origins(dims)); got != want {
				t.Errorf("plan %+v on %v: count %d, %d origins", p, dims, got, want)
			}
		}
	}
}

// Rate reports the fraction of points the plan samples in nd dimensions.
func (p Plan) Rate(nd int) float64 {
	return math.Pow(float64(p.Block)/float64(p.Stride), float64(nd))
}
