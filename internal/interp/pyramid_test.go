package interp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qoz/internal/quant"
)

// closureDecode is the reference DecodeSweep: LevelPass with one
// dequantizer call per point.
func closureDecode(buf []float32, dims []int, level int, m Method, _ []Range, deq *quant.Dequantizer) {
	LevelPass(buf, dims, level, m, func(_ int, pred float64) float32 { return deq.Next(pred) })
}

// pyramidSettings are the predictor settings the codecs run: QoZ with and
// without anchors (per-level methods, α/β bounds), SZ3 and MGARD.
func pyramidSettings(dims []int, eb float64) map[string]*Pyramid {
	perLevel := []Method{{Cubic, Decreasing}, {Linear, Increasing}, {Quadratic, Decreasing}}
	return map[string]*Pyramid{
		"qoz-anchored":    {Dims: dims, Anchor: 4, Methods: perLevel, EB: eb, Alpha: 1.5, Beta: 3},
		"qoz-anchor-free": {Dims: dims, Methods: perLevel, EB: eb, Alpha: 1.25, Beta: 2},
		"sz3":             {Dims: dims, Methods: []Method{{Cubic, Increasing}}, EB: eb, Alpha: 1, Beta: 1},
		"mgard":           {Dims: dims, Anchor: 8, Methods: []Method{{Linear, Increasing}}, EB: eb, Alpha: 1.15, Beta: 2},
	}
}

// mutated deep-copies segs and applies change to segment i, so the edit
// cannot reach the encoder's shared streams.
func mutated(segs []Segment, i int, change func(*Segment)) []Segment {
	out := make([]Segment, len(segs))
	for j, s := range segs {
		out[j] = Segment{Level: s.Level, Bins: slices.Clone(s.Bins), Literals: slices.Clone(s.Literals)}
	}
	change(&out[i])
	return out
}

// TestPyramidDecodeMatchesEncode runs every codec's setting over 1- to
// 4-dimensional escape-bearing fields and checks, in the level-segmented
// and the single-run layout, that both sweeps decode Encode's
// reconstruction bit for bit, that a segmented prefix stops at every
// level with the coarse grid exact, and that a dropped or added literal
// and a missing or extra bin are refused.
func TestPyramidDecodeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, dims := range [][]int{{37}, {13, 11}, {9, 7, 10}, {5, 6, 4, 7}} {
		data := encodeField(rng, dims)
		for name, p := range pyramidSettings(dims, 1e-2) {
			label := fmt.Sprintf("%s %v", name, dims)
			enc := p.Encode(data)
			top := p.Top()
			if len(enc.Segments) != top+1 || len(enc.Run.Bins) != len(data)-len(enc.Anchors) {
				t.Fatalf("%s: %d segments, %d bins", label, len(enc.Segments), len(enc.Run.Bins))
			}
			layouts := map[string][]Segment{"segmented": enc.Segments, "run": {enc.Run}}
			for layout, segs := range layouts {
				for sname, sweep := range map[string]DecodeSweep{"fused": LevelPassDecodeClip, "closure": closureDecode} {
					got, err := p.Decode(enc.Anchors, segs, 1, nil, sweep)
					if err != nil {
						t.Fatalf("%s %s %s: %v", label, layout, sname, err)
					}
					if i := sameBits(got, enc.Recon); i >= 0 {
						t.Fatalf("%s %s %s: recon[%d] = %v, encoder had %v", label, layout, sname, i, got[i], enc.Recon[i])
					}
				}
			}

			// A prefix holding the seed and levels top..stop decodes the
			// stride-2^(stop-1) grid exactly, and no further.
			for stop := 1; stop <= top+1; stop++ {
				prefix := enc.Segments[:top+2-stop]
				got, err := p.Decode(enc.Anchors, prefix, stop, nil, LevelPassDecodeClip)
				if err != nil {
					t.Fatalf("%s: prefix to level %d: %v", label, stop, err)
				}
				want := slices.Clone(enc.Recon)
				for i := range want {
					if !onGrid(i, dims, 1<<(stop-1)) {
						want[i], got[i] = 0, 0
					}
				}
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("%s: prefix to level %d differs at %d", label, stop, i)
				}
				if stop > 1 {
					if _, err := p.Decode(enc.Anchors, prefix, stop-1, nil, LevelPassDecodeClip); err == nil {
						t.Fatalf("%s: prefix to level %d decoded level %d", label, stop, stop-1)
					}
				}
			}

			// Damage: the first segment holding a literal, and the run.
			withLit := slices.IndexFunc(enc.Segments, func(s Segment) bool { return len(s.Literals) > 0 })
			if withLit < 0 {
				t.Fatalf("%s: no escapes; the field lost its outliers", label)
			}
			damage := map[string]func(*Segment){
				"dropped literal": func(s *Segment) { s.Literals = s.Literals[:len(s.Literals)-1] },
				"added literal":   func(s *Segment) { s.Literals = append(s.Literals, 1) },
				"missing bin":     func(s *Segment) { s.Bins = s.Bins[:len(s.Bins)-1] },
				"extra bin":       func(s *Segment) { s.Bins = append(s.Bins, uint32(quant.DefaultRadius)) },
			}
			for what, change := range damage {
				for layout, segs := range map[string][]Segment{
					"segmented": mutated(enc.Segments, withLit, change),
					"run":       mutated([]Segment{enc.Run}, 0, change),
				} {
					if _, err := p.Decode(enc.Anchors, segs, 1, nil, LevelPassDecodeClip); err == nil {
						t.Errorf("%s %s layout: %s accepted", label, layout, what)
					}
				}
			}
		}
	}
}

// onGrid reports whether flat index i of a field of shape dims has every
// coordinate a multiple of stride.
func onGrid(i int, dims []int, stride int) bool {
	for d := len(dims) - 1; d >= 0; d-- {
		if i%dims[d]%stride != 0 {
			return false
		}
		i /= dims[d]
	}
	return true
}

// randomBox draws a non-empty box inside dims, one Range per dimension,
// small more often than not.
func randomBox(rng *rand.Rand, dims []int) []Range {
	box := make([]Range, len(dims))
	for q, n := range dims {
		lo := rng.Intn(n)
		box[q] = Range{lo, lo + 1 + rng.Intn(min(n-lo, 1+n/2))}
	}
	return box
}

// inBox reports whether flat index i of a field of shape dims lies in box.
func inBox(i int, dims []int, box []Range) bool {
	for d := len(dims) - 1; d >= 0; d-- {
		if c := i % dims[d]; c < box[d].Lo || c >= box[d].Hi {
			return false
		}
		i /= dims[d]
	}
	return true
}

// randomPyramids returns predictor settings whose per-level methods are
// drawn from all of Candidates: QoZ anchored and anchor-free, and the SZ3
// and MGARD shapes under a random method.
func randomPyramids(rng *rand.Rand, dims []int, eb float64) map[string]*Pyramid {
	cands := Candidates(len(dims))
	pick := func(n int) []Method {
		ms := make([]Method, n)
		for i := range ms {
			ms[i] = cands[rng.Intn(len(cands))]
		}
		return ms
	}
	return map[string]*Pyramid{
		"qoz-anchored":    {Dims: dims, Anchor: 4, Methods: pick(2), EB: eb, Alpha: 1.5, Beta: 3},
		"qoz-anchor-free": {Dims: dims, Methods: pick(MaxLevelGlobal(dims)), EB: eb, Alpha: 1.25, Beta: 2},
		"sz3":             {Dims: dims, Methods: pick(1), EB: eb, Alpha: 1, Beta: 1},
		"mgard":           {Dims: dims, Anchor: 8, Methods: pick(1), EB: eb, Alpha: 1.15, Beta: 2},
	}
}

// TestDecodeBoxMatchesCroppedDecode is the clipped decode's oracle. Over
// random boxes of 1- to 4-dimensional fields carrying both escape kinds,
// under every predictor setting with methods drawn from all six
// candidates, in both layouts and at every stop level, a decode asked for
// a box holds a whole decode's values inside it bit for bit — and still
// consumes and checks every symbol, so a damaged stream is refused with a
// box as without one. The boxes predict fewer points than the whole sweep
// in total.
func TestDecodeBoxMatchesCroppedDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var visited, all int
	for _, dims := range [][]int{{37}, {200}, {13, 11}, {33, 40}, {9, 7, 10}, {17, 16, 19}, {5, 6, 4, 7}, {9, 8, 9, 6}} {
		data := encodeField(rng, dims)
		for name, p := range randomPyramids(rng, dims, 1e-3) {
			enc := p.Encode(data)
			top := p.Top()
			for trial := 0; trial < 6; trial++ {
				box := randomBox(rng, dims)
				label := fmt.Sprintf("%s %v methods %v box %v", name, dims, p.Methods, box)
				for layout, segs := range map[string][]Segment{"segmented": enc.Segments, "run": {enc.Run}} {
					got, err := p.Decode(enc.Anchors, segs, 1, box, LevelPassDecodeClip)
					if err != nil {
						t.Fatalf("%s %s: %v", label, layout, err)
					}
					for i := range got {
						if inBox(i, dims, box) && math.Float32bits(got[i]) != math.Float32bits(enc.Recon[i]) {
							t.Fatalf("%s %s: recon[%d] = %v, whole decode %v", label, layout, i, got[i], enc.Recon[i])
						}
					}
				}
				for stop := 2; stop <= top; stop++ {
					got, err := p.Decode(enc.Anchors, enc.Segments[:top+2-stop], stop, box, LevelPassDecodeClip)
					if err != nil {
						t.Fatalf("%s: prefix to level %d: %v", label, stop, err)
					}
					for i := range got {
						if inBox(i, dims, box) && onGrid(i, dims, 1<<(stop-1)) && math.Float32bits(got[i]) != math.Float32bits(enc.Recon[i]) {
							t.Fatalf("%s: prefix to level %d: recon[%d] = %v, whole decode %v", label, stop, i, got[i], enc.Recon[i])
						}
					}
				}
				for what, change := range map[string]func(*Segment){
					"dropped literal": func(s *Segment) { s.Literals = s.Literals[:len(s.Literals)-1] },
					"added literal":   func(s *Segment) { s.Literals = append(s.Literals, 1) },
				} {
					for i, seg := range enc.Segments {
						if len(seg.Literals) == 0 {
							continue
						}
						if _, err := p.Decode(enc.Anchors, mutated(enc.Segments, i, change), 1, box, LevelPassDecodeClip); err == nil {
							t.Fatalf("%s: %s at level %d accepted", label, what, seg.Level)
						}
					}
				}
				cone := p.cone(box, 1)
				nd := len(dims)
				for l := 1; l <= top; l++ {
					clip := cone[(l-1)*nd*nd : l*nd*nd]
					sweep(dims, l, p.method(l), clip, func(_, lo, hi, step, _, _ int) {
						if hi > lo {
							visited += (hi - lo + step - 1) / step
						}
					})
					all += CountLevelPoints(dims, l)
				}
			}
		}
		if _, err := (&Pyramid{Dims: dims, Methods: []Method{{Linear, Increasing}}, EB: 1, Alpha: 1, Beta: 1}).Decode(nil, []Segment{{Level: 0}}, 1, make([]Range, len(dims)), LevelPassDecodeClip); err == nil {
			t.Fatalf("%v: an empty box was accepted", dims)
		}
	}
	if visited*10 > all*9 {
		t.Fatalf("clipped decodes predicted %d of %d points", visited, all)
	}
	t.Logf("clipped decodes predicted %d of %d points (%.1f %%)", visited, all, 100*float64(visited)/float64(all))
}
