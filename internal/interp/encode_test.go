package interp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qoz/internal/quant"
)

// encodeField builds a field that drives every branch of the quantizer: a
// smooth signal (regular bins), a patch lifted to magnitudes whose float32
// spacing is comparable to the bound, where rounding the reconstruction
// breaks it (the second escape), and NaN/±Inf/1e30 outliers (the first
// escape, and NaN predictions for their neighbours).
func encodeField(rng *rand.Rand, dims []int) []float32 {
	n := 1
	for _, d := range dims {
		n *= d
	}
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(math.Sin(float64(i)/9) + 0.01*rng.NormFloat64())
	}
	for i := n / 3; i < n/3+n/8; i++ {
		data[i] = float32(20000 + 0.01*rng.NormFloat64())
	}
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e30} {
		data[rng.Intn(n)] = v
	}
	return data
}

func sameBits(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// encodeShapes is the encode differential's shape table: extents that hit
// each boundary stencil (n = s+1, 2s, 3s, 3s+1, 4s+1 for s = 1, 2, 4).
var encodeShapes = [][]int{
	{2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {12}, {13}, {17}, {65}, {1000},
	{2, 2}, {3, 5}, {13, 17}, {33, 129}, {64, 1}, {9, 12},
	{32, 32, 32}, {7, 9, 11}, {64, 1, 17}, {1, 1, 5}, {17, 13, 12},
	{5, 6, 7, 8}, {3, 3, 3, 3}, {9, 2, 5, 4},
}

// highDimShapes extends the shape tables past the four dimensions any
// codec produces, up to the walker's maxFlatDims: extents of 1, 2 and 3
// keep the point counts small while every dimension still takes a turn as
// the active one.
var highDimShapes = [][]int{
	{3, 2, 3, 2, 5}, {2, 3, 1, 3, 2, 3}, {2, 2, 3, 2, 1, 2, 3}, {2, 1, 2, 3, 2, 2, 1, 3},
}

// TestLevelPassEncodeMatchesLevelPass pins the fused encode sweep to the
// reference (LevelPass + Quantizer.Quantize): bins, literals and the
// reconstruction bit-identical after every level of a full cascade,
// anchored and anchor-free, for every method, over encodeShapes. The
// fused path's buffer starts out as NaN wherever the seed stage does not
// write, which also proves it reads nothing it has not produced — the
// property that lets callers hand it dirty pooled buffers.
//
// The L1 kernel rides the same cascade: LevelPassEncodeL1's running sum
// must equal the closure's sum += |pred − data| bit for bit after every
// level, with the streams of LevelPassEncode and the reconstruction of
// quant.EstimateOnly. A non-finite sample turns the sum into NaN for the
// rest of the cascade, so each field runs a second time with its outliers
// flattened, where every sum is finite.
func TestLevelPassEncodeMatchesLevelPass(t *testing.T) {
	shapes := slices.Concat(encodeShapes, highDimShapes)
	rng := rand.New(rand.NewSource(7))
	for _, dims := range shapes {
		outliers := encodeField(rng, dims)
		finite := append([]float32(nil), outliers...)
		for i, v := range finite {
			if math.IsNaN(float64(v)) || math.Abs(float64(v)) > 1e6 {
				finite[i] = 0
			}
		}
		for pass, data := range [][]float32{outliers, finite} {
			for _, anchor := range []int{0, 4, 8} {
				for _, m := range Candidates(len(dims)) {
					ref := make([]float32, len(data))
					fast := make([]float32, len(data))
					for i := range fast {
						fast[i] = float32(math.NaN())
					}
					fastL1 := append([]float32(nil), fast...)
					qRef, qFast, qL1 := quant.New(1e-3, 0), quant.New(1e-3, 0), quant.New(1e-3, 0)
					var sumRef, sumL1 float64
					maxL := MaxLevelGlobal(dims)
					if anchor > 0 {
						maxL = MaxLevelAnchored(anchor)
						for _, idx := range AnchorIndices(dims, anchor) {
							ref[idx], fast[idx], fastL1[idx] = data[idx], data[idx], data[idx]
						}
					} else {
						ref[0] = qRef.Quantize(data[0], 0)
						fast[0] = qFast.Quantize(data[0], 0)
						fastL1[0] = qL1.Quantize(data[0], 0)
					}
					for level := maxL; level >= 1; level-- {
						// Level-wise bounds, as the tuner sets them.
						eb := 1e-3 / float64(level)
						qRef.SetBound(eb)
						qFast.SetBound(eb)
						qL1.SetBound(eb)
						LevelPass(ref, dims, level, m, func(idx int, pred float64) float32 {
							sumRef += math.Abs(pred - float64(data[idx]))
							r := qRef.Quantize(data[idx], pred)
							if est, _ := quant.EstimateOnly(data[idx], pred, eb, quant.DefaultRadius); math.Float32bits(est) != math.Float32bits(r) {
								t.Fatalf("dims=%v level=%d: EstimateOnly and Quantize disagree at %d", dims, level, idx)
							}
							return r
						})
						LevelPassEncode(fast, data, dims, level, m, qFast)
						sumL1 = LevelPassEncodeL1(fastL1, data, dims, level, m, qL1, sumL1)
						if math.Float64bits(sumL1) != math.Float64bits(sumRef) {
							t.Fatalf("dims=%v anchor=%d m=%v level=%d: L1 sum %v (%x), want %v (%x)", dims, anchor, m, level,
								sumL1, math.Float64bits(sumL1), sumRef, math.Float64bits(sumRef))
						}
						for name, q := range map[string]*quant.Quantizer{"encode": qFast, "L1": qL1} {
							if len(qRef.Bins) != len(q.Bins) {
								t.Fatalf("dims=%v anchor=%d m=%v level=%d %s: %d bins, want %d",
									dims, anchor, m, level, name, len(q.Bins), len(qRef.Bins))
							}
							for i := range qRef.Bins {
								if qRef.Bins[i] != q.Bins[i] {
									t.Fatalf("dims=%v anchor=%d m=%v level=%d %s: bin[%d] = %d, want %d",
										dims, anchor, m, level, name, i, q.Bins[i], qRef.Bins[i])
								}
							}
							if i := sameBits(qRef.Literals, q.Literals); i >= 0 {
								t.Fatalf("dims=%v anchor=%d m=%v level=%d %s: literals diverge at %d (%d vs %d)",
									dims, anchor, m, level, name, i, len(q.Literals), len(qRef.Literals))
							}
						}
					}
					for name, got := range map[string][]float32{"encode": fast, "L1": fastL1} {
						if i := sameBits(ref, got); i >= 0 {
							t.Fatalf("dims=%v anchor=%d m=%v %s: recon[%d] = %x, want %x", dims, anchor, m, name, i,
								math.Float32bits(got[i]), math.Float32bits(ref[i]))
						}
					}
					if pass == 1 && math.IsNaN(sumRef) {
						t.Fatalf("dims=%v: L1 sum over the flattened field is NaN; the test lost its finite-sum coverage", dims)
					}
					if pass == 0 && len(qRef.Literals) == 0 {
						t.Fatalf("dims=%v: field produced no escapes; the test lost its escape coverage", dims)
					}
				}
			}
		}
	}
}

// TestLevelPassEncodeHitsBothEscapes guards the test field itself: the
// differential above means little unless both escape kinds occur.
func TestLevelPassEncodeHitsBothEscapes(t *testing.T) {
	dims := []int{32, 32, 32}
	data := encodeField(rand.New(rand.NewSource(7)), dims)
	var radiusEsc, roundEsc int
	recon := append([]float32(nil), data...)
	LevelPass(recon, dims, 1, Method{Cubic, Decreasing}, func(idx int, pred float64) float32 {
		scaled := (float64(data[idx]) - pred) / 2e-3
		r, esc := quant.EstimateOnly(data[idx], pred, 1e-3, quant.DefaultRadius)
		if esc {
			if math.IsNaN(scaled) || math.Abs(scaled) > quant.DefaultRadius-1 {
				radiusEsc++
			} else {
				roundEsc++
			}
		}
		return r
	})
	if radiusEsc == 0 || roundEsc == 0 {
		t.Fatalf("escapes: %d out-of-radius, %d float32-rounding; want both > 0", radiusEsc, roundEsc)
	}
}

// roundingEdges lists the inputs on which a rounding shortcut classically
// goes wrong: exact ties, the doubles adjacent to ties (0.49999999999999994
// is where floor(x+0.5) fails), signed zeros, denormals, and the edge of
// the quantizer's radius.
func roundingEdges() []float64 {
	edges := []float64{0, math.Copysign(0, -1), 5e-324, 1e-300, 0.25, 0.75, 1, 32767, 32766.5, 32767.5, 1 << 30}
	for k := 0.0; k < 70000; k = k*2 + 1 {
		tie := k + 0.5
		edges = append(edges, tie, math.Nextafter(tie, 0), math.Nextafter(tie, math.Inf(1)))
	}
	for _, e := range edges {
		edges = append(edges, -e)
	}
	return edges
}

// TestRoundHalfAwayMatchesMathRound is the differential the fused
// quantizer's rounding rests on: identical to math.Round over the edge
// cases and a million random values spanning the radius.
func TestRoundHalfAwayMatchesMathRound(t *testing.T) {
	check := func(x float64) {
		if got, want := roundHalfAway(x), int32(math.Round(x)); got != want {
			t.Fatalf("roundHalfAway(%v) = %d, math.Round gives %d", x, got, want)
		}
	}
	for _, x := range roundingEdges() {
		check(x)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1_000_000; i++ {
		x := (rng.Float64()*2 - 1) * math.Pow(2, float64(rng.Intn(40)-24))
		check(x)
		check(math.Round(x*2) / 2) // exact ties and integers
	}
}

// TestQuantRunMatchesQuantize holds the fused quantizer to
// Quantizer.Quantize point by point on adversarial (value, prediction,
// bound) triples: scaled residuals landing on and beside ties, on the
// radius limit, non-finite values and predictions, and bounds from
// denormal to huge.
func TestQuantRunMatchesQuantize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := roundingEdges()
	nan, inf := math.NaN(), math.Inf(1)
	bounds := []float64{0.5, 1e-3, 1e-3 / 3, 1e-12, 5e-324, 1e30, 0.37}
	var vals []float32
	var preds []float64
	for _, eb := range bounds {
		vals, preds = vals[:0], preds[:0]
		for _, e := range edges {
			// v − pred = e·2eb, placed around several magnitudes of v.
			for _, v := range []float32{0, 1, -3.75, 20000, 1e-30, float32(rng.NormFloat64())} {
				vals = append(vals, v)
				preds = append(preds, float64(v)-e*2*eb)
			}
		}
		for _, v := range []float64{nan, inf, -inf, 1e30, 0} {
			for _, p := range []float64{nan, inf, -inf, 1e300, 0} {
				vals = append(vals, float32(v))
				preds = append(preds, p)
			}
		}
		for i := 0; i < 20000; i++ {
			v := float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-3)))
			vals = append(vals, v)
			preds = append(preds, float64(v)+rng.NormFloat64()*eb*math.Pow(10, float64(rng.Intn(7)-1)))
		}

		ref := quant.New(eb, 0)
		want := make([]float32, len(vals))
		for i, v := range vals {
			want[i] = ref.Quantize(v, preds[i])
		}
		st := eqState{data: vals, bins: make([]uint32, len(vals)),
			radius: quant.DefaultRadius, limit: quant.DefaultRadius - 1, eb: eb, twoEB: 2 * eb}
		got := make([]float32, len(vals))
		for lo := 0; lo < len(vals); lo += predChunk {
			st.quantRun(got, lo, 1, preds[lo:min(lo+predChunk, len(vals))])
		}
		for i := range vals {
			if st.bins[i] != ref.Bins[i] || math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("eb=%g v=%g pred=%g: fused (bin %d, recon %x), Quantize (bin %d, recon %x)", eb, vals[i], preds[i],
					st.bins[i], math.Float32bits(got[i]), ref.Bins[i], math.Float32bits(want[i]))
			}
		}
		if i := sameBits(ref.Literals, st.lits); i >= 0 {
			t.Fatalf("eb=%g: literals diverge at %d", eb, i)
		}
	}
}

// benchEncodeSweep times one level-1 sweep (seven eighths of a field's
// points) over a 64^3 brick with a quantizing commit.
func benchEncodeSweep(b *testing.B, fused bool) {
	dims := []int{64, 64, 64}
	n := 64 * 64 * 64
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(math.Sin(float64(i)/700) + 0.002*rng.NormFloat64())
	}
	recon := append([]float32(nil), data...)
	m := Method{Cubic, Decreasing}
	count := CountLevelPoints(dims, 1)
	q := quant.New(1e-3, 0)
	q.Bins = make([]uint32, 0, count)
	b.SetBytes(int64(count * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Bins, q.Literals = q.Bins[:0], q.Literals[:0]
		if fused {
			LevelPassEncode(recon, data, dims, 1, m, q)
		} else {
			LevelPass(recon, dims, 1, m, func(idx int, pred float64) float32 {
				return q.Quantize(data[idx], pred)
			})
		}
	}
}

func BenchmarkLevelPassClosureQuantize(b *testing.B) { benchEncodeSweep(b, false) }
func BenchmarkLevelPassEncode(b *testing.B)          { benchEncodeSweep(b, true) }

// TestChunkedSweepMatchesLevelPassEncode pins the chunked encode sweep
// Pyramid.Encode runs on several workers to LevelPassEncode: bins,
// literals and the reconstruction bit-identical after every level of a
// full cascade, anchored and anchor-free, for every method, over 1- to
// 4-dimensional shapes, with every sub-pass split (no size threshold) into
// 1, 2 and 3 chunks and into more chunks than the sub-pass has dim-0
// values, on one to three workers. Every dim-0 slab of the field starts
// and ends with a 1e30, so chunks begin and end on literals.
func TestChunkedSweepMatchesLevelPassEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	shapes := slices.Concat(encodeShapes, [][]int{{40, 9, 33}, {70, 33}, {600}})
	for _, dims := range shapes {
		data := encodeField(rng, dims)
		slab := len(data) / dims[0]
		for c := 0; c < dims[0]; c++ {
			data[c*slab], data[c*slab+slab-1] = 1e30, 1e30
		}
		for _, anchor := range []int{0, 4} {
			for _, m := range Candidates(len(dims)) {
				for _, chunks := range []int{1, 2, 3, dims[0] + 3} {
					ref, got := make([]float32, len(data)), make([]float32, len(data))
					qRef, qGot := quant.New(1e-3, 0), quant.New(1e-3, 0)
					maxL := MaxLevelGlobal(dims)
					if anchor > 0 {
						maxL = MaxLevelAnchored(anchor)
						for _, idx := range AnchorIndices(dims, anchor) {
							ref[idx], got[idx] = data[idx], data[idx]
						}
					} else {
						ref[0] = qRef.Quantize(data[0], 0)
						got[0] = qGot.Quantize(data[0], 0)
					}
					for level := maxL; level >= 1; level-- {
						qRef.SetBound(1e-3 / float64(level))
						qGot.SetBound(1e-3 / float64(level))
						LevelPassEncode(ref, data, dims, level, m, qRef)
						levelPassEncodeChunked(got, data, dims, level, m, qGot, chunks, 0, 1+chunks%3)
						label := func() string {
							return fmt.Sprintf("dims=%v anchor=%d m=%v chunks=%d level=%d", dims, anchor, m, chunks, level)
						}
						if !slices.Equal(qRef.Bins, qGot.Bins) {
							t.Fatalf("%s: bin streams differ", label())
						}
						if i := sameBits(qRef.Literals, qGot.Literals); i >= 0 {
							t.Fatalf("%s: literals diverge at %d (%d vs %d)", label(), i, len(qGot.Literals), len(qRef.Literals))
						}
						if i := sameBits(ref, got); i >= 0 {
							t.Fatalf("%s: recon[%d] = %x, want %x", label(), i, math.Float32bits(got[i]), math.Float32bits(ref[i]))
						}
					}
					if anchor == 0 && len(qRef.Literals) == 0 {
						t.Fatalf("dims=%v: %d literals, the field exercises nothing", dims, len(qRef.Literals))
					}
				}
			}
		}
	}
}
