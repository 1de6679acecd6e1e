package interp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qoz/internal/quant"
)

// synthStream builds a synthetic quantization stream for one level sweep:
// peaked bins around the radius with occasional literal escapes. When
// starve is set the literal stream is cut short, exercising Next's
// exhausted-literal zero fallback — and the starvation CheckLiterals
// reports afterwards — identically on both paths.
func synthStream(rng *rand.Rand, count int, starve bool) ([]uint32, []float32) {
	bins := make([]uint32, count)
	var lits []float32
	for i := range bins {
		if rng.Intn(12) == 0 {
			bins[i] = quant.LiteralSymbol
			lits = append(lits, float32(rng.NormFloat64()*100))
		} else {
			bins[i] = uint32(quant.DefaultRadius + rng.Intn(81) - 40)
		}
	}
	if starve && len(lits) > 1 {
		lits = lits[:len(lits)/2]
	}
	return bins, lits
}

// decodeShapes is the decode differential's shape table (and, with
// encodeShapes, the seed corpus of FuzzSweepVsLevelPass).
var decodeShapes = [][]int{
	{2}, {16}, {65}, {1000},
	{2, 2}, {13, 17}, {33, 129}, {64, 1},
	{32, 32, 32}, {7, 9, 11}, {64, 1, 17}, {1, 1, 5},
	{5, 6, 7, 8}, {3, 3, 3, 3},
}

// TestLevelPassDecodeMatchesLevelPass pins the flattened fused sweep
// bit-identical to the closure reference across shapes, levels, bases,
// and dimension orders, including boundary-heavy odd extents.
func TestLevelPassDecodeMatchesLevelPass(t *testing.T) {
	shapes := slices.Concat(decodeShapes, highDimShapes)
	rng := rand.New(rand.NewSource(42))
	eb := 1e-3
	for _, dims := range shapes {
		n := 1
		for _, d := range dims {
			n *= d
		}
		maxL := MaxLevelGlobal(dims)
		for level := 1; level <= maxL; level++ {
			for _, m := range Candidates(len(dims)) {
				for _, starve := range []bool{false, true} {
					count := CountLevelPoints(dims, level)
					bins, lits := synthStream(rng, count, starve)
					seed := make([]float32, n)
					for i := range seed {
						seed[i] = float32(rng.NormFloat64())
					}
					bufRef := append([]float32(nil), seed...)
					bufFast := append([]float32(nil), seed...)
					deqRef := quant.NewDequantizer(eb, 0, bins, lits)
					deqFast := quant.NewDequantizer(eb, 0, bins, lits)

					LevelPass(bufRef, dims, level, m, func(idx int, pred float64) float32 {
						return deqRef.Next(pred)
					})
					LevelPassDecode(bufFast, dims, level, m, deqFast)

					for i := range bufRef {
						if math.Float32bits(bufRef[i]) != math.Float32bits(bufFast[i]) {
							t.Fatalf("dims=%v level=%d m=%v starve=%v: buf[%d] = %x, want %x",
								dims, level, m, starve, i,
								math.Float32bits(bufFast[i]), math.Float32bits(bufRef[i]))
						}
					}
					if deqRef.Remaining() != deqFast.Remaining() {
						t.Fatalf("dims=%v level=%d m=%v: bin positions diverge: %d vs %d",
							dims, level, m, deqRef.Remaining(), deqFast.Remaining())
					}
					errRef, errFast := deqRef.CheckLiterals(), deqFast.CheckLiterals()
					if fmt.Sprint(errRef) != fmt.Sprint(errFast) {
						t.Fatalf("dims=%v level=%d m=%v: literal accounts diverge: %v vs %v",
							dims, level, m, errRef, errFast)
					}
					escapes := 0
					for _, sym := range bins {
						if sym == quant.LiteralSymbol {
							escapes++
						}
					}
					if (errRef != nil) != (escapes != len(lits)) {
						t.Fatalf("dims=%v level=%d m=%v: %d escapes, %d literals, CheckLiterals says %v",
							dims, level, m, escapes, len(lits), errRef)
					}
				}
			}
		}
	}
}

// The fused sweep must also agree on a multi-level cascade sharing one
// dequantizer, as the legacy single-stream decoder drives it.
func TestLevelPassDecodeCascade(t *testing.T) {
	dims := []int{33, 65}
	n := 33 * 65
	rng := rand.New(rand.NewSource(9))
	maxL := MaxLevelGlobal(dims)
	total := 0
	for level := maxL; level >= 1; level-- {
		total += CountLevelPoints(dims, level)
	}
	bins, lits := synthStream(rng, total, false)
	bufRef := make([]float32, n)
	bufFast := make([]float32, n)
	bufRef[0] = 3.5
	bufFast[0] = 3.5
	deqRef := quant.NewDequantizer(1e-3, 0, bins, lits)
	deqFast := quant.NewDequantizer(1e-3, 0, bins, lits)
	for level := maxL; level >= 1; level-- {
		m := Candidates(2)[level%len(Candidates(2))]
		deqRef.SetBound(1e-3 / float64(level))
		deqFast.SetBound(1e-3 / float64(level))
		LevelPass(bufRef, dims, level, m, func(idx int, pred float64) float32 {
			return deqRef.Next(pred)
		})
		LevelPassDecode(bufFast, dims, level, m, deqFast)
	}
	if deqRef.Remaining() != 0 || deqFast.Remaining() != 0 {
		t.Fatalf("stream not fully consumed: ref %d, fast %d", deqRef.Remaining(), deqFast.Remaining())
	}
	for i := range bufRef {
		if math.Float32bits(bufRef[i]) != math.Float32bits(bufFast[i]) {
			t.Fatalf("buf[%d] = %x, want %x", i, math.Float32bits(bufFast[i]), math.Float32bits(bufRef[i]))
		}
	}
}

// benchSweep times one level's decode sweep over an edge^3 field: level 2
// of a 64^3 brick is the long-standing figure; level 1 (seven eighths of
// the points) at 32^3 and 128^3 shows what the walker's per-run call costs
// on short and long lines.
func benchSweep(b *testing.B, edge, level int, m Method, fused bool) {
	dims := []int{edge, edge, edge}
	n := edge * edge * edge
	rng := rand.New(rand.NewSource(1))
	count := CountLevelPoints(dims, level)
	bins, lits := synthStream(rng, count, false)
	buf := make([]float32, n)
	for i := range buf {
		buf[i] = float32(rng.NormFloat64())
	}
	b.SetBytes(int64(count * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deq := quant.NewDequantizer(1e-3, 0, bins, lits)
		if fused {
			LevelPassDecode(buf, dims, level, m, deq)
		} else {
			LevelPass(buf, dims, level, m, func(idx int, pred float64) float32 {
				return deq.Next(pred)
			})
		}
	}
}

func BenchmarkLevelPassClosure(b *testing.B) { benchSweep(b, 64, 2, Method{Cubic, Decreasing}, false) }
func BenchmarkLevelPassDecode(b *testing.B)  { benchSweep(b, 64, 2, Method{Cubic, Decreasing}, true) }

func BenchmarkLevelPassDecodeLevel1(b *testing.B) {
	for _, edge := range []int{32, 128} {
		for _, kind := range []Kind{Linear, Cubic} {
			b.Run(fmt.Sprintf("%d/%s", edge, kind), func(b *testing.B) {
				benchSweep(b, edge, 1, Method{kind, Decreasing}, true)
			})
		}
	}
}
