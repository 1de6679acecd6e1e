package interp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"qoz/internal/quant"
)

// fuzzCaps bounds a fuzzed extent by dimensionality, keeping a sweep to a
// few ten thousand points however the fuzzer sets the extents.
var fuzzCaps = [4]int{1024, 130, 33, 9}

// FuzzSweepVsLevelPass holds the walker's three kernels — decode, encode
// and the L1 trial — bit-identical to the closure reference on whatever
// shape, level, method, bound and symbol stream the fuzzer finds. The
// stream bytes feed everything that varies per point: the buffer the
// sweep predicts from, the field the encoder quantizes, and a bin stream
// whose escapes may outnumber, match or fall short of its literals.
func FuzzSweepVsLevelPass(f *testing.F) {
	stream := []byte{0x80, 0x10, 0x7f, 0x93, 0x00, 0xe1, 0x42, 0x81, 0x20, 0x7e, 0xff, 0x30}
	for i, dims := range slices.Concat(decodeShapes, encodeShapes) {
		var e [4]uint16
		for d, n := range dims {
			e[d] = uint16(n - 1)
		}
		f.Add(uint8(len(dims)-1), e[0], e[1], e[2], e[3], uint8(i), uint8(i), int8(i), uint8(i), stream[i%len(stream):])
	}
	f.Fuzz(func(t *testing.T, nd uint8, e0, e1, e2, e3 uint16, lvl, method uint8, ebExp int8, chunks uint8, stream []byte) {
		if len(stream) == 0 {
			stream = []byte{0x55}
		}
		dims := make([]int, 1+nd%4)
		n := 1
		for d, e := range []uint16{e0, e1, e2, e3}[:len(dims)] {
			dims[d] = 1 + int(e)%fuzzCaps[len(dims)-1]
			n *= dims[d]
		}
		level := 1 + int(lvl)%MaxLevelGlobal(dims)
		m := Method{Kind(method % 3), Order(method / 3 % 2)}
		eb := math.Ldexp(1, int(ebExp)/4-12) // 2^-44 … 2^19
		at := func(i int) byte { return stream[i%len(stream)] }

		seed := make([]float32, n)
		data := make([]float32, n)
		for i := range seed {
			seed[i] = float32(int8(at(3*i))) / 8
			data[i] = seed[i] + float32(int8(at(5*i+1)))*float32(eb)
			if at(5*i+1) == 0x80 {
				data[i] = float32(math.NaN()) // escapes, and poisons its neighbours' predictions
			}
		}
		count := CountLevelPoints(dims, level)
		bins := make([]uint32, count)
		var lits []float32
		for i := range bins {
			if b := at(7*i + 2); b%16 == 0 {
				bins[i] = quant.LiteralSymbol
				lits = append(lits, float32(b))
			} else {
				bins[i] = uint32(quant.DefaultRadius + int(b) - 128)
			}
		}
		switch at(0) % 3 { // one literal too few, exact, one too many
		case 0:
			lits = lits[:max(len(lits)-1, 0)]
		case 2:
			lits = append(lits, 1)
		}

		// Decode kernel.
		ref, fast := append([]float32(nil), seed...), append([]float32(nil), seed...)
		deqRef, deqFast := quant.NewDequantizer(eb, 0, bins, lits), quant.NewDequantizer(eb, 0, bins, lits)
		LevelPass(ref, dims, level, m, func(idx int, pred float64) float32 { return deqRef.Next(pred) })
		LevelPassDecode(fast, dims, level, m, deqFast)
		if i := sameBits(ref, fast); i >= 0 {
			t.Fatalf("decode dims=%v level=%d m=%v: buf[%d] = %x, want %x", dims, level, m, i,
				math.Float32bits(fast[i]), math.Float32bits(ref[i]))
		}
		if deqRef.Remaining() != 0 || deqFast.Remaining() != 0 {
			t.Fatalf("decode dims=%v level=%d m=%v: symbols left: ref %d, fused %d", dims, level, m,
				deqRef.Remaining(), deqFast.Remaining())
		}
		if a, b := fmt.Sprint(deqRef.CheckLiterals()), fmt.Sprint(deqFast.CheckLiterals()); a != b {
			t.Fatalf("decode dims=%v level=%d m=%v: literal accounts diverge: %s vs %s", dims, level, m, a, b)
		}

		// Encode, chunked encode and L1 kernels.
		ref = append(ref[:0], seed...)
		fast = append(fast[:0], seed...)
		fastL1 := append([]float32(nil), seed...)
		fastChunked := append([]float32(nil), seed...)
		qRef, qFast, qL1, qChunked := quant.New(eb, 0), quant.New(eb, 0), quant.New(eb, 0), quant.New(eb, 0)
		sumRef := float64(at(1))
		LevelPass(ref, dims, level, m, func(idx int, pred float64) float32 {
			sumRef += math.Abs(pred - float64(data[idx]))
			return qRef.Quantize(data[idx], pred)
		})
		LevelPassEncode(fast, data, dims, level, m, qFast)
		sumL1 := LevelPassEncodeL1(fastL1, data, dims, level, m, qL1, float64(at(1)))
		levelPassEncodeChunked(fastChunked, data, dims, level, m, qChunked, 1+int(chunks)%17, 0, 2)
		if math.Float64bits(sumL1) != math.Float64bits(sumRef) {
			t.Fatalf("L1 dims=%v level=%d m=%v: sum %v, want %v", dims, level, m, sumL1, sumRef)
		}
		for name, got := range map[string]struct {
			recon []float32
			q     *quant.Quantizer
		}{"encode": {fast, qFast}, "L1": {fastL1, qL1}, "chunked": {fastChunked, qChunked}} {
			if i := sameBits(ref, got.recon); i >= 0 {
				t.Fatalf("%s dims=%v level=%d m=%v: recon[%d] = %x, want %x", name, dims, level, m, i,
					math.Float32bits(got.recon[i]), math.Float32bits(ref[i]))
			}
			if !slices.Equal(got.q.Bins, qRef.Bins) {
				t.Fatalf("%s dims=%v level=%d m=%v: bin streams differ", name, dims, level, m)
			}
			if i := sameBits(qRef.Literals, got.q.Literals); i >= 0 {
				t.Fatalf("%s dims=%v level=%d m=%v: literals diverge at %d", name, dims, level, m, i)
			}
		}
	})
}
