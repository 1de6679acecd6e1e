package container_test

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"qoz/datagen"
	"qoz/internal/container"
	"qoz/internal/core"
)

// flateInflate is the section reader the in-memory inflater replaced, kept
// as its oracle: compress/flate's stream reader behind the checks Decode
// made around it — the declared-size bound first, then no byte past the
// declared size, no byte after the final block, and exactly the declared
// size in all.
func flateInflate(src []byte, size int) ([]byte, error) {
	if !container.CheckDeclared(uint64(size), len(src)) {
		return nil, errors.New("declared size beyond DEFLATE's ratio")
	}
	r := bytes.NewReader(src)
	out, err := io.ReadAll(io.LimitReader(flate.NewReader(r), int64(size)+1))
	switch {
	case err != nil:
		return nil, err
	case len(out) > size:
		return nil, errors.New("past the declared size")
	case r.Len() != 0:
		return nil, errors.New("bytes after the final block")
	case len(out) != size:
		return nil, errors.New("short of the declared size")
	}
	return out, nil
}

// inflateNew is the in-memory inflater behind the same declared-size
// bound, as Decode runs it.
func inflateNew(src []byte, size int) ([]byte, error) {
	if !container.CheckDeclared(uint64(size), len(src)) {
		return nil, errors.New("declared size beyond DEFLATE's ratio")
	}
	out := make([]byte, size)
	return out, container.InflateSection(out, src)
}

// sameInflate fails t unless both readers fail on src at size, or both
// inflate it to the same bytes.
func sameInflate(t *testing.T, name string, src []byte, size int) {
	t.Helper()
	want, werr := flateInflate(src, size)
	got, err := inflateNew(src, size)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s (%d bytes declared %d): inflater err %v, compress/flate err %v", name, len(src), size, err, werr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s (%d bytes declared %d): inflater and compress/flate disagree", name, len(src), size)
	}
}

// deflate compresses raw as one stream at level.
func deflate(raw []byte, level int) []byte {
	var out bytes.Buffer
	w, err := flate.NewWriter(&out, level)
	if err != nil {
		panic(err)
	}
	w.Write(raw)
	w.Close()
	return out.Bytes()
}

// bitWriter packs DEFLATE's bit order by hand: fields from their least
// significant bit, Huffman codes from their most significant.
type bitWriter struct {
	out   []byte
	nbits uint
}

func (w *bitWriter) bits(v uint32, n uint) {
	for i := uint(0); i < n; i++ {
		if w.nbits%8 == 0 {
			w.out = append(w.out, 0)
		}
		w.out[len(w.out)-1] |= byte(v>>i&1) << (w.nbits % 8)
		w.nbits++
	}
}

func (w *bitWriter) code(c uint32, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.bits(c>>uint(i)&1, 1)
	}
}

// canonical returns each symbol's canonical code for lengths.
func canonical(lengths []uint8) []uint32 {
	var count [16]uint32
	for _, n := range lengths {
		if n > 0 {
			count[n]++
		}
	}
	var next [17]uint32
	for n, c := 1, uint32(0); n <= 15; n++ {
		c = (c + count[n-1]) << 1
		next[n] = c
	}
	codes := make([]uint32, len(lengths))
	for s, n := range lengths {
		if n > 0 {
			codes[s] = next[n]
			next[n]++
		}
	}
	return codes
}

// dynamicBlock writes a final dynamic block whose literal/length and
// distance codes have the given lengths (their counts set HLIT and
// HDIST), listed with a code-length code giving 0..15 four bits each, and
// then emits its symbols: a literal/length symbol, or -1-d for distance
// code d. Extra bits are written as zero.
func dynamicBlock(lit, dist []uint8, syms []int) []byte {
	var w bitWriter
	w.bits(1, 1) // final
	w.bits(2, 2) // dynamic
	w.bits(uint32(len(lit)-257), 5)
	w.bits(uint32(len(dist)-1), 5)
	w.bits(19-4, 4)
	order := []int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	for _, s := range order {
		if s < 16 {
			w.bits(4, 3)
		} else {
			w.bits(0, 3)
		}
	}
	for _, n := range append(slices.Clone(lit), dist...) {
		w.code(uint32(n), 4) // all sixteen codes are four bits: symbol s is code s
	}
	litCodes, distCodes := canonical(lit), canonical(dist)
	for _, s := range syms {
		if s >= 0 {
			w.code(litCodes[s], uint(lit[s]))
			if s >= 265 && s < 285 {
				w.bits(0, uint(s-261)/4)
			}
			continue
		}
		d := -1 - s
		w.code(distCodes[d], uint(dist[d]))
		if d >= 4 {
			w.bits(0, uint(d-2)/2)
		}
	}
	return w.out
}

// handBlocks are DEFLATE streams no writer here makes: a stored block, a
// fixed-code block, dynamic blocks with a lone one-bit distance code, an
// empty distance code, an incomplete literal code and an over-subscribed
// one, codes up to 15 bits long, an incomplete code-length code, a repeat
// with nothing to repeat, the reserved block type, and
// fixed-code blocks using the literal/length and distance codes that
// exist only to be refused. Each comes with the size it declares.
func handBlocks() map[string]struct {
	src  []byte
	size int
} {
	type block = struct {
		src  []byte
		size int
	}
	lit := func(lens map[int]uint8) []uint8 {
		out := make([]uint8, 258)
		for s, n := range lens {
			out[s] = n
		}
		return out
	}
	var fixed, fixedBadLen, fixedBadDist, reserved, incompleteCL, badRepeat bitWriter
	fixed.bits(1, 1)
	fixed.bits(1, 2)
	fixed.code(0x30+'h', 8)
	fixed.code(0x30+'i', 8)
	fixed.code(0, 7) // end of block
	fixedBadLen.bits(1, 1)
	fixedBadLen.bits(1, 2)
	fixedBadLen.code(0x30+'x', 8)
	fixedBadLen.code(0xc0+286-280, 8)
	fixedBadDist.bits(1, 1)
	fixedBadDist.bits(1, 2)
	fixedBadDist.code(0x30+'x', 8)
	fixedBadDist.code(1, 7) // length 3
	fixedBadDist.code(30, 5)
	reserved.bits(1, 1)
	reserved.bits(3, 2)
	incompleteCL.bits(1, 1)
	incompleteCL.bits(2, 2)
	incompleteCL.bits(0, 5)
	incompleteCL.bits(0, 5)
	incompleteCL.bits(19-4, 4)
	for range 19 {
		incompleteCL.bits(5, 3) // nineteen five-bit codes fill 19/32 of the space
	}
	badRepeat.bits(1, 1)
	badRepeat.bits(2, 2)
	badRepeat.bits(0, 5)
	badRepeat.bits(0, 5)
	badRepeat.bits(0, 4) // four code-length code lengths, for 16, 17, 18 and 0:
	badRepeat.bits(1, 3) // 16 one bit,
	badRepeat.bits(0, 6) // 17 and 18 none,
	badRepeat.bits(1, 3) // 0 one bit: 0 is code 0 and 16 code 1
	badRepeat.code(1, 1) // 16 first, with no length to repeat
	badRepeat.bits(0, 2)
	stored := []byte{1, 5, 0, ^byte(5), 0xff, 'h', 'e', 'l', 'l', 'o'}
	return map[string]block{
		"stored":                        {stored, 5},
		"stored, bad complement":        {append([]byte{1, 5, 0, 0, 0}, "hello"...), 5},
		"stored, cut":                   {stored[:8], 5},
		"fixed":                         {fixed.out, 2},
		"fixed length code 286":         {fixedBadLen.out, 4},
		"fixed distance code 30":        {fixedBadDist.out, 4},
		"reserved block type":           {reserved.out, 1},
		"incomplete code-length code":   {incompleteCL.out, 1},
		"repeat with nothing to repeat": {badRepeat.out, 1},
		"lone distance code": {dynamicBlock(lit(map[int]uint8{'a': 2, 'b': 2, 256: 2, 257: 2}), []uint8{1},
			[]int{'a', 'b', 257, -1, 256}), 5},
		"lone distance code, then junk": {append(dynamicBlock(lit(map[int]uint8{'a': 2, 'b': 2, 256: 2, 257: 2}), []uint8{1},
			[]int{'a', 257}), 0xff), 5},
		"empty distance code": {dynamicBlock(lit(map[int]uint8{'a': 1, 256: 1}), []uint8{0},
			[]int{'a', 'a', 'a', 256}), 3},
		"incomplete literal code": {dynamicBlock(lit(map[int]uint8{'a': 2, 'b': 2, 256: 2}), []uint8{1},
			[]int{'a', 'b', 256}), 2},
		"over-subscribed literal code": {dynamicBlock(lit(map[int]uint8{'a': 1, 'b': 1, 256: 1}), []uint8{1},
			[]int{'a', 256}), 1},
		"long codes": {dynamicBlock(longCodes(), []uint8{1, 1},
			[]int{0, 1, 2, 255, 254, 100, 3, 4, 5, 6, 7, 8, 9, 257, -1, 284, -2, 256}), 13 + 3 + 227},
	}
}

// longCodes is a complete literal/length code with codes of 1 to 15
// bits, the longest seven of them sharing one root prefix, so that the
// decode table needs its second level.
func longCodes() []uint8 {
	lens := make([]uint8, 286)
	for i, s := range []int{0, 1, 2, 255, 254, 100, 257, 284, 256, 3, 4, 5, 6, 7, 8, 9} {
		lens[s] = uint8(min(i+1, 15))
	}
	return lens
}

// brickSections returns the deflated sections of a 32³ NYX and a 32³
// Miranda brick as the codec writes them.
var brickSections = sync.OnceValue(func() []container.StoredSection {
	var out []container.StoredSection
	for _, ds := range []datagen.Dataset{datagen.NYX(32, 32, 32), datagen.Miranda(32, 32, 32)} {
		lo, hi := slices.Min(ds.Data), slices.Max(ds.Data)
		buf, err := core.Compress(ds.Data, ds.Dims, core.Options{ErrorBound: 1e-3 * float64(hi-lo)})
		if err != nil {
			panic(err)
		}
		secs, err := container.StoredSections(buf)
		if err != nil {
			panic(err)
		}
		for _, sec := range secs {
			if len(sec.Stored) < sec.RawLen {
				out = append(out, sec)
			}
		}
	}
	return out
})

// TestInflateMatchesFlate holds the in-memory inflater to compress/flate
// on streams of every kind: every compression level and Huffman-only, the
// chunked sections Pack makes, real brick sections, hand-made blocks, and
// truncations, bit flips and wrong declared sizes of them all.
func TestInflateMatchesFlate(t *testing.T) {
	in := container.DeflateInput()
	type stream struct {
		name string
		src  []byte
		size int
	}
	var streams []stream
	for _, n := range []int{0, 1, 100, 5000, 70_000, len(in)} {
		for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, 5, flate.BestCompression} {
			streams = append(streams, stream{"flate", deflate(in[:n], level), n})
		}
	}
	chunked := container.Pack(container.Section{Data: in[:3*container.ChunkBytes+77]})
	streams = append(streams, stream{"chunked", chunked.Enc, len(chunked.Raw)})
	for _, sec := range brickSections() {
		streams = append(streams, stream{"brick section", sec.Stored, sec.RawLen})
	}
	valid := map[string]bool{"stored": true, "fixed": true, "lone distance code": true, "empty distance code": true, "long codes": true}
	for name, b := range handBlocks() {
		if _, err := flateInflate(b.src, b.size); (err == nil) != valid[name] {
			t.Fatalf("hand-made block %q: compress/flate says %v", name, err)
		}
		streams = append(streams, stream{name, b.src, b.size})
	}
	rng := rand.New(rand.NewSource(45))
	for _, s := range streams {
		sameInflate(t, s.name, s.src, s.size)
		for _, size := range []int{s.size - 1, s.size + 1, 0} {
			sameInflate(t, s.name+", resized", s.src, max(size, 0))
		}
		for _, cut := range []int{len(s.src) - 1, len(s.src) / 2, 1} {
			if cut >= 0 && cut < len(s.src) {
				sameInflate(t, s.name+", cut", s.src[:cut], s.size)
			}
		}
		sameInflate(t, s.name+", extended", append(slices.Clone(s.src), 0), s.size)
		for range 20 {
			if len(s.src) == 0 {
				break
			}
			flipped := slices.Clone(s.src)
			flipped[rng.Intn(len(flipped))] ^= 1 << rng.Intn(8)
			sameInflate(t, s.name+", flipped", flipped, s.size)
		}
	}
	for range 2000 {
		junk := make([]byte, rng.Intn(40))
		rng.Read(junk)
		sameInflate(t, "random bytes", junk, rng.Intn(200))
	}
}

// FuzzInflate holds the in-memory inflater to compress/flate behind
// today's checks: for any stream and declared size both fail, or both
// inflate it to the same bytes.
func FuzzInflate(f *testing.F) {
	for _, sec := range brickSections() {
		f.Add(sec.Stored, uint32(sec.RawLen))
		f.Add(sec.Stored[:len(sec.Stored)/2], uint32(sec.RawLen))
		flipped := slices.Clone(sec.Stored)
		flipped[len(flipped)/3] ^= 0x10
		f.Add(flipped, uint32(sec.RawLen))
	}
	in := container.DeflateInput()
	f.Add(deflate(in[:300], flate.NoCompression), uint32(300))
	f.Add(deflate([]byte("ab"), flate.BestSpeed), uint32(2)) // a fixed-code block
	f.Add(deflate(in[:3000], flate.DefaultCompression), uint32(3000))
	for _, b := range handBlocks() {
		f.Add(b.src, uint32(b.size))
	}
	chunked := container.Pack(container.Section{Data: in[:2*container.ChunkBytes+100]})
	f.Add(chunked.Enc, uint32(len(chunked.Raw)))
	f.Fuzz(func(t *testing.T, src []byte, size uint32) {
		if size > 4<<20 {
			return
		}
		sameInflate(t, "fuzz input", src, int(size))
	})
}

// benchBricks are the deflated sections of the 32³ bricks of 128³ Miranda
// and NYX fields, as a 32³-brick store of them holds, brick by brick.
var benchBricks = sync.OnceValue(func() [][]container.StoredSection {
	var bricks [][]container.StoredSection
	for _, ds := range []datagen.Dataset{datagen.Miranda(128, 128, 128), datagen.NYX(128, 128, 128)} {
		eb := 1e-3 * float64(slices.Max(ds.Data)-slices.Min(ds.Data))
		brick := make([]float32, 32*32*32)
		for z := 0; z < 128; z += 32 {
			for y := 0; y < 128; y += 32 {
				for x := 0; x < 128; x += 32 {
					for i := range brick {
						bz, by, bx := i/(32*32), i/32%32, i%32
						brick[i] = ds.Data[((z+bz)*128+y+by)*128+x+bx]
					}
					buf, err := core.Compress(brick, []int{32, 32, 32}, core.Options{ErrorBound: eb})
					if err != nil {
						panic(err)
					}
					secs, err := container.StoredSections(buf)
					if err != nil {
						panic(err)
					}
					var deflated []container.StoredSection
					for _, sec := range secs {
						if len(sec.Stored) < sec.RawLen {
							deflated = append(deflated, sec)
						}
					}
					bricks = append(bricks, deflated)
				}
			}
		}
	}
	return bricks
})

// BenchmarkInflateBrick inflates every deflated section of one brick per
// op, cycling through benchBricks: with the in-memory inflater into one
// reused buffer, as Decode reads a brick's sections into its slab, and
// with a reused compress/flate reader into a buffer of each section's
// own, about as the section reader before it did.
func BenchmarkInflateBrick(b *testing.B) {
	bricks := benchBricks()
	b.Run("inflater", func(b *testing.B) {
		dst := make([]byte, 1<<20)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, sec := range bricks[i%len(bricks)] {
				if err := container.InflateSection(dst[:sec.RawLen], sec.Stored); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("flate", func(b *testing.B) {
		var src bytes.Reader
		r := flate.NewReader(&src)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, sec := range bricks[i%len(bricks)] {
				src.Reset(sec.Stored)
				r.(flate.Resetter).Reset(&src, nil)
				out := make([]byte, sec.RawLen)
				if _, err := io.ReadFull(r, out); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
