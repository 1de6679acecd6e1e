package huffman

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// checkEncodeAgainstReference holds every encode entry point to the
// map-based reference on one input: Encode to the same bytes (and back to
// the input through Decode), EstimateBits to the same count, and
// BuildTable — given the input whole and given it cut at the listed
// points — to the same header and the same segment bytes.
func checkEncodeAgainstReference(t *testing.T, in []uint32, cuts ...int) {
	t.Helper()
	got, want := Encode(in), refEncode(in)
	if !bytes.Equal(got, want) {
		t.Fatalf("Encode: %d bytes, reference %d bytes (first difference at %d)", len(got), len(want), firstDiff(got, want))
	}
	back, err := Decode(got)
	if err != nil || !equalU32(back, in) {
		t.Fatalf("Decode(Encode(s)) != s (err %v)", err)
	}
	if g, w := EstimateBits(in), refEstimateBits(in); g != w {
		t.Fatalf("EstimateBits = %d, reference %d", g, w)
	}

	ref := refBuildTable(in)
	var segs [][]uint32
	prev := 0
	for _, c := range append(cuts, len(in)) {
		c = min(max(c, prev), len(in))
		segs = append(segs, in[prev:c])
		prev = c
	}
	for _, tab := range []*Table{BuildTable(in), BuildTable(segs...)} {
		if g, w := tab.AppendHeader(nil), ref.AppendHeader(nil); !bytes.Equal(g, w) {
			t.Fatalf("table header differs from reference at byte %d", firstDiff(g, w))
		}
		for i, seg := range segs {
			g, w := tab.EncodeSegment(seg), ref.EncodeSegment(seg)
			if !bytes.Equal(g, w) {
				t.Fatalf("segment %d: %d bytes, reference %d (first difference at %d)", i, len(g), len(w), firstDiff(g, w))
			}
			dec, err := tab.DecodeSegment(g)
			if err != nil || !equalU32(dec, seg) {
				t.Fatalf("segment %d does not decode back (err %v)", i, err)
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// wideStream spreads a few symbols over more than maxFlatWindow, forcing
// the sorted sparse histogram and the binary-search emit.
func wideStream() []uint32 {
	rng := rand.New(rand.NewSource(11))
	alphabet := []uint32{0, 7, 1 << 18, 1<<18 + 1, 1 << 20, 3 << 28, 1<<32 - 1}
	out := make([]uint32, 5000)
	for i := range out {
		out[i] = alphabet[int(rng.ExpFloat64())%len(alphabet)]
	}
	return out
}

func TestEncodeMatchesReference(t *testing.T) {
	for name, in := range streams(t) {
		t.Run(name, func(t *testing.T) {
			checkEncodeAgainstReference(t, in, len(in)/7, len(in)/2)
		})
	}
	t.Run("sparse", func(t *testing.T) {
		in := wideStream()
		if h := countSymbols(1, in); h.syms[len(h.syms)-1]-h.syms[0] < maxFlatWindow {
			t.Fatal("stream is not wider than the flat window")
		}
		checkEncodeAgainstReference(t, in, 100, 101, 4000)
	})
	t.Run("escape-plus-bins", func(t *testing.T) {
		// The quantizer's shape: bins around the radius, escapes at 0.
		rng := rand.New(rand.NewSource(2))
		in := make([]uint32, 20000)
		for i := range in {
			if in[i] = uint32(32768 + int(rng.NormFloat64()*6)); rng.Intn(50) == 0 {
				in[i] = 0
			}
		}
		checkEncodeAgainstReference(t, in, 3000)
	})
}

// histogramShapes returns the inputs that reach every way countSymbols
// walks its runs: each is a list of runs counted as one histogram.
func histogramShapes() map[string][][]uint32 {
	rng := rand.New(rand.NewSource(5))
	gen := func(n int, sym func() uint32) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = sym()
		}
		return out
	}
	bin := func() uint32 { return uint32(32768 + int(rng.NormFloat64()*2)) }
	escaped := func() uint32 { // window of about 33 k: bins, and escapes at 0
		if rng.Intn(40) == 0 {
			return 0
		}
		return bin()
	}
	return map[string][][]uint32{
		"peaked":     {gen(39304, bin)},
		"constant":   {gen(1001, func() uint32 { return 32768 })},
		"uniform":    {gen(10007, func() uint32 { return 500 + rng.Uint32()%300 })},
		"escapes":    {gen(20001, escaped)},
		"short-runs": {gen(1, bin), gen(2, bin), gen(3, bin), {}, gen(1, escaped)},
		"odd-runs":   {gen(4913, bin), gen(5, escaped), gen(4098, bin), gen(7, bin), gen(1023, escaped)},
		"sparse":     {wideStream()[:1234], wideStream()[1234:]},
	}
}

// TestCountSymbolsMatchesScalar holds the histogram to the one-table
// count it replaced, entry for entry.
func TestCountSymbolsMatchesScalar(t *testing.T) {
	for name, runs := range histogramShapes() {
		got, want := countSymbols(1, runs...), refCountSymbols(runs...)
		if got.total != want.total || !equalU32(got.syms, want.syms) || !slices.Equal(got.freq, want.freq) {
			t.Errorf("%s: histogram of %d symbols (%d distinct) differs from the scalar count (%d, %d distinct)",
				name, got.total, len(got.syms), want.total, len(want.syms))
		}
	}
	if h := countSymbols(1, histogramShapes()["sparse"]...); h.syms[len(h.syms)-1]-h.syms[0] < maxFlatWindow {
		t.Fatal("the sparse shape is not wider than the flat window")
	}
}

// TestCodeLengthsMatchReference compares the slice-based Huffman build
// with the map-based one on raw frequency tables, including Fibonacci
// weights deep enough that the code must be flattened by damping — a
// depth no real stream is long enough to reach.
func TestCodeLengthsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fib := []uint64{1, 1}
	for len(fib) < 85 {
		fib = append(fib, fib[len(fib)-1]+fib[len(fib)-2])
	}
	tables := [][]uint64{{1, 1}, {5, 5, 5, 5}, {1, 2, 3, 4, 5, 6, 7}, fib[:40], fib[:70], fib}
	for i := 0; i < 200; i++ {
		f := make([]uint64, 2+rng.Intn(300))
		for j := range f {
			f[j] = 1 + uint64(rng.ExpFloat64()*float64(uint64(1)<<uint(rng.Intn(40))))
		}
		tables = append(tables, f)
	}
	damped := false
	for _, freq := range tables {
		m := make(map[uint32]uint64, len(freq))
		for i, f := range freq {
			m[uint32(1000+3*i)] = f
		}
		want := refCodeLengths(m)
		got := codeLengths(freq)
		for i := range freq {
			if got[i] != want[uint32(1000+3*i)] {
				t.Fatalf("%d symbols: length of entry %d = %d, reference %d", len(freq), i, got[i], want[uint32(1000+3*i)])
			}
		}
		if _, ok := tryCodeLengths(freq, 0); !ok {
			damped = true
		}
	}
	if !damped {
		t.Fatal("no table needed damping; the test lost its flattened-code coverage")
	}
}

// EncodeSegment used to write nothing for a symbol the table was not
// built over, returning an undecodable segment with no error.
func TestEncodeSegmentForeignSymbolPanics(t *testing.T) {
	cases := map[string]struct {
		build []uint32
		seg   []uint32
	}{
		"inside window": {[]uint32{10, 12, 10, 12, 12}, []uint32{10, 11}},
		"below window":  {[]uint32{10, 12, 10}, []uint32{9}},
		"above window":  {[]uint32{10, 12, 10}, []uint32{13}},
		"sparse table":  {wideStream(), []uint32{5}},
		"single symbol": {[]uint32{4, 4, 4}, []uint32{4, 5}},
		"empty table":   {nil, []uint32{1}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "not in the table's build set") {
					t.Fatalf("recovered %q, want a panic naming the foreign symbol", msg)
				}
			}()
			BuildTable(c.build).EncodeSegment(c.seg)
		})
	}
}

// FuzzEncodeFastVsReference pins the slice-based encoder to the map-based
// reference on arbitrary symbol streams. The first input byte picks how
// the rest maps to symbols — one byte each around the quantizer's radius
// with 0 as the escape, or four bytes each across the whole uint32 range
// (which reaches the sparse, wider-than-window forms) — and where the
// stream is cut into segments. Inputs are capped at 1 KiB: the map-based
// reference is slow on large alphabets, and the long-code regimes are
// covered by TestEncodeMatchesReference and TestCodeLengthsMatchReference.
func FuzzEncodeFastVsReference(f *testing.F) {
	narrow := func(in []uint32) []byte {
		out := []byte{0}
		for _, s := range in {
			out = append(out, byte(s))
		}
		return out
	}
	wide := func(in []uint32) []byte {
		out := []byte{1}
		for _, s := range in {
			out = binary.LittleEndian.AppendUint32(out, s)
		}
		return out
	}
	f.Add([]byte{})
	f.Add(narrow([]uint32{5, 5, 5}))          // single symbol
	f.Add(narrow([]uint32{0, 1, 0, 0, 1, 1})) // two symbols
	f.Add(narrow(streams(f)["deep"][:1000]))  // skewed
	f.Add(wide(streams(f)["wide"][:200]))
	f.Add(wide(wideStream()[:200])) // wider than the flat window
	f.Add(wide([]uint32{0, 1<<32 - 1}))
	// The histogram's shapes; the first byte also places the cuts, so one
	// seed is several runs of lengths that are no multiple of four.
	for _, runs := range histogramShapes() {
		all := slices.Concat(runs...)
		all = all[:min(len(all), 255)]
		f.Add(wide(all))
		f.Add(append([]byte{1 | 37<<1}, wide(all)[1:]...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			checkEncodeAgainstReference(t, nil)
			return
		}
		mode, data := data[0], data[1:min(len(data), 1024)]
		var in []uint32
		if mode&1 == 0 {
			for _, b := range data {
				if b == 0 {
					in = append(in, 0)
				} else {
					in = append(in, 32768-128+uint32(b))
				}
			}
		} else {
			for ; len(data) >= 4; data = data[4:] {
				in = append(in, binary.LittleEndian.Uint32(data))
			}
		}
		cut := int(mode>>1) * (len(in) + 1) / 128
		checkEncodeAgainstReference(t, in, cut, cut+int(mode>>4))
	})
}

// BenchmarkCountSymbolsPeaked histograms bin streams of the two sizes the
// encoder counts: a 128^3 field's, and the 8 x 17^3 sample points of one
// tuner trial.
func BenchmarkCountSymbolsPeaked(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"field", 1 << 21}, {"trial", 39304}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			in := make([]uint32, c.n)
			for i := range in {
				in[i] = uint32(32768 + int(rng.NormFloat64()*1.5))
			}
			b.SetBytes(int64(len(in) * 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				countSymbols(1, in)
			}
		})
	}
}

func BenchmarkEncodeSegmentPeaked(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := make([]uint32, 1<<16)
	for i := range in {
		in[i] = uint32(32768 + int(rng.NormFloat64()*4))
	}
	tab := BuildTable(in)
	b.SetBytes(int64(len(in) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.EncodeSegment(in)
	}
}

// BenchmarkBuildTable builds the code at the two sizes the encoder does:
// a 64^3 brick's whole bin stream, with escapes, and the few thousand
// symbols of one tuner trial.
func BenchmarkBuildTable(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"brick", 1 << 18}, {"tuner", 4913}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			in := make([]uint32, c.n)
			for i := range in {
				if in[i] = uint32(32768 + int(rng.NormFloat64()*4)); rng.Intn(200) == 0 {
					in[i] = 0
				}
			}
			b.SetBytes(int64(len(in) * 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BuildTable(in)
			}
		})
	}
}

// TestConcurrentEncodeMatchesSerial pins the two helpers a concurrent
// entropy stage uses to what they stand in for: the histogram counted in
// 2 to 5 shares is the one counted whole, for every shape and an empty
// input, and the pieces EncodeSegmentPieces hands over concatenate to
// EncodeSegment's segment, which it also returns.
func TestConcurrentEncodeMatchesSerial(t *testing.T) {
	shapes := histogramShapes()
	shapes["empty"] = [][]uint32{{}, {}}
	shapes["long"] = [][]uint32{slices.Repeat(shapes["escapes"][0], 9), shapes["peaked"][0]}
	for name, runs := range shapes {
		want := countSymbols(1, runs...)
		for parts := 2; parts <= 5; parts++ {
			got := countSymbols(parts, runs...)
			if got.total != want.total || !equalU32(got.syms, want.syms) || !slices.Equal(got.freq, want.freq) {
				t.Errorf("%s: the histogram counted in %d shares differs", name, parts)
			}
		}
		tbl := BuildTableWorkers(2, runs...)
		if !bytes.Equal(tbl.AppendHeader(nil), BuildTable(runs...).AppendHeader(nil)) {
			t.Errorf("%s: BuildTableWorkers built another table", name)
		}
		for i, run := range runs {
			var cat []byte
			seg := tbl.EncodeSegmentPieces(run, func(b []byte) { cat = append(cat, b...) })
			if want := tbl.EncodeSegment(run); !bytes.Equal(seg, want) || !bytes.Equal(cat, want) {
				t.Errorf("%s run %d: pieces or segment differ from EncodeSegment", name, i)
			}
		}
	}
}
