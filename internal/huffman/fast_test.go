package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"qoz/internal/pool"
)

// streams returns symbol streams that exercise every decode regime: the
// trivial cases, peaked histograms (all in the table), wide alphabets, and
// exponentially skewed frequencies whose deep codes overflow the table and
// force the long-code fallback chain.
func streams(tb testing.TB) map[string][]uint32 {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	peaked := make([]uint32, 30000)
	for i := range peaked {
		peaked[i] = uint32(32768 + int(rng.NormFloat64()*3))
	}
	wide := make([]uint32, 8000)
	for i := range wide {
		wide[i] = rng.Uint32() % 70000
	}
	var deep []uint32
	n := 1
	for s := 0; s < 40; s++ {
		for i := 0; i < n; i++ {
			deep = append(deep, uint32(s))
		}
		if n < 1<<20 {
			n *= 2
		}
		if len(deep) > 120000 {
			break
		}
	}
	return map[string][]uint32{
		"empty":  {},
		"single": {42, 42, 42},
		"two":    {0, 1, 0, 0, 1, 1, 0},
		"peaked": peaked,
		"wide":   wide,
		"deep":   deep,
	}
}

func TestDeepStreamOverflowsLUT(t *testing.T) {
	// The "deep" stream only exercises the fallback chain if its code
	// lengths actually exceed maxTableBits; pin that so the differential tests
	// below keep covering the fallback path.
	tab := BuildTable(streams(t)["deep"])
	maxL := uint8(0)
	for _, l := range tab.lens {
		if l > maxL {
			maxL = l
		}
	}
	if int(maxL) <= maxTableBits {
		t.Fatalf("deep stream max code length %d does not exceed maxTableBits %d", maxL, maxTableBits)
	}
}

func TestDecodeMatchesReference(t *testing.T) {
	for name, in := range streams(t) {
		enc := Encode(in)
		fast, fastErr := Decode(enc)
		ref, refErr := decodeReference(enc)
		if fastErr != nil || refErr != nil {
			t.Fatalf("%s: decode errors fast=%v ref=%v", name, fastErr, refErr)
		}
		if len(fast) != len(ref) {
			t.Fatalf("%s: length mismatch %d vs %d", name, len(fast), len(ref))
		}
		for i := range fast {
			if fast[i] != ref[i] {
				t.Fatalf("%s: symbol %d: fast %d, ref %d", name, i, fast[i], ref[i])
			}
		}
	}
}

// Truncating an encoded stream at every possible byte length must leave
// the fast path and the reference in agreement: same output when both
// succeed, both failing otherwise.
func TestDecodeTruncationDifferential(t *testing.T) {
	for name, in := range streams(t) {
		enc := Encode(in)
		step := 1
		if len(enc) > 600 {
			step = len(enc) / 600
		}
		for cut := 0; cut <= len(enc); cut += step {
			fast, fastErr := Decode(enc[:cut])
			ref, refErr := decodeReference(enc[:cut])
			if (fastErr == nil) != (refErr == nil) {
				t.Fatalf("%s cut=%d: error mismatch fast=%v ref=%v", name, cut, fastErr, refErr)
			}
			if fastErr != nil {
				continue
			}
			if len(fast) != len(ref) {
				t.Fatalf("%s cut=%d: length mismatch", name, cut)
			}
			for i := range fast {
				if fast[i] != ref[i] {
					t.Fatalf("%s cut=%d: symbol %d differs", name, cut, i)
				}
			}
		}
	}
}

func TestDecodeSegmentMatchesReference(t *testing.T) {
	for name, in := range streams(t) {
		if len(in) == 0 {
			continue
		}
		tab := BuildTable(in)
		// Split into a few segments like the level-segmented layout does.
		parts := 3
		for p := 0; p < parts; p++ {
			lo, hi := p*len(in)/parts, (p+1)*len(in)/parts
			seg := tab.EncodeSegment(in[lo:hi])
			// Decode through a freshly parsed table each way, as the real
			// stream decoder does.
			hdr := tab.AppendHeader(nil)
			t1, _, err := ParseTable(hdr)
			if err != nil {
				t.Fatalf("%s: ParseTable: %v", name, err)
			}
			t2, _, err := ParseTable(hdr)
			if err != nil {
				t.Fatalf("%s: ParseTable: %v", name, err)
			}
			fast, fastErr := t1.DecodeSegment(seg)
			ref, refErr := t2.decodeSegmentReference(seg)
			if fastErr != nil || refErr != nil {
				t.Fatalf("%s part %d: errors fast=%v ref=%v", name, p, fastErr, refErr)
			}
			if len(fast) != len(ref) {
				t.Fatalf("%s part %d: length mismatch", name, p)
			}
			for i := range fast {
				if fast[i] != ref[i] {
					t.Fatalf("%s part %d: symbol %d differs", name, p, i)
				}
			}
		}
	}
	loopEdgeSegments(t)
}

// hostileHeaders returns hand-built table headers: codes longer than the
// table width, incomplete code spaces (holes), over-subscribed lengths,
// and chains of short codes that run into a hole or an unreachable code.
func hostileHeaders() map[string][]byte {
	type entry = struct {
		sym uint32
		l   uint8
	}
	mkHeader := func(entries []entry) []byte {
		var hdr []byte
		hdr = binary.AppendUvarint(hdr, uint64(len(entries)))
		prev := uint32(0)
		for i, e := range entries {
			d := uint64(e.sym)
			if i > 0 {
				d = zigzag(int64(e.sym) - int64(prev))
			}
			hdr = binary.AppendUvarint(hdr, d)
			hdr = append(hdr, byte(e.l))
			prev = e.sym
		}
		return hdr
	}
	cases := map[string][]entry{
		// Two codes of length 20: every code overflows the table, and the
		// code space is massively incomplete.
		"deep-hole": {{1, 20}, {2, 20}},
		// A complete depth-1 code plus an unreachable deep code.
		"shadowed": {{1, 1}, {2, 1}, {3, 40}},
		// Over-subscribed: three codes claim length 1 (only two exist).
		"oversubscribed": {{1, 1}, {2, 1}, {3, 1}},
		// Mixed: short codes and a 58-bit chain at the table fallback edge.
		"maxlen": {{1, 1}, {2, 2}, {3, 58}},
		// 0, 10, 110 and a hole at 111: a window of short codes ends in
		// the hole partway along.
		"chain-hole": {{1, 1}, {2, 2}, {3, 3}},
		// 0, 10, 11, then a third length-2 code no 2-bit pattern can
		// equal and a length-3 code after it: a chain of 0s and 1s
		// passes every unreachable code by.
		"chain-oversubscribed": {{1, 1}, {2, 2}, {3, 2}, {4, 2}, {5, 3}},
	}
	out := make(map[string][]byte, len(cases))
	for name, entries := range cases {
		out[name] = mkHeader(entries)
	}
	return out
}

// Hostile headers must decode (or fail) identically through both paths.
func TestHostileTableDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, hdr := range hostileHeaders() {
		for trial := 0; trial < 200; trial++ {
			payload := make([]byte, rng.Intn(40))
			rng.Read(payload)
			seg := binary.AppendUvarint(nil, uint64(1+rng.Intn(64)))
			seg = append(seg, payload...)
			t1, _, err1 := ParseTable(hdr)
			t2, _, err2 := ParseTable(hdr)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: ParseTable: %v %v", name, err1, err2)
			}
			fast, fastErr := t1.DecodeSegment(seg)
			ref, refErr := t2.decodeSegmentReference(seg)
			if (fastErr == nil) != (refErr == nil) {
				t.Fatalf("%s trial %d: error mismatch fast=%v ref=%v", name, trial, fastErr, refErr)
			}
			if fastErr != nil {
				continue
			}
			if len(fast) != len(ref) {
				t.Fatalf("%s trial %d: length mismatch", name, trial)
			}
			for i := range fast {
				if fast[i] != ref[i] {
					t.Fatalf("%s trial %d: symbol %d differs (%d vs %d)", name, trial, i, fast[i], ref[i])
				}
			}
		}
	}
}

// The hardening checks must reject absurd header counts without
// allocating, and must not reject any honest stream.
func TestHostileCountsRejectedBeforeAllocation(t *testing.T) {
	// Claims 2^40 distinct symbols in a 3-byte table.
	var huge []byte
	huge = binary.AppendUvarint(huge, 10)    // n
	huge = binary.AppendUvarint(huge, 1<<40) // k
	huge = append(huge, []byte{1, 2, 3}...)  // nowhere near k entries
	if _, err := Decode(huge); err == nil {
		t.Fatal("expected error for absurd symbol-table count")
	}

	// Claims more symbols than the payload has bits.
	enc := Encode([]uint32{1, 2, 3, 4, 1, 2, 3, 4})
	_, m := binary.Uvarint(enc)
	lying := binary.AppendUvarint(nil, uint64(len(enc))*8+1) // n too large for any payload here
	lying = append(lying, enc[m:]...)
	if _, err := Decode(lying); err == nil {
		t.Fatal("expected error for symbol count exceeding payload bits")
	}

	// Segment form of the same lie.
	tab := BuildTable([]uint32{1, 2, 3, 4})
	seg := binary.AppendUvarint(nil, 1<<50)
	seg = append(seg, 0xFF, 0xFF)
	if _, err := tab.DecodeSegment(seg); err == nil {
		t.Fatal("expected error for absurd segment count")
	}
}

func BenchmarkDecodeSegmentPeaked(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := make([]uint32, 1<<16)
	for i := range in {
		in[i] = uint32(32768 + int(rng.NormFloat64()*4))
	}
	tab := BuildTable(in)
	seg := tab.EncodeSegment(in)
	hdr := tab.AppendHeader(nil)
	dec, _, err := ParseTable(hdr)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(in) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := dec.DecodeSegment(seg)
		if err != nil {
			b.Fatal(err)
		}
		pool.PutSlab(out)
	}
}

// brickBins returns one 32³ serve_scan brick's worth of quantization bins:
// a two-sided geometric run around the radius, which is what the paper's
// linear-scale quantizer leaves on a smooth field, with a sparse tail of
// wide bins that gives the code lengths past 12 bits real bricks carry.
func brickBins() []uint32 {
	rng := rand.New(rand.NewSource(1))
	in := make([]uint32, 32*32*32)
	for i := range in {
		d := int(rng.ExpFloat64() / 2)
		if rng.Intn(400) == 0 {
			d = rng.Intn(64)
		}
		if rng.Intn(2) == 0 {
			d = -d
		}
		in[i] = uint32(32768 + d)
	}
	return in
}

// BenchmarkDecodeSegmentBrick decodes one serve_scan brick's symbols: cold
// parses a fresh table per op, as every brick decode does, and warm reuses
// one. It reports the segment's coded bits per symbol beside the time.
func BenchmarkDecodeSegmentBrick(b *testing.B) {
	in := brickBins()
	tab := BuildTable(in)
	hdr := tab.AppendHeader(nil)
	seg := tab.EncodeSegment(in)
	_, m := binary.Uvarint(seg)
	bitsPerSym := float64(8*(len(seg)-m)) / float64(len(in))
	for _, cold := range []bool{true, false} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			dec, _, err := ParseTable(hdr)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(in) * 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					dec, _, _ = ParseTable(hdr)
				}
				out, err := dec.DecodeSegment(seg)
				if err != nil {
					b.Fatal(err)
				}
				pool.PutSlab(out)
				if cold {
					dec.Release()
				}
			}
			b.ReportMetric(bitsPerSym, "bits/sym")
		})
	}
}

// TestHugeTableCountsRejected hands ParseTable, and the single-segment
// Decode that parses its table through it, entry counts the header cannot
// hold: k = 2^62 overflows the table allocation, and k = 2^28 would
// allocate over a GiB before the entry loop runs dry. Both must be refused
// before anything k-sized is allocated. (hostileHeaders covers headers
// that do parse.)
func TestHugeTableCountsRejected(t *testing.T) {
	for _, k := range []uint64{1 << 62, 1 << 28} {
		hdr := binary.AppendUvarint(nil, k)
		hdr = append(hdr, 1, 2, 3, 4, 5, 6)
		stream := append(binary.AppendUvarint(nil, 8), hdr...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, errTable := ParseTable(hdr)
		_, errStream := Decode(stream)
		runtime.ReadMemStats(&after)
		if !errors.Is(errTable, errCorrupt) || !errors.Is(errStream, errCorrupt) {
			t.Errorf("k = %d: ParseTable says %v, Decode %v; want %v", k, errTable, errStream, errCorrupt)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("k = %d: %d bytes allocated before the header was refused", k, d)
		}
	}
}

// TestDecodeTableMatchesCanonicalScan holds every entry of the decode
// table, at every width, to the reference scan: decoding the entry's b-bit
// window, zero-padded, one symbol at a time until entrySyms symbols or a
// code that ends past the window must give the entry's symbols, count and
// ends exactly.
func TestDecodeTableMatchesCanonicalScan(t *testing.T) {
	tables := map[string]*Table{}
	for name, in := range streams(t) {
		if tab := BuildTable(in); tab.Distinct() >= 2 {
			tables[name] = tab
		}
	}
	for name, hdr := range hostileHeaders() {
		tab, _, err := ParseTable(hdr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tables[name] = tab
	}
	out := make([]uint32, entrySyms)
	for name, tab := range tables {
		for b := uint(1); b <= maxTableBits; b++ {
			tab.buildDecodeTable(b)
			for p := uint64(0); p < 1<<b; p++ {
				// The window, then 64 zero bits of padding.
				window := binary.BigEndian.AppendUint64(nil, p<<(64-b))
				window = append(window, make([]byte, 8)...)
				var want []uint32
				var ends []int
				for k := 1; k <= entrySyms; k++ {
					used, err := tab.decodeIntoReference(window, uint64(k), out)
					if err != nil || used > int(b) {
						break
					}
					want = append(want, out[k-1])
					ends = append(ends, used)
				}
				e := tab.table.entries[p]
				if n := int(e >> countShift & 7); n != len(want) {
					t.Fatalf("%s b=%d window %0*b: count %d, scan decodes %d symbols", name, b, b, p, n, len(want))
				}
				if len(want) == 0 {
					if e != 0 {
						t.Fatalf("%s b=%d window %0*b: entry %#x for a window the scan cannot start", name, b, b, p, e)
					}
					continue
				}
				for k, sym := range want {
					shift := uint(0)
					mask := uint64(firstMask)
					if k > 0 {
						shift, mask = maxTableBits+idxBits*uint(k-1), idxMask
					}
					if got := tab.syms[e>>shift&mask]; got != sym {
						t.Fatalf("%s b=%d window %0*b: slot %d decodes %d, scan %d", name, b, b, p, k, got, sym)
					}
				}
				for k := 0; k < entrySyms; k++ {
					if got, want := int(e>>(endShift+4*k)&15), ends[min(k, len(ends)-1)]; got != want {
						t.Fatalf("%s b=%d window %0*b: end %d is %d, scan %d", name, b, b, p, k, got, want)
					}
				}
			}
			tab.releaseDecodeTable()
		}
	}
}

// A table is built once per Table, never per segment: decoding into the
// pool and handing the output back allocates nothing once it is warm.
func TestDecodeSegmentWarmTableZeroAlloc(t *testing.T) {
	in := brickBins()
	tab := BuildTable(in)
	seg := tab.EncodeSegment(in)
	dec, _, err := ParseTable(tab.AppendHeader(nil))
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		out, err := dec.DecodeSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		pool.PutSlab(out)
	}
	decode()
	if allocs := testing.AllocsPerRun(50, decode); allocs != 0 {
		t.Fatalf("warm DecodeSegment allocates %.1f times per call; want 0", allocs)
	}
}

// segmentDifferential decodes seg through freshly parsed tables on both
// paths and requires the same symbols, or an error on both.
func segmentDifferential(t *testing.T, name string, hdr, seg []byte) {
	t.Helper()
	t1, _, err1 := ParseTable(hdr)
	t2, _, err2 := ParseTable(hdr)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: ParseTable: %v %v", name, err1, err2)
	}
	fast, fastErr := t1.DecodeSegment(seg)
	ref, refErr := t2.decodeSegmentReference(seg)
	if (fastErr == nil) != (refErr == nil) {
		t.Fatalf("%s: error mismatch fast=%v ref=%v", name, fastErr, refErr)
	}
	if fastErr == nil && !equalU32(fast, ref) {
		t.Fatalf("%s: fast decodes %v, ref %v", name, fast, ref)
	}
}

// loopEdgeSegments checks the symbol counts around the multi-symbol loop's
// edge — fewer than one entry, exactly one or two, one past — and the same
// segments with their final byte cut, so the last code matches only
// through zero padding.
func loopEdgeSegments(t *testing.T) {
	for _, name := range []string{"peaked", "deep"} {
		in := streams(t)[name]
		tab := BuildTable(in)
		hdr := tab.AppendHeader(nil)
		for off := 0; off < 64; off += 7 {
			for n := 1; n <= 2*entrySyms+1; n++ {
				seg := tab.EncodeSegment(in[off : off+n])
				segmentDifferential(t, fmt.Sprintf("%s off=%d n=%d", name, off, n), hdr, seg)
				segmentDifferential(t, fmt.Sprintf("%s off=%d n=%d cut", name, off, n), hdr, seg[:len(seg)-1])
			}
		}
	}
}

// Distinct returns the number of distinct symbols the table covers.
func (t *Table) Distinct() int { return len(t.syms) }
