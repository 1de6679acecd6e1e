package container

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	in := &Stream{
		Codec:      CodecQoZ,
		Dims:       []int{10, 20, 30},
		ErrorBound: 1e-3,
		Sections: []Section{
			{ID: 1, Data: bytes.Repeat([]byte("abc"), 1000)}, // compressible
			{ID: 2, Data: []byte{0xDE, 0xAD, 0xBE, 0xEF}},    // stored raw
			{ID: 3, Data: nil}, // empty
		},
	}
	enc, err := Encode(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.Codec != in.Codec || out.ErrorBound != in.ErrorBound {
		t.Fatalf("header mismatch: %+v", out)
	}
	if len(out.Dims) != 3 || out.Dims[0] != 10 || out.Dims[2] != 30 {
		t.Fatalf("dims = %v", out.Dims)
	}
	for i, sec := range in.Sections {
		if !bytes.Equal(out.Sections[i].Data, sec.Data) {
			t.Fatalf("section %d mismatch", sec.ID)
		}
	}
	// Compressible section must actually have shrunk on the wire.
	if len(enc) >= 3000 {
		t.Fatalf("container did not compress repetitive section: %d bytes", len(enc))
	}
}

func TestSectionLookup(t *testing.T) {
	s := &Stream{Sections: []Section{{ID: 7, Data: []byte("x")}}}
	if got := s.Section(7); string(got) != "x" {
		t.Fatalf("Section(7) = %q", got)
	}
	if s.Section(8) != nil {
		t.Fatal("missing section should be nil")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX\x01\x01\x01"),
		[]byte("QOZG\x63"),         // bad version
		[]byte("QOZG\x01\x01\x00"), // ndims 0
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	in := &Stream{Codec: CodecSZ3, Dims: []int{64}, ErrorBound: 0.1,
		Sections: []Section{{ID: 1, Data: make([]byte, 500)}}}
	enc, _ := Encode(in)
	for _, cut := range []int{8, len(enc) / 2, len(enc) - 3} {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestFloat32Bytes(t *testing.T) {
	in := []float32{0, 1.5, -2.25, float32(math.Inf(1)), 3.14159e-20}
	out, err := BytesToFloat32s(Float32sToBytes(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] && !(math.IsNaN(float64(in[i])) && math.IsNaN(float64(out[i]))) {
			t.Fatalf("index %d: %v != %v", i, in[i], out[i])
		}
	}
	if _, err := BytesToFloat32s(make([]byte, 5)); err == nil {
		t.Fatal("misaligned buffer accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nd := 1 + rng.Intn(4)
		dims := make([]int, nd)
		// Keep the declared product under the MaxPoints cap the format now
		// enforces (per-dim bound = floor(MaxPoints^(1/nd)), clipped).
		maxd := int(math.Pow(float64(MaxPoints), 1/float64(nd))) - 1
		if maxd > 1000 {
			maxd = 1000
		}
		for i := range dims {
			dims[i] = 1 + rng.Intn(maxd)
		}
		nsec := rng.Intn(5)
		secs := make([]Section, nsec)
		for i := range secs {
			data := make([]byte, rng.Intn(2000))
			if rng.Intn(2) == 0 {
				rng.Read(data)
			}
			secs[i] = Section{ID: uint8(i), Data: data}
		}
		in := &Stream{
			Codec:      uint8(1 + rng.Intn(6)),
			Dims:       dims,
			ErrorBound: rng.Float64(),
			Sections:   secs,
		}
		enc, err := Encode(in)
		if err != nil {
			return false
		}
		out, err := Decode(enc)
		if err != nil {
			return false
		}
		if out.Codec != in.Codec || out.ErrorBound != in.ErrorBound || len(out.Dims) != nd {
			return false
		}
		for i := range dims {
			if out.Dims[i] != dims[i] {
				return false
			}
		}
		for i := range secs {
			if !bytes.Equal(out.Sections[i].Data, secs[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRejectsOverflowingDims hand-crafts container headers whose
// dimension product wraps int or exceeds MaxPoints: Decode and PeekHeader
// must error before allocating anything from the declared size, since
// every codec sizes its output buffers from these dims.
func TestDecodeRejectsOverflowingDims(t *testing.T) {
	mk := func(dims []uint64) []byte {
		h := []byte("QOZG")
		h = append(h, 1, CodecQoZ, byte(len(dims)))
		var tmp [10]byte
		for _, d := range dims {
			n := binary.PutUvarint(tmp[:], d)
			h = append(h, tmp[:n]...)
		}
		h = append(h, make([]byte, 8)...) // error bound
		h = append(h, 0)                  // no sections
		return h
	}
	huge := [][]uint64{
		{1 << 31, 1 << 31, 1 << 31},
		{math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32},
		{1 << 30, 1 << 30},
	}
	for _, dims := range huge {
		if _, err := Decode(mk(dims)); err == nil {
			t.Fatalf("Decode accepted dims %v", dims)
		}
		if _, _, err := PeekHeader(mk(dims)); err == nil {
			t.Fatalf("PeekHeader accepted dims %v", dims)
		}
	}
	// Sanity: a small crafted header still parses.
	if s, err := Decode(mk([]uint64{4, 4})); err != nil || len(s.Dims) != 2 {
		t.Fatalf("valid crafted header rejected: %v", err)
	}
	codec, dims, err := PeekHeader(mk([]uint64{4, 6}))
	if err != nil || codec != CodecQoZ || dims[0] != 4 || dims[1] != 6 {
		t.Fatalf("PeekHeader: codec %d dims %v err %v", codec, dims, err)
	}
}

// TestEncodeRejectsOverflowingDims covers the symmetric write-side guard.
func TestEncodeRejectsOverflowingDims(t *testing.T) {
	for _, dims := range [][]int{
		{1 << 31, 1 << 31, 1 << 31},
		{1 << 30, 1 << 30},
		{0},
		{-5},
		{},
	} {
		if _, err := Encode(&Stream{Codec: CodecQoZ, Dims: dims, ErrorBound: 1}); err == nil {
			t.Fatalf("Encode accepted dims %v", dims)
		}
	}
}

func TestCheckDims(t *testing.T) {
	if p, err := CheckDims([]int{3, 4, 5}); err != nil || p != 60 {
		t.Fatalf("CheckDims: %d %v", p, err)
	}
	if _, err := CheckDims(make([]int, 9)); err == nil {
		t.Fatal("9 dims accepted")
	}
}

// FuzzDecode feeds mangled containers through Decode: errors are fine,
// panics and runaway allocations are not. The seeds include a section
// Pack deflated in three chunks and one with bytes after its final
// DEFLATE block.
func FuzzDecode(f *testing.F) {
	hdr := &Stream{
		Codec:      CodecQoZ,
		Dims:       []int{8, 8},
		ErrorBound: 1e-3,
		Sections:   []Section{{ID: 1, Data: bytes.Repeat([]byte("ab"), 300)}},
	}
	valid, err := Encode(hdr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("QOZG"))
	chunked := Pack(Section{ID: 1, Data: deflateInput()[:2*ChunkBytes+100]})
	stray := Pack(hdr.Sections[0])
	stray.Enc = append(stray.Enc, 0xAB, 0xCD)
	for _, sec := range []Packed{chunked, stray} {
		b, err := EncodePacked(hdr, []Packed{sec})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if _, err := CheckDims(s.Dims); err != nil {
			t.Fatalf("Decode accepted dims %v that CheckDims rejects", s.Dims)
		}
	})
}

// TestDecodeRejectsBytesAfterFinalBlock frames a section whose encLen
// counts two bytes past the end of its DEFLATE stream: the section is
// corrupt, not the stream's raw bytes.
func TestDecodeRejectsBytesAfterFinalBlock(t *testing.T) {
	raw := bytes.Repeat([]byte("stray bytes "), 500)
	hdr := &Stream{Codec: CodecQoZ, Dims: []int{len(raw)}, ErrorBound: 1}
	sec := Pack(Section{ID: 1, Data: raw})
	if buf, err := EncodePacked(hdr, []Packed{sec}); err != nil {
		t.Fatal(err)
	} else if s, err := Decode(buf); err != nil || !bytes.Equal(s.Section(1), raw) {
		t.Fatalf("clean section: err %v", err)
	}
	sec.Enc = append(sec.Enc, 0xAB, 0xCD)
	buf, err := EncodePacked(hdr, []Packed{sec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("stray bytes after the final block: err %v, want ErrCorrupt", err)
	}
}

// TestInflaterReuse drives one pooled reader through every way a section
// can leave it — a clean end, a corrupt stream, a truncated one, output
// past the declared size — and requires a good section to decode exactly
// after each.
func TestInflaterReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	good := make([]byte, 100000)
	for i := range good {
		good[i] = byte(rng.Intn(7))
	}
	d := deflaters.Get().(*deflater)
	enc := append([]byte(nil), d.deflate(good)...)
	other := append([]byte(nil), d.deflate(bytes.Repeat([]byte("level"), 9000))...)
	deflaters.Put(d)

	corrupt := append([]byte(nil), enc...)
	for i := len(corrupt) / 3; i < len(corrupt)/3+64; i++ {
		corrupt[i] ^= 0x5A
	}
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	check := func(after string) {
		t.Helper()
		out, err := in.inflate(enc, len(good))
		if err != nil || !bytes.Equal(out, good) {
			t.Fatalf("good section after %s: err %v, %d bytes", after, err, len(out))
		}
	}
	check("nothing")
	if out, err := in.inflate(corrupt, len(good)); err == nil && bytes.Equal(out, good) {
		t.Fatal("corrupt section inflated to the original")
	}
	check("a corrupt section")
	if _, err := in.inflate(enc[:len(enc)/2], len(good)); err == nil {
		t.Fatal("truncated section inflated without error")
	}
	check("a truncated section")
	if _, err := in.inflate(enc, len(good)-1); err == nil {
		t.Fatal("section inflated past its declared size")
	}
	check("an oversized section")
	if out, err := in.inflate(other, 45000); err != nil || len(out) != 45000 {
		t.Fatalf("second stream: err %v, %d bytes", err, len(out))
	}
	check("another stream")
}

// deflateInput is half a megabyte shaped like the sections DEFLATE sees:
// a skewed small-alphabet stream with repeats (Huffman-coded bins), a
// zero run, and incompressible noise that DEFLATE stores.
func deflateInput() []byte {
	rng := rand.New(rand.NewSource(30))
	var buf []byte
	for len(buf) < 300_000 {
		if rng.Intn(8) == 0 && len(buf) > 64 {
			at := rng.Intn(len(buf) - 32)
			buf = append(buf, buf[at:at+4+rng.Intn(28)]...)
			continue
		}
		buf = append(buf, byte(rng.ExpFloat64()*3))
	}
	buf = append(buf, make([]byte, 50_000)...)
	noise := make([]byte, 120_000)
	rng.Read(noise)
	return append(buf, noise...)
}

// TestDeflateIgnoresWriteBoundaries pins what the concurrent entropy stage
// relies on. compress/flate emits the same stream however its input is
// cut into Write calls, and so a Chunker, which deflates each chunk's
// bytes as the pieces covering it arrive, packs a section to exactly
// Pack's bytes however the section is cut into pieces and however many
// goroutines deflate it. If a Go release breaks this, this test fails by
// name before the encoder goldens do.
func TestDeflateIgnoresWriteBoundaries(t *testing.T) {
	in := deflateInput()
	deflate := func(cut func(rest int) int) []byte {
		var out bytes.Buffer
		w, err := flate.NewWriter(&out, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		for rest := in; len(rest) > 0; {
			n := min(cut(len(rest)), len(rest))
			if _, err := w.Write(rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	whole := deflate(func(rest int) int { return rest })
	rng := rand.New(rand.NewSource(7))
	cuts := map[string]func(int) int{
		"1 B":            func(int) int { return 1 },
		"4 KiB":          func(int) int { return 4 << 10 },
		"random 1–70000": func(int) int { return 1 + rng.Intn(70_000) },
		"random 0–9000":  func(int) int { return rng.Intn(9000) },
	}
	for name, cut := range cuts {
		if got := deflate(cut); !bytes.Equal(got, whole) {
			t.Errorf("flate fed %s pieces: %d bytes differ from the whole input's %d", name, len(got), len(whole))
		}
	}

	sec := Section{ID: 9, Data: in}
	want := Pack(sec)
	if len(in) <= 3*ChunkBytes {
		t.Fatalf("the input spans only %d chunks", len(in)/ChunkBytes+1)
	}
	for name, cut := range cuts {
		for _, deflaters := range []int{1, 3} {
			var c Chunker
			var wg sync.WaitGroup
			for range deflaters {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.Deflate()
				}()
			}
			for rest := in; len(rest) > 0; {
				n := min(cut(len(rest)), len(rest))
				c.Write(rest[:n])
				rest = rest[n:]
			}
			c.Close()
			wg.Wait()
			if got := c.Packed(sec); !bytes.Equal(got.Enc, want.Enc) {
				t.Errorf("chunker fed %s pieces on %d goroutines: %d bytes differ from Pack's %d", name, deflaters, len(got.Enc), len(want.Enc))
			}
		}
	}
}

// chunkLengths are the section lengths the chunked form is checked at:
// the empty section, every length around one chunk, several whole
// chunks, and random lengths up to five chunks.
func chunkLengths() []int {
	ns := []int{0, 1, ChunkBytes - 1, ChunkBytes, ChunkBytes + 1, 2 * ChunkBytes, 3 * ChunkBytes, 3*ChunkBytes + 1}
	rng := rand.New(rand.NewSource(33))
	for range 6 {
		ns = append(ns, rng.Intn(5*ChunkBytes))
	}
	return ns
}

// TestPackRoundTrip packs sections of every chunkLengths length: each
// Enc is one DEFLATE stream that compress/flate inflates whole to the
// raw bytes with nothing left over, and the framed section decodes to
// them through Decode.
func TestPackRoundTrip(t *testing.T) {
	in := deflateInput()
	for _, n := range chunkLengths() {
		raw := in[:n]
		p := Pack(Section{ID: 3, Data: raw})
		src := bytes.NewReader(p.Enc)
		got, err := io.ReadAll(flate.NewReader(src))
		if err != nil || !bytes.Equal(got, raw) || src.Len() != 0 {
			t.Fatalf("%d bytes: flate inflates %d bytes, err %v, %d left over", n, len(got), err, src.Len())
		}
		if n >= ChunkBytes && len(p.Enc) >= n {
			t.Fatalf("%d bytes: deflated to %d, so the framed section is stored raw", n, len(p.Enc))
		}
		hdr := &Stream{Codec: CodecQoZ, Dims: []int{max(n, 1)}, ErrorBound: 1}
		buf, err := EncodePacked(hdr, []Packed{p})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Decode(buf)
		if err != nil || !bytes.Equal(s.Section(3), raw) {
			t.Fatalf("%d bytes: Decode err %v", n, err)
		}
	}
}

// TestPackSmallSectionIsOneStream requires a section of at most
// ChunkBytes to pack to exactly one whole compress/flate stream, as
// Encode stores it, and a longer one to differ from it.
func TestPackSmallSectionIsOneStream(t *testing.T) {
	in := deflateInput()
	for _, n := range chunkLengths() {
		var whole bytes.Buffer
		w, err := flate.NewWriter(&whole, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(in[:n])
		w.Close()
		chunked := Pack(Section{Data: in[:n]}).Enc
		if same := bytes.Equal(chunked, whole.Bytes()); same != (n <= ChunkBytes) {
			t.Errorf("%d bytes: Pack matches one whole stream: %v", n, same)
		}
	}
}
