package bitio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleBits(t *testing.T) {
	w := NewWriter(0)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if w.BitLen() != len(pattern) {
		t.Fatalf("BitLen = %d, want %d", w.BitLen(), len(pattern))
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit #%d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit #%d = %d, want %d", i, got, want)
		}
	}
}

func TestWriteBitsRoundTrip(t *testing.T) {
	w := NewWriter(16)
	w.WriteBits(0x2B, 6) // 101011
	w.WriteBits(0x1, 1)  // 1
	w.WriteBits(0xABCD, 16)
	w.WriteBits(0, 0) // zero-width write is a no-op
	r := NewReader(w.Bytes())
	if v, _ := r.ReadBits(6); v != 0x2B {
		t.Fatalf("first field = %#x, want 0x2b", v)
	}
	if v, _ := r.ReadBits(1); v != 1 {
		t.Fatalf("second field = %d, want 1", v)
	}
	if v, _ := r.ReadBits(16); v != 0xABCD {
		t.Fatalf("third field = %#x, want 0xabcd", v)
	}
}

func TestReadBitsRejectsHugeCount(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if _, err := r.ReadBits(65); err != ErrBitCount {
		t.Fatalf("ReadBits(65) err = %v, want ErrBitCount", err)
	}
	// The failed call must not have consumed anything.
	if r.BitsRemaining() != 80 {
		t.Fatalf("BitsRemaining after rejected read = %d, want 80", r.BitsRemaining())
	}
	if v, err := r.ReadBits(64); err != nil || v != 0x0102030405060708 {
		t.Fatalf("ReadBits(64) = %#x, %v", v, err)
	}
}

// Property: FastReader's Peek/Consume sequence observes exactly the bits
// the scalar Reader does, for arbitrary buffers and arbitrary chunkings.
func TestFastReaderMatchesReader(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		fr := NewFastReader(buf)
		sr := NewReader(buf)
		for sr.BitsRemaining() > 0 {
			n := uint(1 + rng.Intn(57))
			if rem := uint(sr.BitsRemaining()); n > rem {
				n = rem
			}
			fr.Refill()
			got := fr.Peek(n)
			want, err := sr.ReadBits(n)
			if err != nil || got != want {
				return false
			}
			fr.Consume(n)
			if fr.BitPos() != len(buf)*8-sr.BitsRemaining() {
				return false
			}
		}
		return fr.BitPos() == fr.TotalBits()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFastReaderZeroPadPastEnd(t *testing.T) {
	fr := NewFastReader([]byte{0xFF})
	fr.Refill()
	// 8 real one-bits followed by zero padding.
	if got := fr.Peek(16); got != 0xFF00 {
		t.Fatalf("Peek(16) = %#x, want 0xff00", got)
	}
	fr.Consume(16)
	if fr.BitPos() <= fr.TotalBits() {
		t.Fatal("over-read must be visible via BitPos > TotalBits")
	}
	// Refill past the end stays sane and keeps serving zeros.
	fr.Refill()
	if got := fr.Peek(32); got != 0 {
		t.Fatalf("Peek past end = %#x, want 0", got)
	}
}

func TestFastReaderBitAt(t *testing.T) {
	buf := []byte{0b1010_0110, 0b0000_0001}
	fr := NewFastReader(buf)
	want := []uint64{1, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	for i, b := range want {
		if got := fr.BitAt(i); got != b {
			t.Fatalf("BitAt(%d) = %d, want %d", i, got, b)
		}
	}
	if fr.BitAt(16) != 0 || fr.BitAt(1<<30) != 0 {
		t.Fatal("out-of-range BitAt must read as zero")
	}
}

func TestFastReaderReset(t *testing.T) {
	fr := NewFastReader([]byte{0xAB})
	fr.Refill()
	fr.Consume(5)
	fr.Reset([]byte{0xCD, 0xEF})
	fr.Refill()
	if got := fr.Peek(16); got != 0xCDEF {
		t.Fatalf("Peek after Reset = %#x, want 0xcdef", got)
	}
	if fr.BitPos() != 0 || fr.TotalBits() != 16 {
		t.Fatalf("Reset state: pos=%d total=%d", fr.BitPos(), fr.TotalBits())
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("in-range read failed: %v", err)
	}
	if _, err := r.ReadBit(); err != ErrUnexpectedEOF {
		t.Fatalf("expected ErrUnexpectedEOF, got %v", err)
	}
}

func TestBitsRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0})
	if r.BitsRemaining() != 16 {
		t.Fatalf("BitsRemaining = %d, want 16", r.BitsRemaining())
	}
	r.ReadBits(5)
	if r.BitsRemaining() != 11 {
		t.Fatalf("BitsRemaining = %d, want 11", r.BitsRemaining())
	}
}

func TestPaddingIsZero(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0x7, 3) // 111, padded to 11100000
	buf := w.Bytes()
	if len(buf) != 1 || buf[0] != 0xE0 {
		t.Fatalf("buf = %#v, want [0xE0]", buf)
	}
}

// Property: any sequence of variable-width writes reads back identically.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(64)
		widths := make([]uint, n)
		values := make([]uint64, n)
		w := NewWriter(0)
		for i := 0; i < n; i++ {
			widths[i] = uint(1 + r.Intn(33))
			values[i] = r.Uint64() & ((1 << widths[i]) - 1)
			w.WriteBits(values[i], widths[i])
		}
		rd := NewReader(w.Bytes())
		for i := 0; i < n; i++ {
			v, err := rd.ReadBits(widths[i])
			if err != nil || v != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// bitByBitWriter is the writer this package shipped before the Writer
// became word-at-a-time: one bit per step, taking the n low bits of v.
// The Writer must emit exactly its bytes.
type bitByBitWriter struct {
	buf  []byte
	cur  byte
	nCur uint
}

func (w *bitByBitWriter) writeBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.cur = w.cur<<1 | byte(v>>uint(i)&1)
		if w.nCur++; w.nCur == 8 {
			w.buf = append(w.buf, w.cur)
			w.cur, w.nCur = 0, 0
		}
	}
}

func (w *bitByBitWriter) bitLen() int { return len(w.buf)*8 + int(w.nCur) }

func (w *bitByBitWriter) bytes() []byte {
	if w.nCur > 0 {
		return append(w.buf, w.cur<<(8-w.nCur))
	}
	return w.buf
}

// TestWriterMatchesBitByBit drives the Writer and the bit-by-bit reference
// with the same random (v, n) runs — widths from 0 to 64 with the edge
// widths over-represented, v carrying garbage above bit n — and compares
// BitLen after every write and the bytes at the end.
func TestWriterMatchesBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	edges := []uint{0, 1, 7, 8, 9, 31, 32, 33, 63, 64}
	for run := 0; run < 2000; run++ {
		w, ref := NewWriter(rng.Intn(4)), &bitByBitWriter{}
		for k := rng.Intn(200); k > 0; k-- {
			n := uint(rng.Intn(65))
			if rng.Intn(3) == 0 {
				n = edges[rng.Intn(len(edges))]
			}
			v := rng.Uint64() // bits above n are garbage and must be ignored
			if n == 1 && rng.Intn(2) == 0 {
				w.WriteBit(uint(v))
			} else {
				w.WriteBits(v, n)
			}
			ref.writeBits(v, n)
			if w.BitLen() != ref.bitLen() {
				t.Fatalf("run %d: BitLen = %d after a %d-bit write, want %d", run, w.BitLen(), n, ref.bitLen())
			}
		}
		if got, want := w.Bytes(), ref.bytes(); !bytes.Equal(got, want) {
			t.Fatalf("run %d: bytes differ\n got  %x\n want %x", run, got, want)
		}
	}
}

// A count above 64 used to write n-64 zero bits ahead of v; the Reader
// has long refused such counts, and now the Writer does too.
func TestWriteBitsRejectsHugeCount(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0x5, 3)
	defer func() {
		if r := recover(); r != ErrBitCount {
			t.Fatalf("WriteBits(_, 65) recovered %v, want a panic with ErrBitCount", r)
		}
		// The refused call must not have written anything.
		if w.BitLen() != 3 {
			t.Fatalf("BitLen after the refused write = %d, want 3", w.BitLen())
		}
	}()
	w.WriteBits(1, 65)
}

func BenchmarkWriteBits(b *testing.B) {
	// Code lengths as a peaked Huffman stream has them: mostly 1-4 bits.
	rng := rand.New(rand.NewSource(1))
	widths := make([]uint8, 1<<16)
	bits := 0
	for i := range widths {
		widths[i] = uint8(1 + min(int(rng.ExpFloat64()*2), 20))
		bits += int(widths[i])
	}
	b.SetBytes(int64(bits / 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewWriter(bits/8 + 8)
		for j, n := range widths {
			w.WriteBits(uint64(j), uint(n))
		}
		if len(w.Bytes()) == 0 {
			b.Fatal("nothing written")
		}
	}
}

// BitLen returns the number of bits written so far.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.nAcc) }

// ReadBits returns the next n bits as the low bits of a uint64,
// most significant first. n must be at most 64; larger counts return
// ErrBitCount rather than silently truncating the high bits.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, ErrBitCount
	}
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// BitsRemaining reports how many unread bits remain.
func (r *Reader) BitsRemaining() int {
	return (len(r.buf)-r.pos)*8 - int(r.bit)
}
