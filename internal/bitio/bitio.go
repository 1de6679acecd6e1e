// Package bitio implements MSB-first bit-level readers and writers used by
// the entropy-coding stages (Huffman coding of quantization bins, embedded
// bit-plane coding in the ZFP-like baseline). The one Writer and the
// FastReader move a 64-bit word at a time; Reader is the bit-by-bit form
// the ZFP decoder uses and the fast paths are tested against.
package bitio

import (
	"encoding/binary"
	"errors"
)

// ErrUnexpectedEOF is returned when a read runs past the end of the stream.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of stream")

// ErrBitCount reports a bit count above 64, which a uint64 cannot carry:
// ReadBits returns it, WriteBits panics with it.
var ErrBitCount = errors.New("bitio: bit count exceeds 64")

// Writer accumulates bits MSB-first into an in-memory buffer. Bits gather
// in a 64-bit accumulator that is flushed as eight big-endian bytes when
// it fills, so a write costs a shift and an or, not a loop over its bits.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	acc  uint64 // pending bits in the low nAcc positions, oldest highest
	nAcc uint   // bits pending in acc (0..63)
}

// NewWriter returns a Writer with capacity for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// AppendWriter returns a Writer whose bits follow the bytes of buf,
// written into its spare capacity first.
func AppendWriter(buf []byte) *Writer {
	return &Writer{buf: buf}
}

// WriteBit appends a single bit (the low bit of b).
func (w *Writer) WriteBit(b uint) { w.WriteBits(uint64(b), 1) }

// WriteBits appends the n low bits of v, most significant first; bits of
// v above bit n are ignored. n may be 0 and must be at most 64: a larger
// count is a caller bug and panics with ErrBitCount, mirroring the
// Reader, which rejects the same counts.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(ErrBitCount)
	}
	if n < 64 {
		v &= 1<<n - 1
	}
	free := 64 - w.nAcc // 1..64; acc is zero when free is 64
	if n < free {
		w.acc = w.acc<<n | v
		w.nAcc += n
		return
	}
	// The leading bits of v complete the pending word, which is flushed;
	// the rest start the next one.
	rest := n - free // 0..63
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<free|v>>rest)
	w.acc = v & (1<<rest - 1)
	w.nAcc = rest
}

// Complete returns the bytes no later write can change: the buffer up to
// the bits still pending in the accumulator. The caller may read them
// while the Writer goes on writing; they are a prefix of what Bytes
// returns.
func (w *Writer) Complete() []byte { return w.buf }

// Bytes flushes any partial byte (zero-padded) and returns the buffer.
// The Writer must not be used after calling Bytes.
func (w *Writer) Bytes() []byte {
	for w.nAcc >= 8 {
		w.nAcc -= 8
		w.buf = append(w.buf, byte(w.acc>>w.nAcc))
	}
	if w.nAcc > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.nAcc)))
	}
	w.acc, w.nAcc = 0, 0
	return w.buf
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos int  // byte position
	bit uint // bits already consumed from buf[pos] (0..7)
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// ReadBit returns the next bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrUnexpectedEOF
	}
	b := uint(r.buf[r.pos]>>(7-r.bit)) & 1
	r.bit++
	if r.bit == 8 {
		r.bit = 0
		r.pos++
	}
	return b, nil
}

// FastReader consumes bits MSB-first from a byte slice a 64-bit word at a
// time. It is the hot-path counterpart of Reader: instead of touching one
// byte per bit, it caches a big-endian 64-bit window of the stream and
// serves Peek/Consume out of it, refilling eight bytes at a time. Reads
// past the end of the buffer yield zero bits rather than an error; callers
// detect over-reads after the fact by comparing BitPos against TotalBits.
// This keeps the per-symbol loop branch-free while remaining bit-exact
// with Reader for every in-bounds access.
//
// Usage per decode step: call Refill, then Peek at most 57 bits (the
// window holds 64 bits but up to 7 may already be consumed after a
// refill), then Consume the bits actually used. Consume may legitimately
// run past the window (e.g. a long-code fallback that consumed up to
// maxCodeLen bits via BitAt); the next Refill renormalizes.
type FastReader struct {
	buf      []byte
	off      int    // byte offset of the cached window's first byte
	window   uint64 // 64 bits of buf starting at off, big-endian, zero-padded
	consumed uint   // bits consumed from the window start
}

// NewFastReader returns a FastReader over buf. The reader does not copy buf.
func NewFastReader(buf []byte) *FastReader {
	r := &FastReader{buf: buf}
	r.load()
	return r
}

// Reset re-points the reader at buf from bit position zero, reusing the
// receiver so pooled decode scratch does not allocate.
func (r *FastReader) Reset(buf []byte) {
	r.buf = buf
	r.off = 0
	r.consumed = 0
	r.load()
}

// load caches the 64-bit window starting at buf[off], zero-padding past
// the end of the buffer.
func (r *FastReader) load() {
	if r.off+8 <= len(r.buf) {
		r.window = binary.BigEndian.Uint64(r.buf[r.off:])
		return
	}
	var w uint64
	for i := 0; i < 8; i++ {
		w <<= 8
		if j := r.off + i; j < len(r.buf) {
			w |= uint64(r.buf[j])
		}
	}
	r.window = w
}

// Refill renormalizes the window so that at most 7 bits of it are already
// consumed, guaranteeing Peek can serve up to 57 bits.
func (r *FastReader) Refill() {
	if r.consumed < 8 {
		return
	}
	r.off += int(r.consumed >> 3)
	r.consumed &= 7
	r.load()
}

// Peek returns the next n bits without consuming them, MSB-first in the
// low bits of the result. Valid for n <= 57 after a Refill. Bits past the
// end of the stream read as zero.
func (r *FastReader) Peek(n uint) uint64 {
	return (r.window << r.consumed) >> (64 - n)
}

// Consume advances the reader by n bits.
func (r *FastReader) Consume(n uint) { r.consumed += n }

// BitPos returns the number of bits consumed since the start of the
// stream. It may exceed TotalBits if the caller consumed past the end;
// that is the over-read signal.
func (r *FastReader) BitPos() int { return r.off*8 + int(r.consumed) }

// TotalBits returns the size of the underlying stream in bits.
func (r *FastReader) TotalBits() int { return len(r.buf) * 8 }

// BitAt returns bit i of the stream (0 = MSB of the first byte),
// independent of the reader position. Out-of-range bits read as zero.
// It backs rare slow paths (long Huffman codes) that outrun the window.
func (r *FastReader) BitAt(i int) uint64 {
	if i >= len(r.buf)*8 {
		return 0
	}
	return uint64(r.buf[i>>3]>>(7-uint(i)&7)) & 1
}
