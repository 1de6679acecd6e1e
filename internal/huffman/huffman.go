// Package huffman implements a canonical Huffman coder for the quantization
// bin streams produced by the SZ-style compressors in this repository.
//
// Symbols are uint32 values (quantization bin indices). The encoded form is
// self-describing: a compact header stores the code-length table for the
// symbols that actually occur, followed by the MSB-first bitstream. The
// decoder rebuilds the canonical code from the lengths alone.
//
// Neither direction touches a map per symbol. The encode side (code.go)
// histograms by flat counting over the observed symbol window, keeps code
// lengths and canonical codes in slices parallel to the sorted symbols,
// and emits through a dense code[symbol-base] table into the
// word-at-a-time bit writer; alphabets wider than the window take sorted
// sparse forms. The decode side (fast.go) reads several symbols per load
// of a multi-symbol table fed by the word-at-a-time bit reader. The
// map-based encoder and the bit-by-bit decoder these replaced live on as
// test oracles.
package huffman

import (
	"encoding/binary"
	"errors"

	"qoz/internal/pool"
)

// maxCodeLen bounds canonical code lengths. Quantization-bin histograms are
// strongly peaked, so depth never approaches this in practice; the bound
// exists to keep decoder tables small and reject corrupt streams.
const maxCodeLen = 58

var errCorrupt = errors.New("huffman: corrupt stream")

// maxTrivialRun bounds the symbol count accepted for table-less constant
// runs, whose headers carry no payload to validate the count against.
const maxTrivialRun = 1 << 40

// Encode compresses the symbol stream as a single segment: the uvarint
// symbol count, the table header (BuildTable(symbols).AppendHeader), then
// the bitstream EncodeSegment writes after its count. The output is
// independent of any out-of-band state; Decode(Encode(s)) == s.
func Encode(symbols []uint32) []byte {
	var t Table
	bits := t.build(countSymbols(1, symbols))
	// The header is sized as three bytes an entry (a wider one grows it);
	// the bitstream's size is exact.
	buf := make([]byte, 0, 16+3*len(t.syms)+(bits+7)/8)
	buf = t.AppendHeader(binary.AppendUvarint(buf, uint64(len(symbols))))
	return t.appendBits(buf, symbols, nil)
}

// appendCodeEntries serializes a canonical code's (symbol, length) pairs:
// per symbol a delta-coded id and its length. Symbols within a length
// class are increasing, but across classes they may go backwards, so
// deltas after the first are zig-zag coded.
func appendCodeEntries(dst []byte, syms []uint32, lens []uint8) []byte {
	prev := uint32(0)
	for i, s := range syms {
		delta := uint64(s)
		if i > 0 {
			delta = zigzag(int64(s) - int64(prev))
		}
		dst = binary.AppendUvarint(dst, delta)
		dst = append(dst, lens[i])
		prev = s
	}
	return dst
}

// Decode reverses Encode: the count, the table (ParseTable), then the
// bitstream through the framing DecodeSegment uses. Symbols decode
// through the multi-symbol table fed by a word-at-a-time bit reader; the
// bit-by-bit decoder it replaced lives on in reference_test.go as the
// oracle the differential tests and fuzzer pin it against.
func Decode(buf []byte) ([]uint32, error) {
	return decodeStream(buf, (*Table).decodeInto)
}

// decodeStream reads a single-segment stream with the given bitstream
// decoder.
func decodeStream(buf []byte, decode decodeFunc) ([]uint32, error) {
	n, m := binary.Uvarint(buf)
	if m <= 0 {
		return nil, errCorrupt
	}
	t, bits, err := ParseTable(buf[m:])
	if err != nil {
		return nil, err
	}
	defer t.Release()
	return t.decodeBits(n, bits, decode)
}

// decodeFunc decodes n symbols from a bitstream into out[:n] and returns
// the number of bits it read: decodeInto, or in the tests its bit-by-bit
// oracle.
type decodeFunc func(t *Table, bits []byte, n uint64, out []uint32) (int, error)

// decodeBits is the framing a stream and a segment share once their count
// n is read and their table t is known: bits must be exactly the
// bitstream of n symbols, zero-padded to a whole byte (the padding bits'
// values are not checked). A run of no symbols, or of a table with fewer
// than two, has no bitstream. Anything else — bytes past the bitstream
// included — is errCorrupt.
func (t *Table) decodeBits(n uint64, bits []byte, decode decodeFunc) ([]uint32, error) {
	if n == 0 || len(t.syms) < 2 {
		switch {
		case len(bits) != 0:
			return nil, errCorrupt
		case n == 0:
			return []uint32{}, nil
		case len(t.syms) == 0:
			return nil, errCorrupt
		case n > maxTrivialRun:
			// A constant run carries no bitstream, so n cannot be
			// validated against one; still refuse counts no real field
			// reaches rather than attempt a multi-terabyte allocation.
			return nil, errCorrupt
		}
		out := pool.Slab[uint32](int(n))
		for i := range out {
			out[i] = t.syms[0]
		}
		return out, nil
	}
	// With two or more distinct symbols every decoded symbol consumes at
	// least one bit, so a count the bitstream cannot hold is rejected
	// before the output allocation.
	if n > uint64(len(bits))*8 {
		return nil, errCorrupt
	}
	out := pool.Slab[uint32](int(n))
	used, err := decode(t, bits, n, out)
	if err == nil && (used+7)/8 != len(bits) {
		err = errCorrupt
	}
	if err != nil {
		pool.PutSlab(out)
		return nil, err
	}
	return out, nil
}

func zigzag(v int64) uint64 {
	return uint64((v << 1) ^ (v >> 63))
}

func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// EstimateBits returns the total entropy-coded size in bits that Encode
// would produce for the stream, excluding the header. It is used by the
// online tuner for cheap bit-rate estimation.
func EstimateBits(symbols []uint32) int {
	h := countSymbols(1, symbols)
	if len(h.syms) < 2 {
		return 0
	}
	return payloadBits(h.freq, codeLengths(h.freq))
}
