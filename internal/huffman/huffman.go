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

	"qoz/internal/bitio"
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

// Encode compresses the symbol stream. The output is independent of any
// out-of-band state; Decode(Encode(s)) == s.
func Encode(symbols []uint32) []byte {
	h := countSymbols(1, symbols)
	header := make([]byte, 0, 16+3*len(h.syms))
	header = binary.AppendUvarint(header, uint64(len(symbols)))
	header = binary.AppendUvarint(header, uint64(len(h.syms)))
	if len(h.syms) == 0 {
		return header
	}
	if len(h.syms) == 1 {
		// Single distinct symbol: no bitstream is needed.
		return binary.AppendUvarint(header, uint64(h.syms[0]))
	}
	c := buildCode(h)
	header = appendCodeEntries(header, c.syms, c.lens)

	w := bitio.NewWriter(len(header) + (c.bits+7)/8)
	writeBytes(w, header)
	c.enc.emit(w, symbols)
	return w.Bytes()
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

// Decode reverses Encode. Symbols decode through the multi-symbol table
// fed by a word-at-a-time bit reader; the bit-by-bit decoder it replaced
// lives on in reference_test.go as the oracle the differential tests and
// fuzzer pin it against.
func Decode(buf []byte) ([]uint32, error) {
	t, n, payload, out, err := parseStream(buf)
	if err != nil || t == nil {
		return out, err
	}
	defer t.Release()
	out = pool.Uint32s(int(n))
	if _, err := t.decodeInto(payload, n, out); err != nil {
		pool.PutUint32s(out)
		return nil, err
	}
	return out, nil
}

// parseStream splits a single-segment stream — uvarint symbol count, then
// a table header as ParseTable reads it, then the bitstream — into its
// canonical table, symbol count, and entropy payload. Trivial streams
// (fewer than two distinct symbols carry no bitstream) are decoded
// directly: the returned table is nil and out holds the result.
func parseStream(buf []byte) (t *Table, n uint64, payload []byte, out []uint32, err error) {
	n, m := binary.Uvarint(buf)
	if m <= 0 {
		return nil, 0, nil, nil, errCorrupt
	}
	t, rest, err := ParseTable(buf[m:])
	if err != nil {
		return nil, 0, nil, nil, err
	}
	switch len(t.syms) {
	case 0:
		if n != 0 {
			return nil, 0, nil, nil, errCorrupt
		}
		return nil, 0, nil, []uint32{}, nil
	case 1:
		// A constant run carries no bitstream, so n cannot be validated
		// against a payload; still refuse counts no real field reaches
		// rather than attempting a multi-terabyte allocation.
		if n > maxTrivialRun {
			return nil, 0, nil, nil, errCorrupt
		}
		out = pool.Uint32s(int(n))
		for i := range out {
			out[i] = t.syms[0]
		}
		return nil, 0, nil, out, nil
	}
	// With at least two distinct symbols every decoded symbol consumes at
	// least one payload bit; reject symbol counts the payload cannot hold
	// before allocating the output (the scalar decoder would only discover
	// this at EOF, after the allocation).
	if n > uint64(len(rest))*8 {
		return nil, 0, nil, nil, errCorrupt
	}
	return t, n, rest, nil, nil
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
