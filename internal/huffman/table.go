package huffman

import (
	"encoding/binary"
	"slices"
	"sync"

	"qoz/internal/bitio"
)

// Table is a canonical Huffman code shared across several independently
// decodable segments of one symbol stream. The level-segmented QoZ layout
// builds one table over every quantization bin of a stream and then
// encodes each interpolation level as its own byte-aligned segment, so a
// decoder holding only a prefix of the stream can stop after any level
// boundary without losing the global code's efficiency. Encode/Decode
// are the one-segment case: the same table header and segment, with the
// header between the segment's count and its bitstream.
type Table struct {
	syms []uint32 // canonical (length, symbol) order
	lens []uint8  // lens[i] is the code length of syms[i]

	// Encode side, present on tables made by BuildTable: the emit lookup,
	// and the mean code length over the build set, which sizes segment
	// buffers.
	enc      encoder
	meanBits float64

	// Canonical decode tables: per code length, how many codes, the first
	// code and the canonical index of its symbol.
	count     [maxCodeLen + 1]int
	firstCode [maxCodeLen + 2]uint64
	firstSym  [maxCodeLen + 2]int

	// Multi-symbol decode table (fast.go) over b-bit windows, built
	// lazily on first decode and handed back by Release. Guarded by
	// nothing: a Table is not safe for concurrent decoding.
	table *decodeTable
	bits  uint
	multi bool // some entry holds two or more symbols

	parsed bool // drawn from parsedTables by ParseTable, not yet released
}

// parsedTables recycles the tables ParseTable parses into, syms and lens
// storage and all: every brick decode parses a table of its own, and the
// previous brick's is released by then.
var parsedTables = sync.Pool{New: func() any { return new(Table) }}

// maxPooledSyms bounds the symbol storage a released table keeps: a
// hostile or unusually wide header's is left to the collector.
const maxPooledSyms = 1 << 16

// parsedTable returns a cleared table from parsedTables, keeping the
// storage of its symbols and lengths.
func parsedTable() *Table {
	t := parsedTables.Get().(*Table)
	*t = Table{syms: t.syms[:0], lens: t.lens[:0], parsed: true}
	return t
}

// BuildTable constructs the canonical code over all symbols that will be
// segment-encoded against it, given as one run or as the segments
// themselves. Symbols absent from the build set cannot be encoded later.
func BuildTable(segments ...[]uint32) *Table {
	return BuildTableWorkers(1, segments...)
}

// BuildTableWorkers is BuildTable for a caller with workers goroutines to
// spare: above one, the histogram is counted in halves on two of them,
// for each further share would clear another counter buffer as wide as
// the symbol window. The table is the same.
func BuildTableWorkers(workers int, segments ...[]uint32) *Table {
	t := &Table{}
	t.build(countSymbols(min(workers, 2), segments...))
	return t
}

// build fills t with the canonical code of h and returns the size in bits
// of the bitstream the code gives h's symbols.
func (t *Table) build(h histogram) int {
	switch len(h.syms) {
	case 0:
		return 0
	case 1:
		t.syms = h.syms
		t.lens = []uint8{0} // no bits per symbol
		return 0
	}
	c := buildCode(h)
	t.syms, t.lens = c.syms, c.lens
	t.enc = c.enc
	t.meanBits = float64(c.bits) / float64(h.total)
	t.buildDecode()
	return c.bits
}

// buildDecode fills the canonical decode tables from syms/lens (which must
// hold k >= 2 entries in canonical order).
func (t *Table) buildDecode() {
	for _, l := range t.lens {
		t.count[l]++
	}
	code := uint64(0)
	idx := 0
	for l := 1; l <= maxCodeLen; l++ {
		t.firstCode[l] = code
		t.firstSym[l] = idx
		code += uint64(t.count[l])
		idx += t.count[l]
		code <<= 1
	}
}

// AppendHeader serializes the table: uvarint k, then for k = 1 the
// uvarint symbol, for k >= 2 per symbol in canonical order its
// zig-zag-delta id and length byte. A single-segment stream (Encode)
// carries the same header after its count.
func (t *Table) AppendHeader(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t.syms)))
	if len(t.syms) == 0 {
		return dst
	}
	if len(t.syms) == 1 {
		return binary.AppendUvarint(dst, uint64(t.syms[0]))
	}
	return appendCodeEntries(dst, t.syms, t.lens)
}

// ParseTable reverses AppendHeader, returning the table and the bytes that
// follow the header. The table is parsed into recycled storage: the
// caller hands it back with Release once its last decode is done, and
// must not use it after.
func ParseTable(buf []byte) (*Table, []byte, error) {
	k, m := binary.Uvarint(buf)
	if m <= 0 {
		return nil, nil, errCorrupt
	}
	buf = buf[m:]
	if k == 0 {
		return parsedTable(), buf, nil
	}
	if k == 1 {
		s, m := binary.Uvarint(buf)
		if m <= 0 {
			return nil, nil, errCorrupt
		}
		t := parsedTable()
		t.syms = append(t.syms, uint32(s))
		t.lens = append(t.lens, 0)
		return t, buf[m:], nil
	}
	// Hostile-input hardening: every entry costs at least two bytes (a
	// uvarint delta and a length byte), so a count the buffer cannot hold
	// is rejected before allocating k-sized tables.
	if k > uint64(len(buf))/2 {
		return nil, nil, errCorrupt
	}
	t := parsedTable()
	t.syms = slices.Grow(t.syms, int(k))[:k]
	t.lens = slices.Grow(t.lens, int(k))[:k]
	prev := uint32(0)
	for i := 0; i < int(k); i++ {
		d, m := binary.Uvarint(buf)
		if m <= 0 || len(buf) < m+1 {
			t.Release()
			return nil, nil, errCorrupt
		}
		buf = buf[m:]
		l := buf[0]
		buf = buf[1:]
		if l == 0 || l > maxCodeLen {
			t.Release()
			return nil, nil, errCorrupt
		}
		var s uint32
		if i == 0 {
			s = uint32(d)
		} else {
			s = uint32(int64(prev) + unzigzag(d))
		}
		t.syms[i] = s
		t.lens[i] = l
		prev = s
	}
	t.buildDecode()
	return t, buf, nil
}

// EncodeSegment encodes one symbol run against the table as an
// independently decodable, byte-aligned segment: uvarint count, then the
// MSB-first bitstream (empty for tables of fewer than two symbols). Every
// symbol must have occurred in the table's build set; one that did not
// cannot be represented, and EncodeSegment panics naming it rather than
// return a segment that silently decodes to different symbols.
func (t *Table) EncodeSegment(symbols []uint32) []byte {
	return t.EncodeSegmentPieces(symbols, nil)
}

// PieceSymbols is how many symbols EncodeSegmentPieces codes between two
// pieces: at the one to two bits a quantization bin takes, a piece of
// 8–16 KiB. On 128³ fields at two workers 2^12 to 2^16 code and deflate
// in the same time, and 2^18 or more leave the deflater waiting longer
// (docs/PERFORMANCE.md, encode path §4).
const PieceSymbols = 1 << 16

// EncodeSegmentPieces is EncodeSegment that also hands the segment's
// bytes to piece as they complete, every PieceSymbols symbols and once
// more at the end, so a consumer — a DEFLATE stage on another goroutine —
// can start on them before the segment is done. The pieces, in order,
// concatenate to the returned segment; they share its memory, and the
// encoder writes none of a piece's bytes after handing it over. A nil
// piece function receives nothing.
func (t *Table) EncodeSegmentPieces(symbols []uint32, piece func([]byte)) []byte {
	// Levels differ in entropy, so the build set's mean code length only
	// estimates this segment's size; an eighth of slack keeps most
	// segments to a single allocation.
	est := int(float64(len(symbols)) * t.meanBits / 8)
	buf := make([]byte, 0, binary.MaxVarintLen64+est+est/8+16)
	return t.appendBits(binary.AppendUvarint(buf, uint64(len(symbols))), symbols, piece)
}

// appendBits appends to buf the MSB-first bitstream of symbols coded
// against t, zero-padded to a whole byte (nothing for tables of fewer
// than two symbols), handing pieces as EncodeSegmentPieces describes; the
// first piece starts at buf's first byte.
func (t *Table) appendBits(buf []byte, symbols []uint32, piece func([]byte)) []byte {
	if len(t.syms) < 2 {
		for _, s := range symbols {
			if len(t.syms) == 0 || s != t.syms[0] {
				panic(foreignSymbol(s))
			}
		}
		if piece != nil {
			piece(buf)
		}
		return buf
	}
	w := bitio.AppendWriter(buf)
	if piece == nil {
		t.enc.emit(w, symbols)
		return w.Bytes()
	}
	sent := 0
	for len(symbols) > 0 {
		n := min(len(symbols), PieceSymbols)
		t.enc.emit(w, symbols[:n])
		symbols = symbols[n:]
		done := w.Complete()
		piece(done[sent:len(done):len(done)])
		sent = len(done)
	}
	out := w.Bytes()
	piece(out[sent:])
	return out
}

// DecodeSegment reverses EncodeSegment: the uvarint count, then exactly
// the bitstream of that many symbols, ignoring the final byte's padding
// bits; bytes past the bitstream make the segment corrupt. Symbols decode
// through the multi-symbol table (its bit-by-bit oracle is in
// reference_test.go). Not safe for concurrent use on one Table.
func (t *Table) DecodeSegment(buf []byte) ([]uint32, error) {
	return t.decodeSegment(buf, (*Table).decodeInto)
}

// decodeSegment reads a segment with the given bitstream decoder.
func (t *Table) decodeSegment(buf []byte, decode decodeFunc) ([]uint32, error) {
	n, m := binary.Uvarint(buf)
	if m <= 0 {
		return nil, errCorrupt
	}
	return t.decodeBits(n, buf[m:], decode)
}
