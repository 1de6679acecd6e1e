package huffman

import (
	"encoding/binary"

	"qoz/internal/bitio"
	"qoz/internal/pool"
)

// Table is a canonical Huffman code shared across several independently
// decodable segments of one symbol stream. The level-segmented QoZ layout
// builds one table over every quantization bin of a stream and then
// encodes each interpolation level as its own byte-aligned segment, so a
// decoder holding only a prefix of the stream can stop after any level
// boundary without losing the global code's efficiency. Encode/Decode
// remain the single-segment form; a Table factors the code out of the
// segment framing.
type Table struct {
	syms []uint32 // canonical (length, symbol) order
	lens []uint8  // lens[i] is the code length of syms[i]

	// Encode side, present on tables made by BuildTable: the emit lookup,
	// and the mean code length over the build set, which sizes segment
	// buffers.
	enc      encoder
	meanBits float64

	// Canonical decode tables, mirroring Decode's inline construction.
	count     [maxCodeLen + 1]int
	firstCode [maxCodeLen + 2]uint64
	firstSym  [maxCodeLen + 2]int

	// Multi-symbol decode table (fast.go) over b-bit windows, built
	// lazily on first decode and handed back by Release. Guarded by
	// nothing: a Table is not safe for concurrent decoding.
	table *decodeTable
	bits  uint
	multi bool // some entry holds two or more symbols
}

// BuildTable constructs the canonical code over all symbols that will be
// segment-encoded against it, given as one run or as the segments
// themselves. Symbols absent from the build set cannot be encoded later.
func BuildTable(segments ...[]uint32) *Table {
	h := countSymbols(segments...)
	t := &Table{}
	if len(h.syms) == 0 {
		return t
	}
	if len(h.syms) == 1 {
		t.syms = h.syms
		t.lens = []uint8{0} // no bits per symbol
		return t
	}
	c := buildCode(h)
	t.syms, t.lens = c.syms, c.lens
	t.enc = c.enc
	t.meanBits = float64(c.bits) / float64(h.total)
	t.buildDecode()
	return t
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

// Distinct returns the number of distinct symbols the table covers.
func (t *Table) Distinct() int { return len(t.syms) }

// AppendHeader serializes the table: uvarint k, then (for k >= 2) the same
// zig-zag-delta symbol/length entries the single-segment header uses, so
// the table costs exactly what Encode's header does minus the stream count.
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
// follow the header.
func ParseTable(buf []byte) (*Table, []byte, error) {
	k, m := binary.Uvarint(buf)
	if m <= 0 {
		return nil, nil, errCorrupt
	}
	buf = buf[m:]
	t := &Table{}
	if k == 0 {
		return t, buf, nil
	}
	if k == 1 {
		s, m := binary.Uvarint(buf)
		if m <= 0 {
			return nil, nil, errCorrupt
		}
		t.syms = []uint32{uint32(s)}
		t.lens = []uint8{0}
		return t, buf[m:], nil
	}
	// Hostile-input hardening: every entry costs at least two bytes (a
	// uvarint delta and a length byte), so a count the buffer cannot hold
	// is rejected before allocating k-sized tables.
	if k > uint64(len(buf))/2 {
		return nil, nil, errCorrupt
	}
	t.syms = make([]uint32, k)
	t.lens = make([]uint8, k)
	prev := uint32(0)
	for i := 0; i < int(k); i++ {
		d, m := binary.Uvarint(buf)
		if m <= 0 || len(buf) < m+1 {
			return nil, nil, errCorrupt
		}
		buf = buf[m:]
		l := buf[0]
		buf = buf[1:]
		if l == 0 || l > maxCodeLen {
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
	var count [binary.MaxVarintLen64]byte
	head := count[:binary.PutUvarint(count[:], uint64(len(symbols)))]
	if len(t.syms) < 2 {
		for _, s := range symbols {
			if len(t.syms) == 0 || s != t.syms[0] {
				panic(foreignSymbol(s))
			}
		}
		return append([]byte(nil), head...)
	}
	// Levels differ in entropy, so the build set's mean code length only
	// estimates this segment's size; an eighth of slack keeps most
	// segments to a single allocation.
	est := int(float64(len(symbols)) * t.meanBits / 8)
	w := bitio.NewWriter(len(head) + est + est/8 + 16)
	writeBytes(w, head)
	t.enc.emit(w, symbols)
	return w.Bytes()
}

// DecodeSegment reverses EncodeSegment, ignoring the final byte's padding
// bits. It returns the decoded symbols and the number of segment bytes
// consumed, so callers can verify segment framing. Symbols decode through
// the multi-symbol table (its bit-by-bit oracle is in reference_test.go).
// Not safe for concurrent use on one Table.
func (t *Table) DecodeSegment(buf []byte) ([]uint32, int, error) {
	n, m, payload, out, err := t.parseSegment(buf)
	if err != nil || out != nil {
		return out, m, err
	}
	out = pool.Uint32s(int(n))
	bits, err := t.decodeInto(payload, n, out)
	if err != nil {
		pool.PutUint32s(out)
		return nil, 0, err
	}
	return out, m + (bits+7)/8, nil
}

// parseSegment reads the segment's symbol count and locates its payload.
// Trivial segments (empty, or single-symbol tables with no bitstream) are
// decoded directly: out is non-nil and m is the consumed byte count.
func (t *Table) parseSegment(buf []byte) (n uint64, m int, payload []byte, out []uint32, err error) {
	n, m = binary.Uvarint(buf)
	if m <= 0 {
		return 0, 0, nil, nil, errCorrupt
	}
	if n == 0 {
		return 0, m, nil, []uint32{}, nil
	}
	if len(t.syms) == 0 {
		return 0, 0, nil, nil, errCorrupt
	}
	if len(t.syms) == 1 {
		if n > maxTrivialRun {
			return 0, 0, nil, nil, errCorrupt
		}
		out = pool.Uint32s(int(n))
		for i := range out {
			out[i] = t.syms[0]
		}
		return 0, m, nil, out, nil
	}
	// Hostile-input hardening: with two or more distinct symbols every
	// decoded symbol consumes at least one bit, so a count the remaining
	// bytes cannot hold is rejected before the output allocation.
	if n > uint64(len(buf)-m)*8 {
		return 0, 0, nil, nil, errCorrupt
	}
	return n, m, buf[m:], nil, nil
}
