package huffman

import (
	"sync"

	"qoz/internal/bitio"
)

// The decode table resolves several codes per load. Each of its 2^b
// entries (b from tableBits, at most maxTableBits) is what the canonical
// scan decodes from one b-bit window of the stream, packed in a uint64:
//
//	bits  0..11  the first symbol's canonical index into Table.syms
//	bits 12..44  up to entrySyms-1 more, idxBits each
//	bits 45..47  the symbol count; 0 routes the window to the exact scan
//	bits 48..63  per symbol, the window bit its code ends at (4 bits
//	             each); slots past the count repeat the last end, so the
//	             first field is the first code's length and the last one
//	             the entry's total
//
// Quantization-bin histograms are strongly peaked: a serve_scan brick
// codes at about 1.2 bits per symbol, so a 12-bit window holds several
// whole codes and an entry is nearly always full. Codes longer than b
// bits, and the patterns no code matches in hostile headers, leave the
// count at zero. The codes that can match form a prefix of canonical order
// whose windows do not overlap, so at most 2^b of them have b bits or
// fewer and every first index fits in 12 bits; a code after another in
// one window has at most b-1 bits, and its index fits in 11.
const (
	maxTableBits = 12
	entrySyms    = 4
	idxBits      = 11
	idxMask      = 1<<idxBits - 1
	firstMask    = 1<<maxTableBits - 1
	countShift   = maxTableBits + (entrySyms-1)*idxBits
	endShift     = countShift + 3
	totalShift   = endShift + 4*(entrySyms-1)
	// endsOnes has a 1 in every end field: l*endsOnes sets all of them to l.
	endsOnes = 1 << (4 * entrySyms) / 15
)

// decodeTables recycles table storage across tables: every brick decode
// parses a table of its own, and the previous brick's is dead by then.
var decodeTables = sync.Pool{New: func() any { return new(decodeTable) }}

// decodeTable is a table's pooled storage: the entries, and the symbols
// their indices name, copied into a fixed array so that no index needs a
// bounds check.
type decodeTable struct {
	entries [1 << maxTableBits]uint64
	syms    [1 << maxTableBits]uint32
}

// tableBits picks the table's width b: at most the longest code and
// maxTableBits, and narrower while that pays. Narrowing by one bit halves
// the build and sends the codes of exactly b bits to the exact scan. A
// Huffman stream's bits are close to uniform, so those codes carry about
// count[b]·2^-b of its symbols; on a 32³ brick's 2^15 symbols, with one
// scanned symbol costing about two built entries, the narrower table wins
// while count[b] < 2^(2b-17). Peaked bin histograms keep only their tails
// past 9 or 10 bits and shrink to that; wide alphabets keep all 12.
func (t *Table) tableBits() uint {
	b := uint(1) // no codes at all: a 2-entry table of fallback markers
	for l := uint(1); l <= maxCodeLen; l++ {
		if t.count[l] > 0 {
			b = min(l, maxTableBits)
		}
	}
	for b > 1 && t.count[b]<<17 < 1<<(2*b) {
		b--
	}
	return b
}

// buildDecodeTable fills a b-bit table from the same (count, firstCode,
// firstSym) arrays the bit-by-bit reference decoder walks, so it matches
// the reference's rule exactly: the j-th code of length l is
// firstCode[l]+j and decodes to syms[firstSym[l]+j], the shortest match
// wins, and a code no l-bit pattern can equal (hostile headers only) never
// matches.
//
// It runs in O(2^b). The codes of at most b bits that can match are a
// prefix of canonical order whose windows tile a prefix of the table
// (each code's range starts where the previous one ends), so one pass
// writes every single-symbol entry. A window's remaining symbols are
// those of the window that follows its first code, zero-padded: that
// window has more trailing zeros, so visiting windows by decreasing
// trailing-zero count finds it already built, and the entry is its first
// code followed by as much of it as fits. When no two codes fit in b bits
// the single-symbol entries are the whole table.
func (t *Table) buildDecodeTable(b uint) {
	t.table = decodeTables.Get().(*decodeTable)
	t.bits = b
	copy(t.table.syms[:], t.syms)
	dt := t.table.entries[:1<<b]

	w, minL := 0, uint(0)
	for l := uint(1); l <= b; l++ {
		for j := 0; j < t.count[l]; j++ {
			if (t.firstCode[l]+uint64(j))>>l != 0 {
				break // this code and every later one are unreachable
			}
			if minL == 0 {
				minL = l
			}
			single := uint64(t.firstSym[l]+j) | 1<<countShift | uint64(l)*endsOnes<<endShift
			for end := w + 1<<(b-l); w < end; w++ {
				dt[w] = single
			}
		}
	}
	clear(dt[w:])

	t.multi = minL > 0 && 2*minL <= b
	if !t.multi {
		return
	}
	single := dt[0]
	for range entrySyms - 1 { // the all-zero window repeats its code
		dt[0] = chain(single, dt[0], b)
	}
	for tz := int(b) - 1; tz >= 0; tz-- {
		for e := 1 << tz; e < len(dt); e += 2 << tz {
			if first := dt[e]; first != 0 {
				l := first >> endShift & 15
				dt[e] = chain(first, dt[uint64(e)<<l&(1<<b-1)], b)
			}
		}
	}
}

// chain appends to the single-symbol entry first the symbols of rest, the
// entry of the window that follows first's code, that still fit: at most
// entrySyms-1 of them, ending within the b-bit window. A symbol that does
// not fit ends the entry, as the scan would.
func chain(first, rest uint64, b uint) uint64 {
	l := first >> endShift & 15
	room := uint64(b) - l
	// Ends only grow along an entry, so the symbols that fit are the ones
	// whose end is within room.
	ends := rest >> endShift
	n := min(fits(ends&15, room)+fits(ends>>4&15, room)+fits(ends>>8&15, room), rest>>countShift&7)
	// rest's slots 0..n-1 become slots 1..n: its first index narrows to
	// idxBits (it fits: its code has at most b-1 bits), the others keep
	// their width. The ends past slot n repeat the last one kept (end 0
	// when none is).
	more := (rest&idxMask)<<maxTableBits | (rest>>maxTableBits)<<(maxTableBits+idxBits)
	last := ends << 4 >> (4 * n) & 15
	ends = ends&(1<<(4*n)-1) | last*endsOnes<<(4*n)&(1<<(4*(entrySyms-1))-1)
	return first&firstMask | more&(1<<(maxTableBits+idxBits*n)-1)&^firstMask | (n+1)<<countShift | (l*endsOnes+ends<<4)<<endShift
}

// fits is 1 when a code ending at bit end fits in room bits.
func fits(end, room uint64) uint64 {
	if end <= room {
		return 1
	}
	return 0
}

// Release returns the table's storage for the next table to use. A table
// BuildTable made hands back its decode table and stays usable: a later
// decode builds it again. A table ParseTable made is handed back whole and
// must not be used after; releasing it again does nothing.
func (t *Table) Release() {
	t.releaseDecodeTable()
	if t.parsed {
		t.parsed = false
		if cap(t.syms) <= maxPooledSyms {
			parsedTables.Put(t)
		}
	}
}

// releaseDecodeTable hands back the decode table's storage; a later decode
// builds it again.
func (t *Table) releaseDecodeTable() {
	if t.table != nil {
		decodeTables.Put(t.table)
		t.table = nil
	}
}

// decodeInto decodes n symbols from payload into out[:n] and returns the
// number of payload bits consumed. While a whole entry's worth of symbols
// remains, each table load writes entrySyms slots and advances by the
// entry's count; the tail goes one symbol per load, and windows the table
// cannot resolve take the exact reference scan. It is bit-identical to
// decodeIntoReference, the bit-by-bit decoder kept in reference_test.go
// as its oracle: on success outputs and bit positions match, and on any
// corrupt or truncated input both return errCorrupt.
//
// EOF handling differs mechanically but not observably: the word reader
// serves zero bits past the end of payload, so a truncated final code may
// still "match" here — but a match of length l depends only on the first
// l bits, so any match using padding pushes the bit position past the end
// of the stream, which the final position check converts into the same
// errCorrupt the reference raises when ReadBit hits EOF mid-code.
//
// Not safe for concurrent use on one Table: the decode table is built
// lazily on first decode.
func (t *Table) decodeInto(payload []byte, n uint64, out []uint32) (int, error) {
	if t.table == nil {
		t.buildDecodeTable(t.tableBits())
	}
	fr := bitio.NewFastReader(payload)
	total := fr.TotalBits()
	b := t.bits
	dt, syms := &t.table.entries, &t.table.syms
	// perRefill windows of b bits fit in the 57 a FastReader serves after
	// a Refill.
	perRefill := 57 / int(b)
	i := uint64(0)
	for t.multi && i+entrySyms <= n {
		fr.Refill()
		for k := 0; k < perRefill && i+entrySyms <= n; k++ {
			e := dt[fr.Peek(b)&firstMask]
			if c := e >> countShift & 7; c != 0 {
				o := out[i : i+entrySyms : i+entrySyms]
				o[0] = syms[e&firstMask]
				o[1] = syms[e>>maxTableBits&idxMask]
				o[2] = syms[e>>(maxTableBits+idxBits)&idxMask]
				o[3] = syms[e>>(maxTableBits+2*idxBits)&idxMask]
				i += c
				fr.Consume(uint(e >> totalShift))
				continue
			}
			if !t.scan(fr, total, &out[i]) {
				return 0, errCorrupt
			}
			i++
			break // the scan may have outrun the window
		}
	}
	for ; i < n; i++ {
		fr.Refill()
		e := dt[fr.Peek(b)&firstMask]
		if l := e >> endShift & 15; l != 0 {
			out[i] = syms[e&firstMask]
			fr.Consume(uint(l))
			continue
		}
		if !t.scan(fr, total, &out[i]) {
			return 0, errCorrupt
		}
	}
	if fr.BitPos() > total {
		return 0, errCorrupt // a padded-zero match ran past the stream
	}
	return fr.BitPos(), nil
}

// scan decodes one symbol into *out by the reference's bit-by-bit
// canonical scan, for codes longer than the table (rare) or windows no
// code matches, and reports false where the reference fails: EOF mid-code
// or no match within maxCodeLen.
func (t *Table) scan(fr *bitio.FastReader, total int, out *uint32) bool {
	pos := fr.BitPos()
	var c uint64
	for l := 1; l <= maxCodeLen; l++ {
		if pos >= total {
			return false // reference: ReadBit EOF mid-code
		}
		c = c<<1 | fr.BitAt(pos)
		pos++
		if t.count[l] > 0 && c-t.firstCode[l] < uint64(t.count[l]) {
			*out = t.syms[t.firstSym[l]+int(c-t.firstCode[l])]
			fr.Consume(uint(l))
			return true
		}
	}
	return false
}
