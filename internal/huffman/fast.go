package huffman

import (
	"qoz/internal/bitio"
)

// lutBits caps the width of the direct-lookup decode table. Quantization
// bin histograms are strongly peaked, so in practice nearly every code is
// shorter than this and decodes with a single table load; longer codes
// fall back to the exact bit-by-bit canonical scan. 12 bits keeps the
// table at 4096 entries (~20 KiB), comfortably inside L1/L2.
const lutBits = 12

// lut is a flat decode table for a canonical code: index the next
// lut.bits of the stream and read off the matched symbol and its code
// length. Entries whose shortest matching code is longer than lut.bits
// (or that match no code at all, in hostile tables) carry length zero and
// route to the fallback scan.
type lut struct {
	bits uint
	sym  []uint32
	len  []uint8
}

// newLUT builds the flat table for the canonical code described by the
// same (syms, count, firstCode, firstSym) arrays the bit-by-bit reference
// decoder walks. The fill replicates the reference's matching rule
// exactly: scanning lengths in increasing order, the j-th code of length
// l is firstCode[l]+j and decodes to syms[firstSym[l]+j], and the
// shortest match wins. Codes that no l-bit pattern can equal (possible
// only in hostile headers) are skipped, mirroring the reference's
// unsigned range check never matching them.
func newLUT(syms []uint32, count *[maxCodeLen + 1]int, firstCode *[maxCodeLen + 2]uint64, firstSym *[maxCodeLen + 2]int) *lut {
	maxL := 0
	for l := 1; l <= maxCodeLen; l++ {
		if count[l] > 0 {
			maxL = l
		}
	}
	b := uint(maxL)
	if b > lutBits {
		b = lutBits
	}
	if b == 0 {
		b = 1 // no codes at all: a 2-entry table of fallback markers
	}
	t := &lut{bits: b, sym: make([]uint32, 1<<b), len: make([]uint8, 1<<b)}
	for l := 1; l <= int(b); l++ {
		for j := 0; j < count[l]; j++ {
			code := firstCode[l] + uint64(j)
			if code>>uint(l) != 0 {
				continue // not representable in l bits; unreachable code
			}
			lo := code << (b - uint(l))
			hi := lo + 1<<(b-uint(l))
			s := syms[firstSym[l]+j]
			for e := lo; e < hi; e++ {
				if t.len[e] == 0 {
					t.sym[e] = s
					t.len[e] = uint8(l)
				}
			}
		}
	}
	return t
}

// decodeInto decodes n symbols from payload into out[:n] using the flat
// LUT for short codes and the exact reference scan for longer ones, and
// returns the number of payload bits consumed. It is bit-identical to
// decodeIntoReference, the bit-by-bit decoder kept in reference_test.go
// as its oracle: on success outputs and bit positions match, and on
// any corrupt or truncated input both return errCorrupt.
//
// EOF handling differs mechanically but not observably: the word reader
// serves zero bits past the end of payload, so a truncated final code may
// still "match" here — but a match of length l depends only on the first
// l bits, so any match using padding pushes the bit position past the end
// of the stream, which the final position check converts into the same
// errCorrupt the reference raises when ReadBit hits EOF mid-code.
//
// Not safe for concurrent use on one Table: the LUT is built lazily on
// first decode.
func (t *Table) decodeInto(payload []byte, n uint64, out []uint32) (int, error) {
	if t.lut == nil {
		t.lut = newLUT(t.syms, &t.count, &t.firstCode, &t.firstSym)
	}
	fr := bitio.NewFastReader(payload)
	total := fr.TotalBits()
	lbits := t.lut.bits
	lsym, llen := t.lut.sym, t.lut.len
	for i := uint64(0); i < n; i++ {
		fr.Refill()
		e := fr.Peek(lbits)
		if l := llen[e]; l != 0 {
			out[i] = lsym[e]
			fr.Consume(uint(l))
			continue
		}
		// No code of length <= lut.bits matches this prefix: run the
		// reference scan for long codes (rare) or report the hole.
		pos := fr.BitPos()
		var c uint64
		matched := false
		for l := 1; l <= maxCodeLen; l++ {
			if pos >= total {
				return 0, errCorrupt // reference: ReadBit EOF mid-code
			}
			c = c<<1 | fr.BitAt(pos)
			pos++
			if t.count[l] > 0 && c-t.firstCode[l] < uint64(t.count[l]) {
				out[i] = t.syms[t.firstSym[l]+int(c-t.firstCode[l])]
				fr.Consume(uint(l))
				matched = true
				break
			}
		}
		if !matched {
			return 0, errCorrupt // no match within maxCodeLen
		}
	}
	if fr.BitPos() > total {
		return 0, errCorrupt // a padded-zero match ran past the stream
	}
	return fr.BitPos(), nil
}
