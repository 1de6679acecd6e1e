package container

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
)

// The section reader. A compressed section's stored bytes and its declared
// raw length are both in hand before it is read, so it inflates from one
// slice into another (RFC 1951): input bits come a word at a time from the
// stored slice, the Huffman codes of a block are built into tables the
// pooled inflater keeps, and output goes straight into a destination of
// exactly the declared length, which is also the LZ77 window. It accepts
// exactly the streams compress/flate's reader accepts, with the same
// bytes (FuzzInflate and TestInflateMatchesFlate hold it to that reader).

var (
	errPastSize   = errors.New("container: section inflates past its declared size")
	errShort      = errors.New("container: section inflates short of its declared size")
	errTrailing   = errors.New("container: bytes after the section's final DEFLATE block")
	errTruncated  = errors.New("container: truncated DEFLATE stream")
	errBadDeflate = errors.New("container: corrupt DEFLATE stream")
)

// maxExpansion is DEFLATE's largest ratio of output to input (about
// 1032:1, a 258-byte match in two bits); checkDeclared holds a section's
// declared raw length to it.
const maxExpansion = 1032

// checkDeclared reports whether rawLen is a length a DEFLATE stream of
// storedLen bytes can inflate to: a declared raw length far beyond that is
// hostile, and is refused before anything is sized from it.
func checkDeclared(rawLen uint64, storedLen int) bool {
	return rawLen <= maxExpansion*uint64(storedLen)+64
}

const (
	numLitLen = 288 // literal/length symbols a fixed block can code
	numDist   = 32  // distance symbols a fixed block can code
	maxLit    = 286 // literal/length symbols a dynamic block may declare
	maxDist   = 30  // distance symbols a dynamic block may declare
	numCL     = 19  // code-length symbols

	litRootBits  = 10
	distRootBits = 8
	maxCodeBits  = 15

	// A complete code of n symbols whose codes are longer than the root
	// fills each root prefix it uses with two codes or more, so it uses at
	// most n/2 of them, each with a subtable of at most 2^(15-root)
	// entries.
	litTableSize  = 1<<litRootBits + maxLit/2<<(maxCodeBits-litRootBits)
	distTableSize = 1<<distRootBits + maxDist/2<<(maxCodeBits-distRootBits)
)

// A table entry holds, from bit 16 up, a symbol or, with entryLink set, the
// offset of a subtable indexed by the bits past the root; its low four
// bits are the code's length in bits, zero where no code matches.
const (
	entryLink = 1 << 4
	lenMask   = 15
)

// huffTable is one block's decode table for a canonical code: a root table
// of 2^root entries indexed by the next root input bits, and after it one
// subtable of 2^sub entries per root prefix that longer codes share.
type huffTable struct {
	entries []uint32
	root    uint
	sub     uint
}

// build fills t, within storage, with the code that lengths gives each
// symbol (zero: no code), and reports false where compress/flate refuses the
// code: one that is over- or under-subscribed, except that a lone code
// of one bit is allowed. An empty code builds a table that matches
// nothing.
func (t *huffTable) build(lengths []uint8, storage []uint32, rootBits uint) bool {
	var count [maxCodeBits + 1]int
	minLen, maxLen := uint(0), uint(0)
	for _, n := range lengths {
		if n == 0 {
			continue
		}
		count[n]++
		if minLen == 0 || uint(n) < minLen {
			minLen = uint(n)
		}
		maxLen = max(maxLen, uint(n))
	}
	if maxLen == 0 {
		t.entries, t.root, t.sub = storage[:1], 0, 0
		t.entries[0] = 0
		return true
	}
	var next [maxCodeBits + 2]int
	code := 0
	for n := minLen; n <= maxLen; n++ {
		code <<= 1
		next[n] = code
		code += count[n]
	}
	if code != 1<<maxLen && !(code == 1 && maxLen == 1) {
		return false
	}
	root := min(rootBits, maxLen)
	t.root, t.sub = root, maxLen-root
	rootSize := 1 << root
	subs := 0
	if maxLen > root {
		// The prefixes of codes longer than the root follow those of the
		// shorter codes: next[root+1]>>1 is the first of them.
		subs = rootSize - next[root+1]>>1
	}
	t.entries = storage[:rootSize+subs<<t.sub]
	if code == 1 {
		clear(t.entries) // a lone code leaves half the table matching nothing
	}
	for i := 0; i < subs; i++ {
		prefix := next[root+1]>>1 + i
		t.entries[reverse(prefix, root)] = uint32(rootSize+i<<t.sub)<<16 | entryLink
	}
	for sym, n := range lengths {
		if n == 0 {
			continue
		}
		c := next[n]
		next[n]++
		entry := uint32(sym)<<16 | uint32(n)
		r := reverse(c, uint(n))
		if uint(n) <= root {
			for i := r; i < rootSize; i += 1 << n {
				t.entries[i] = entry
			}
			continue
		}
		at := int(t.entries[r&(rootSize-1)] >> 16)
		for i := r >> root; i < 1<<t.sub; i += 1 << (uint(n) - root) {
			t.entries[at+i] = entry
		}
	}
	return true
}

// reverse returns the low n bits of c in reverse order: DEFLATE packs a
// code from its most significant bit into the input's least significant
// bits first.
func reverse(c int, n uint) int {
	return int(bits.Reverse16(uint16(c)) >> (16 - n))
}

// fixedLit and fixedDist are the codes of a fixed-code block (RFC 1951
// §3.2.6). The distance code has all 32 five-bit codes, so that codes 30
// and 31 decode and are refused as compress/flate refuses them.
var fixedLit, fixedDist = func() (lit, dist huffTable) {
	var lens [numLitLen]uint8
	for i := range lens {
		switch {
		case i < 144:
			lens[i] = 8
		case i < 256:
			lens[i] = 9
		case i < 280:
			lens[i] = 7
		default:
			lens[i] = 8
		}
	}
	lit.build(lens[:], make([]uint32, 1<<9), litRootBits)
	var dlens [numDist]uint8
	for i := range dlens {
		dlens[i] = 5
	}
	dist.build(dlens[:], make([]uint32, 1<<5), distRootBits)
	return lit, dist
}()

// Length and distance symbols: the base of each, and how many extra bits
// add to it (RFC 1951 §3.2.5).
var (
	lengthBase = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
		35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase = [maxDist]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
		257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [maxDist]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
		7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
)

// codeOrder is the order a dynamic block lists its code-length code's
// lengths in.
var codeOrder = [numCL]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// inflater is the reusable section reader: its bit reader's state and the
// storage its blocks' decode tables are built into. A used inflater,
// failed or not, reads the next section as a new one does.
type inflater struct {
	in    []byte
	pos   int    // the next byte of in to load; past len(in), a zero byte
	bits  uint64 // loaded input bits not yet consumed, first in the low bit
	nbits uint   // how many of bits are loaded

	lit, dist, cl huffTable
	lens          [maxLit + maxDist]uint8
	litStore      [litTableSize]uint32
	distStore     [distTableSize]uint32
	clStore       [1 << 7]uint32
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// inflateSection inflates the DEFLATE stream src into exactly dst, which
// holds its declared raw length: it fails where the stream is corrupt,
// ends early, inflates to more or fewer bytes than dst holds, or is
// followed by bytes past its final block.
func inflateSection(dst, src []byte) error {
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	return in.inflate(dst, src)
}

// refill loads input until at least 56 bits are loaded, reporting false
// once the bits consumed have certainly run past the input's end: a
// stream reads as if followed by zero bytes, and inflate's end check
// catches a read past the end that stopped short of that. The fast path
// loads the whole bytes that fit in one word; the bits above nbits are
// always the input's next bits, so loading them again changes nothing.
func (in *inflater) refill() bool {
	if in.pos+8 <= len(in.in) {
		in.bits |= binary.LittleEndian.Uint64(in.in[in.pos:]) << in.nbits
		in.pos += int(63-in.nbits) >> 3
		in.nbits |= 56
		return true
	}
	for in.nbits <= 56 {
		if in.pos >= len(in.in)+8 {
			// A ninth zero byte is wanted, so at least a byte past the
			// end has been consumed.
			return false
		}
		if in.pos < len(in.in) {
			in.bits |= uint64(in.in[in.pos]) << in.nbits
		}
		in.pos++
		in.nbits += 8
	}
	return true
}

// need makes n bits, at most 56, available.
func (in *inflater) need(n uint) bool {
	return in.nbits >= n || in.refill()
}

// take consumes and returns the next n loaded bits.
func (in *inflater) take(n uint) uint32 {
	v := uint32(in.bits & (1<<n - 1))
	in.bits >>= n
	in.nbits -= n
	return v
}

// decode consumes the next code of t, with bits enough for its longest
// code loaded, and returns its symbol, or false where no code matches.
func (in *inflater) decode(t *huffTable) (int, bool) {
	e := t.entries[in.bits&(1<<t.root-1)]
	if e&entryLink != 0 {
		e = t.entries[int(e>>16)+int(in.bits>>t.root&(1<<t.sub-1))]
	}
	n := uint(e & lenMask)
	if n == 0 {
		return 0, false
	}
	in.bits >>= n
	in.nbits -= n
	return int(e >> 16), true
}

func (in *inflater) inflate(dst, src []byte) error {
	in.in, in.pos, in.bits, in.nbits = src, 0, 0, 0
	defer func() { in.in = nil }() // a pooled inflater must not keep the stream alive
	op := 0
	for final := false; !final; {
		if !in.need(3) {
			return errTruncated
		}
		final = in.take(1) == 1
		var err error
		switch in.take(2) {
		case 0:
			op, err = in.stored(dst, op)
		case 1:
			op, err = in.codes(dst, op, &fixedLit, &fixedDist)
		case 2:
			if err = in.header(); err == nil {
				op, err = in.codes(dst, op, &in.lit, &in.dist)
			}
		default:
			err = errBadDeflate
		}
		if err != nil {
			return err
		}
	}
	// The stream ends in the byte holding its last bit.
	used := 8*in.pos - int(in.nbits)
	switch {
	case used > 8*len(src):
		return errTruncated
	case (used+7)/8 != len(src):
		return errTrailing
	case op != len(dst):
		return errShort
	}
	return nil
}

// stored copies a stored block to dst at op, returning the new op.
func (in *inflater) stored(dst []byte, op int) (int, error) {
	// Drop the rest of the current byte; whole loaded bytes are given back.
	at := in.pos - int(in.nbits>>3)
	in.bits, in.nbits = 0, 0
	if at+4 > len(in.in) {
		return op, errTruncated
	}
	n := int(binary.LittleEndian.Uint16(in.in[at:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(in.in[at+2:]) {
		return op, errBadDeflate
	}
	at += 4
	if at+n > len(in.in) {
		return op, errTruncated
	}
	if op+n > len(dst) {
		return op, errPastSize
	}
	copy(dst[op:], in.in[at:at+n])
	in.pos = at + n
	return op + n, nil
}

// header reads a dynamic block's code lengths and builds its two codes.
func (in *inflater) header() error {
	if !in.need(14) {
		return errTruncated
	}
	nlit := int(in.take(5)) + 257
	ndist := int(in.take(5)) + 1
	nclen := int(in.take(4)) + 4
	if nlit > maxLit || ndist > maxDist {
		return errBadDeflate
	}
	var clLens [numCL]uint8
	for _, sym := range codeOrder[:nclen] {
		if !in.need(3) {
			return errTruncated
		}
		clLens[sym] = uint8(in.take(3))
	}
	if !in.cl.build(clLens[:], in.clStore[:], 7) {
		return errBadDeflate
	}
	lens := in.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if !in.need(7 + 7) {
			return errTruncated
		}
		sym, ok := in.decode(&in.cl)
		if !ok {
			return errBadDeflate
		}
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var rep int
		var fill uint8
		switch sym {
		case 16:
			if i == 0 {
				return errBadDeflate
			}
			rep, fill = 3+int(in.take(2)), lens[i-1]
		case 17:
			rep = 3 + int(in.take(3))
		default:
			rep = 11 + int(in.take(7))
		}
		if i+rep > len(lens) {
			return errBadDeflate
		}
		for range rep {
			lens[i] = fill
			i++
		}
	}
	if !in.lit.build(lens[:nlit], in.litStore[:], litRootBits) ||
		!in.dist.build(lens[nlit:], in.distStore[:], distRootBits) {
		return errBadDeflate
	}
	return nil
}

// codes inflates a Huffman-coded block's symbols into dst at op, up to and
// including its end-of-block code, returning the new op. It is decode,
// refill and take by hand, on locals the compiler keeps in registers.
func (in *inflater) codes(dst []byte, op int, lit, dist *huffTable) (int, error) {
	src, pos, bits, nbits := in.in, in.pos, in.bits, in.nbits
	defer func() { in.pos, in.bits, in.nbits = pos, bits, nbits }()
	litE, litRoot, litSub := lit.entries, lit.root, uint64(1)<<lit.sub-1
	distE, distRoot, distSub := dist.entries, dist.root, uint64(1)<<dist.sub-1
	litMask, distMask := uint64(1)<<litRoot-1, uint64(1)<<distRoot-1
	for {
		// A literal/length code, its extra bits, a distance code and its
		// extra bits take at most 15+5+15+13 = 48 bits.
		if nbits < 48 {
			if pos+8 <= len(src) {
				bits |= binary.LittleEndian.Uint64(src[pos:]) << nbits
				pos += int(63-nbits) >> 3
				nbits |= 56
			} else {
				in.pos, in.bits, in.nbits = pos, bits, nbits
				if !in.refill() {
					return op, errTruncated
				}
				pos, bits, nbits = in.pos, in.bits, in.nbits
			}
		}
		e := litE[bits&litMask]
		if e&entryLink != 0 {
			e = litE[int(e>>16)+int(bits>>litRoot&litSub)]
		}
		n := uint(e & lenMask)
		if n == 0 {
			return op, errBadDeflate
		}
		bits >>= n
		nbits -= n
		sym := int(e >> 16)
		if sym < 256 {
			if op >= len(dst) {
				return op, errPastSize
			}
			dst[op] = byte(sym)
			op++
			continue
		}
		if sym == 256 {
			return op, nil
		}
		sym -= 257
		if sym >= len(lengthBase) {
			return op, errBadDeflate
		}
		x := uint(lengthExtra[sym])
		length := int(lengthBase[sym]) + int(bits&(1<<x-1))
		bits >>= x
		nbits -= x

		e = distE[bits&distMask]
		if e&entryLink != 0 {
			e = distE[int(e>>16)+int(bits>>distRoot&distSub)]
		}
		n = uint(e & lenMask)
		d := int(e >> 16)
		if n == 0 || d >= maxDist {
			return op, errBadDeflate
		}
		bits >>= n
		nbits -= n
		x = uint(distExtra[d])
		distance := int(distBase[d]) + int(bits&(1<<x-1))
		bits >>= x
		nbits -= x
		if distance > op {
			return op, errBadDeflate
		}
		if op+length > len(dst) {
			return op, errPastSize
		}
		// Copy in runs that never overlap their source: each run doubles
		// the bytes already copied, and the source repeats with period
		// distance.
		from := op - distance
		for done := 0; done < length; {
			done += copy(dst[op+done:op+length], dst[from:op+done])
		}
		op += length
	}
}
