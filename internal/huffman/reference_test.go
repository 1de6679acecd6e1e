package huffman

// The map-based encoder this package shipped before the encode side moved
// to slices, kept verbatim (names prefixed ref) as the oracle the
// differential tests and FuzzEncodeFastVsReference hold the production
// encoder to: same bytes, same bit counts. It must not be "improved".
//
// Below it, the bit-by-bit decoder the LUT fast path replaced, moved here
// unchanged as the oracle of the decode differentials and
// FuzzDecodeFastVsReference: the shipped package holds one decoder.

import (
	"encoding/binary"
	"sort"

	"qoz/internal/bitio"
)

// Encode compresses the symbol stream. The output is independent of any
// out-of-band state; Decode(refEncode(s)) == s.
func refEncode(symbols []uint32) []byte {
	freq := make(map[uint32]uint64, 256)
	for _, s := range symbols {
		freq[s]++
	}
	header := make([]byte, 0, 64)
	header = binary.AppendUvarint(header, uint64(len(symbols)))
	header = binary.AppendUvarint(header, uint64(len(freq)))
	if len(freq) == 0 {
		return header
	}
	if len(freq) == 1 {
		// Single distinct symbol: no bitstream is needed.
		for s := range freq {
			header = binary.AppendUvarint(header, uint64(s))
		}
		return header
	}

	lengths := refCodeLengths(freq)
	syms := make([]uint32, 0, len(lengths))
	for s := range lengths {
		syms = append(syms, s)
	}
	// Canonical order: by (length, symbol).
	sort.Slice(syms, func(i, j int) bool {
		li, lj := lengths[syms[i]], lengths[syms[j]]
		if li != lj {
			return li < lj
		}
		return syms[i] < syms[j]
	})
	codes := refAssignCodes(syms, lengths)

	// Header: per distinct symbol, delta-coded symbol id and its length.
	prev := uint32(0)
	for i, s := range syms {
		delta := uint64(s)
		if i > 0 {
			// Symbols within a length class are increasing, but across
			// classes they may go backwards; encode zig-zag deltas.
			delta = zigzag(int64(s) - int64(prev))
		}
		header = binary.AppendUvarint(header, delta)
		header = append(header, byte(lengths[s]))
		prev = s
	}

	w := bitio.NewWriter(len(symbols) / 2)
	for _, s := range symbols {
		c := codes[s]
		w.WriteBits(c.code, uint(c.len))
	}
	payload := w.Bytes()
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	out = append(out, payload...)
	return out
}

type refCodeEntry struct {
	code uint64
	len  uint8
}

// assignCodes produces canonical codes for symbols already sorted by
// (length, symbol).
func refAssignCodes(syms []uint32, lengths map[uint32]uint8) map[uint32]refCodeEntry {
	codes := make(map[uint32]refCodeEntry, len(syms))
	code := uint64(0)
	prevLen := uint8(0)
	for _, s := range syms {
		l := lengths[s]
		code <<= (l - prevLen)
		codes[s] = refCodeEntry{code: code, len: l}
		code++
		prevLen = l
	}
	return codes
}

// codeLengths runs the classic two-queue Huffman construction over the
// frequency table and returns the depth of each leaf, flattened to
// maxCodeLen if necessary (flattening preserves prefix-freeness by
// re-running with damped frequencies).
func refCodeLengths(freq map[uint32]uint64) map[uint32]uint8 {
	for damp := 0; ; damp++ {
		lengths, ok := refTryCodeLengths(freq, damp)
		if ok {
			return lengths
		}
	}
}

type refHnode struct {
	weight      uint64
	left, right int32 // indices into the node arena, -1 for leaves
	sym         uint32
}

func refTryCodeLengths(freq map[uint32]uint64, damp int) (map[uint32]uint8, bool) {
	leaves := make([]refHnode, 0, len(freq))
	for s, f := range freq {
		w := f >> uint(damp*4)
		if w == 0 {
			w = 1
		}
		leaves = append(leaves, refHnode{weight: w, left: -1, right: -1, sym: s})
	}
	sort.Slice(leaves, func(i, j int) bool {
		if leaves[i].weight != leaves[j].weight {
			return leaves[i].weight < leaves[j].weight
		}
		return leaves[i].sym < leaves[j].sym
	})

	arena := make([]refHnode, len(leaves), 2*len(leaves))
	copy(arena, leaves)
	// Two sorted queues: remaining leaves, and internal nodes (built in
	// non-decreasing weight order).
	leafQ := make([]int32, len(leaves))
	for i := range leafQ {
		leafQ[i] = int32(i)
	}
	var internQ []int32
	pop := func() int32 {
		switch {
		case len(leafQ) == 0:
			n := internQ[0]
			internQ = internQ[1:]
			return n
		case len(internQ) == 0:
			n := leafQ[0]
			leafQ = leafQ[1:]
			return n
		case arena[leafQ[0]].weight <= arena[internQ[0]].weight:
			n := leafQ[0]
			leafQ = leafQ[1:]
			return n
		default:
			n := internQ[0]
			internQ = internQ[1:]
			return n
		}
	}
	for len(leafQ)+len(internQ) > 1 {
		a := pop()
		b := pop()
		arena = append(arena, refHnode{
			weight: arena[a].weight + arena[b].weight,
			left:   a,
			right:  b,
		})
		internQ = append(internQ, int32(len(arena)-1))
	}
	root := pop()

	lengths := make(map[uint32]uint8, len(freq))
	type frame struct {
		node  int32
		depth uint8
	}
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := arena[f.node]
		if n.left < 0 {
			if f.depth > maxCodeLen {
				return nil, false
			}
			d := f.depth
			if d == 0 {
				d = 1 // degenerate single-node tree; callers avoid this case
			}
			lengths[n.sym] = d
			continue
		}
		if f.depth >= maxCodeLen {
			return nil, false
		}
		stack = append(stack, frame{n.left, f.depth + 1}, frame{n.right, f.depth + 1})
	}
	return lengths, true
}

// EstimateBits returns the total entropy-coded size in bits that Encode
// would produce for the stream, excluding the header. It is used by the
// online tuner for cheap bit-rate estimation.
func refEstimateBits(symbols []uint32) int {
	if len(symbols) == 0 {
		return 0
	}
	freq := make(map[uint32]uint64, 256)
	for _, s := range symbols {
		freq[s]++
	}
	if len(freq) == 1 {
		return 0
	}
	lengths := refCodeLengths(freq)
	bits := 0
	for s, f := range freq {
		bits += int(f) * int(lengths[s])
	}
	return bits
}

// refTable is the old Table's encode side: header fields plus the code
// map EncodeSegment looked symbols up in.
type refTable struct {
	Table
	codes map[uint32]refCodeEntry
}

func refBuildTable(symbols []uint32) *refTable {
	freq := make(map[uint32]uint64, 256)
	for _, s := range symbols {
		freq[s]++
	}
	t := &refTable{}
	if len(freq) == 0 {
		return t
	}
	if len(freq) == 1 {
		for s := range freq {
			t.syms = []uint32{s}
			t.lens = []uint8{0} // no bits per symbol
		}
		return t
	}
	lengths := refCodeLengths(freq)
	t.syms = make([]uint32, 0, len(lengths))
	for s := range lengths {
		t.syms = append(t.syms, s)
	}
	refSortCanonical(t.syms, lengths)
	t.codes = refAssignCodes(t.syms, lengths)
	t.lens = make([]uint8, len(t.syms))
	for i, s := range t.syms {
		t.lens[i] = lengths[s]
	}
	return t
}

func (t *refTable) EncodeSegment(symbols []uint32) []byte {
	out := binary.AppendUvarint(nil, uint64(len(symbols)))
	if len(t.syms) < 2 || len(symbols) == 0 {
		return out
	}
	w := bitio.NewWriter(len(symbols) / 2)
	for _, s := range symbols {
		c := t.codes[s]
		w.WriteBits(c.code, uint(c.len))
	}
	return append(out, w.Bytes()...)
}

// sortCanonical orders symbols by (code length, symbol id), the canonical
// order shared by the encoder and the header.
func refSortCanonical(syms []uint32, lengths map[uint32]uint8) {
	sort.Slice(syms, func(i, j int) bool {
		li, lj := lengths[syms[i]], lengths[syms[j]]
		if li != lj {
			return li < lj
		}
		return syms[i] < syms[j]
	})
}

// refCountSymbols is the histogram as countSymbols took it before it
// spread the counting over four tables: one flat table over the symbol
// window, or a sort when the window is too wide.
func refCountSymbols(runs ...[]uint32) histogram {
	lo, hi := uint32(1<<32-1), uint32(0)
	total := 0
	for _, run := range runs {
		total += len(run)
		for _, s := range run {
			lo = min(lo, s)
			hi = max(hi, s)
		}
	}
	if total == 0 {
		return histogram{}
	}
	h := histogram{total: total}
	if window := uint64(hi-lo) + 1; window <= maxFlatWindow {
		counts := make([]uint32, window)
		for _, run := range runs {
			for _, s := range run {
				counts[s-lo]++
			}
		}
		for i, c := range counts {
			if c != 0 {
				h.syms = append(h.syms, lo+uint32(i))
				h.freq = append(h.freq, uint64(c))
			}
		}
		return h
	}
	var sorted []uint32
	for _, run := range runs {
		sorted = append(sorted, run...)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		h.syms = append(h.syms, sorted[i])
		h.freq = append(h.freq, uint64(j-i))
		i = j
	}
	return h
}

// decodeReference is Decode with the original scalar bitstream decoder,
// kept as the differential-test oracle for Decode's LUT fast path: the
// framing around the bitstream is the one both share.
func decodeReference(buf []byte) ([]uint32, error) {
	return decodeStream(buf, (*Table).decodeIntoReference)
}

// decodeSegmentReference is DecodeSegment with the original scalar
// bitstream decoder, the oracle for DecodeSegment's fast path.
func (t *Table) decodeSegmentReference(buf []byte) ([]uint32, error) {
	return t.decodeSegment(buf, (*Table).decodeIntoReference)
}

// decodeIntoReference is the original bit-by-bit decoder, retained as the
// differential-test oracle for decodeInto. It must not be changed without
// changing the fast path to match.
func (t *Table) decodeIntoReference(payload []byte, n uint64, out []uint32) (int, error) {
	r := bitio.NewReader(payload)
	used := 0
	for i := uint64(0); i < n; i++ {
		var c uint64
		l := 0
		for {
			b, err := r.ReadBit()
			if err != nil {
				return 0, errCorrupt
			}
			used++
			c = c<<1 | uint64(b)
			l++
			if l > maxCodeLen {
				return 0, errCorrupt
			}
			if t.count[l] > 0 && c-t.firstCode[l] < uint64(t.count[l]) {
				out[i] = t.syms[t.firstSym[l]+int(c-t.firstCode[l])]
				break
			}
		}
	}
	return used, nil
}
