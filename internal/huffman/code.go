package huffman

// The encode side: histogram, code lengths, canonical codes and the emit
// table, all held in slices so that no map is touched per symbol. The
// construction is the same two-queue Huffman build with the same
// tie-breaks the format has always used — the code a histogram yields is
// part of what the golden streams pin.

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"qoz/internal/bitio"
	"qoz/internal/pool"
)

// maxFlatWindow is the widest [min, max] symbol window counted and looked
// up through a flat array. Quantization bins sit within a few hundred of
// the radius (plus the escape symbol a radius below), far inside it; a
// wider alphabet takes the sorted sparse forms instead.
const maxFlatWindow = 1 << 18

// histogram is the distinct symbols of one or more runs in ascending
// order, with their occurrence counts in a parallel slice, and the number
// of symbols counted.
type histogram struct {
	syms  []uint32
	freq  []uint64
	total int
}

// laneBufs recycles countSymbols' counters. A buffer grows to exactly the
// four windows asked of it: an escape symbol a radius below the bins makes
// that half a megabyte, which internal/pool's power-of-two buckets would
// round up to a whole one, held per P and zeroed again on every refill.
var laneBufs = sync.Pool{New: func() any { return new([]uint32) }}

// countSymbols histograms the concatenation of runs. With parts above
// one, that many equal shares of the symbols are scanned and counted on
// as many goroutines and their counts summed: the same histogram in less
// time on idle cores. One part counts on the caller.
func countSymbols(parts int, runs ...[]uint32) histogram {
	shares := split(runs, parts)
	type extent struct {
		lo, hi uint32
		total  int
	}
	ext := make([]extent, len(shares))
	pool.Fork(len(shares), len(shares), func(_, j int) {
		ext[j].lo, ext[j].hi, ext[j].total = symbolRange(shares[j])
	})
	lo, hi, total := uint32(math.MaxUint32), uint32(0), 0
	for _, e := range ext {
		lo, hi, total = min(lo, e.lo), max(hi, e.hi), total+e.total
	}
	if total == 0 {
		return histogram{}
	}
	if window := uint64(hi-lo) + 1; window <= maxFlatWindow && total <= math.MaxUint32 {
		bufs := make([]*[]uint32, len(shares))
		pool.Fork(len(shares), len(shares), func(_, j int) { bufs[j] = countLanes(lo, int(window), shares[j]) })
		h := fromLanes(lo, int(window), total, bufs)
		for _, buf := range bufs {
			laneBufs.Put(buf)
		}
		return h
	}
	return sortedHistogram(runs, total)
}

// sortedHistogram histograms total symbols of runs whose window is too
// wide to count flat.
func sortedHistogram(runs [][]uint32, total int) histogram {
	sorted := make([]uint32, 0, total)
	for _, run := range runs {
		sorted = append(sorted, run...)
	}
	slices.Sort(sorted)
	h := histogram{total: total}
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

// split cuts the concatenation of runs into parts shares of equal symbol
// count, give or take one.
func split(runs [][]uint32, parts int) [][][]uint32 {
	if parts <= 1 {
		return [][][]uint32{runs}
	}
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	shares := make([][][]uint32, parts)
	j, done := 0, 0 // the share being filled; symbols placed so far
	for _, run := range runs {
		for len(run) > 0 {
			for j < parts-1 && done >= (j+1)*total/parts {
				j++
			}
			n := len(run)
			if j < parts-1 {
				n = min(n, (j+1)*total/parts-done)
			}
			shares[j] = append(shares[j], run[:n])
			run, done = run[n:], done+n
		}
	}
	return shares
}

// symbolRange returns the smallest and largest symbol of runs and how many
// there are.
func symbolRange(runs [][]uint32) (lo, hi uint32, total int) {
	lo = math.MaxUint32
	for _, run := range runs {
		total += len(run)
		for _, s := range run {
			lo = min(lo, s)
			hi = max(hi, s)
		}
	}
	return lo, hi, total
}

// countLanes counts runs, whose symbols lie in the window of the given
// size from lo, into a pooled buffer of four counters per symbol.
// Quantization bins pile onto one symbol, and a single counter per symbol
// would chain every increment of that bin behind the store of the one
// before. Four counters per symbol, taking the input in turn and summed at
// the end, keep the chains apart; they sit side by side so the sum is one
// pass.
func countLanes(lo uint32, window int, runs [][]uint32) *[]uint32 {
	buf := laneBufs.Get().(*[]uint32)
	if cap(*buf) < 4*window {
		*buf = make([]uint32, 4*window)
	}
	lanes := (*buf)[:4*window]
	clear(lanes)
	for _, run := range runs {
		for ; len(run) >= 4; run = run[4:] {
			lanes[4*(run[0]-lo)]++
			lanes[4*(run[1]-lo)+1]++
			lanes[4*(run[2]-lo)+2]++
			lanes[4*(run[3]-lo)+3]++
		}
		for _, s := range run {
			lanes[4*(s-lo)]++
		}
	}
	*buf = lanes
	return buf
}

// fromLanes sums countLanes' counters — of one buffer, or of several that
// counted shares of the input — into a histogram.
func fromLanes(lo uint32, window, total int, bufs []*[]uint32) histogram {
	// A narrow window is mostly occupied; a wide one (escapes far below
	// the bins) is mostly gaps, and its few symbols grow the slices.
	k := min(window, 64)
	h := histogram{syms: make([]uint32, 0, k), freq: make([]uint64, 0, k), total: total}
	for i := 0; i < 4*window; i += 4 {
		var c uint32
		for _, buf := range bufs {
			l := (*buf)[i : i+4 : i+4]
			c += l[0] + l[1] + l[2] + l[3]
		}
		if c != 0 {
			h.syms = append(h.syms, lo+uint32(i/4))
			h.freq = append(h.freq, uint64(c))
		}
	}
	return h
}

// codeLengths returns the Huffman code length of every histogram entry
// (at least two), flattened to maxCodeLen if necessary by re-running with
// damped frequencies, which preserves prefix-freeness.
func codeLengths(freq []uint64) []uint8 {
	for damp := 0; ; damp++ {
		if lens, ok := tryCodeLengths(freq, damp); ok {
			return lens
		}
	}
}

// tryCodeLengths runs the classic two-queue construction: leaves sorted
// by (weight, symbol), internal nodes created in non-decreasing weight
// order, a leaf preferred over an internal node of equal weight. Entry i
// of freq belongs to the i-th smallest symbol, so the index is the
// symbol tie-break.
func tryCodeLengths(freq []uint64, damp int) ([]uint8, bool) {
	k := len(freq)
	weight := make([]uint64, k)
	order := make([]int32, k) // order[r] = histogram index of the r-th leaf
	for i, f := range freq {
		order[i] = int32(i)
		weight[i] = max(f>>uint(damp*4), 1)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if weight[a] != weight[b] {
			if weight[a] < weight[b] {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	// Node r < k is leaf order[r]; nodes k.. are internal, in creation order.
	node := make([]uint64, k, 2*k-1)
	for r, i := range order {
		node[r] = weight[i]
	}
	parent := make([]int32, 2*k-1)
	leaf, intern := 0, k
	pop := func() int32 {
		if intern == len(node) || (leaf < k && node[leaf] <= node[intern]) {
			leaf++
			return int32(leaf - 1)
		}
		intern++
		return int32(intern - 1)
	}
	for len(node) < 2*k-1 {
		a := pop()
		b := pop()
		parent[a], parent[b] = int32(len(node)), int32(len(node))
		node = append(node, node[a]+node[b])
	}
	// A node's parent is created after it, so one descending sweep turns
	// parent links into depths.
	depth := make([]int32, 2*k-1)
	for n := 2*k - 3; n >= 0; n-- {
		depth[n] = depth[parent[n]] + 1
	}
	lens := make([]uint8, k)
	for r, i := range order {
		if depth[r] > maxCodeLen {
			return nil, false
		}
		lens[i] = uint8(depth[r])
	}
	return lens, true
}

// canonicalOrder returns the histogram indices sorted by (code length,
// symbol) — the canonical order shared by the codes and the header. The
// histogram is already symbol-ordered, so a counting sort on length is
// enough.
func canonicalOrder(lens []uint8) []int32 {
	var start [maxCodeLen + 2]int32
	for _, l := range lens {
		start[l+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	order := make([]int32, len(lens))
	for i, l := range lens {
		order[start[l]] = int32(i)
		start[l]++
	}
	return order
}

// canonCode is the canonical code of a histogram with at least two
// symbols: syms and lens in canonical order for the header and the decode
// tables, the emit lookup, and the exact size of the bitstream the code
// gives the histogram's symbols.
type canonCode struct {
	syms []uint32
	lens []uint8
	enc  encoder
	bits int
}

func buildCode(h histogram) canonCode {
	hl := codeLengths(h.freq)
	order := canonicalOrder(hl)
	c := canonCode{
		syms: make([]uint32, len(order)),
		lens: make([]uint8, len(order)),
		bits: payloadBits(h.freq, hl),
	}
	// Codes packed as code<<6 | length (lengths stay below 64, codes below
	// 2^58), in the histogram's ascending-symbol order.
	packed := make([]uint64, len(order))
	code := uint64(0)
	prevLen := uint8(0)
	for r, i := range order {
		l := hl[i]
		code <<= l - prevLen
		c.syms[r], c.lens[r], packed[i] = h.syms[i], l, code<<6|uint64(l)
		code++
		prevLen = l
	}
	c.enc = newEncoder(h.syms, packed)
	return c
}

// encoder maps symbols to their packed codes for the emit loop: a flat
// table over the code's [min, max] symbol window, or, for alphabets
// wider than maxFlatWindow, the ascending symbols with their codes beside.
type encoder struct {
	base   uint32
	dense  []uint64 // dense[s-base]; zero marks a symbol outside the code
	sparse []uint32 // ascending symbols, when the window is too wide
	codes  []uint64 // codes[i] belongs to sparse[i]
}

// newEncoder takes the symbols in ascending order.
func newEncoder(syms []uint32, packed []uint64) encoder {
	lo, hi := syms[0], syms[len(syms)-1]
	if window := uint64(hi-lo) + 1; window <= maxFlatWindow {
		e := encoder{base: lo, dense: make([]uint64, window)}
		for i, s := range syms {
			e.dense[s-lo] = packed[i]
		}
		return e
	}
	return encoder{sparse: syms, codes: packed}
}

// emit writes the code of every symbol. A symbol the code does not cover
// has no bits to write; emitting nothing for it would yield a stream that
// decodes to something else with no error anywhere, so it panics — only
// a caller that encodes against a table built from other data gets here.
func (e *encoder) emit(w *bitio.Writer, symbols []uint32) {
	if e.sparse != nil {
		for _, s := range symbols {
			i, ok := slices.BinarySearch(e.sparse, s)
			if !ok {
				panic(foreignSymbol(s))
			}
			w.WriteBits(e.codes[i]>>6, uint(e.codes[i]&63))
		}
		return
	}
	dense := e.dense
	for _, s := range symbols {
		i := s - e.base // wraps far out of range when s < base
		if i >= uint32(len(dense)) || dense[i] == 0 {
			panic(foreignSymbol(s))
		}
		w.WriteBits(dense[i]>>6, uint(dense[i]&63))
	}
}

func foreignSymbol(s uint32) string {
	return fmt.Sprintf("huffman: symbol %d is not in the table's build set", s)
}

// writeBytes appends whole bytes to a writer that is still byte-aligned.
func writeBytes(w *bitio.Writer, b []byte) {
	for _, c := range b {
		w.WriteBits(uint64(c), 8)
	}
}

// payloadBits sums frequency x code length over a histogram.
func payloadBits(freq []uint64, lens []uint8) int {
	bits := 0
	for i, f := range freq {
		bits += int(f) * int(lens[i])
	}
	return bits
}
