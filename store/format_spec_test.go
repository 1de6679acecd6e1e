package store

// This file pins docs/FORMAT.md: it decodes the golden fixtures in
// testdata/ with a hand-rolled parser that follows ONLY the offsets and
// rules documented there — deliberately sharing no code with format.go —
// and then cross-checks what the real reader produces. If a format
// change moves a documented byte, this fails before any golden data
// comparison does. Update docs/FORMAT.md and this file together, and
// only when introducing a new format version.

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"slices"
	"testing"
)

// specHeader is the §1.1 header as the spec documents it.
type specHeader struct {
	version byte
	codecID byte
	kind    byte
	dims    []int
	brick   []int
	bound   float64
	end     int // offset one past the header
}

// specParseHeader decodes §1.1 byte by byte.
func specParseHeader(t *testing.T, buf []byte) specHeader {
	t.Helper()
	if string(buf[0:4]) != "QOZB" {
		t.Fatalf("offset 0: magic %q, spec says \"QOZB\"", buf[0:4])
	}
	h := specHeader{version: buf[4], codecID: buf[6], kind: buf[7]}
	if buf[5] != 8 {
		t.Fatalf("offset 5: format id %d, spec says 8 (CodecBrick)", buf[5])
	}
	nd := int(buf[8])
	if nd < 1 || nd > 8 {
		t.Fatalf("offset 8: ndims %d outside 1..8", nd)
	}
	pos := 9
	read := func() []int {
		out := make([]int, nd)
		for i := range out {
			v, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				t.Fatalf("offset %d: bad uvarint", pos)
			}
			out[i] = int(v)
			pos += n
		}
		return out
	}
	h.dims = read()
	h.brick = read()
	h.bound = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
	h.end = pos + 8
	return h
}

// specNumBricks computes the §1.2 brick-grid size.
func specNumBricks(dims, brick []int) int {
	n := 1
	for i := range dims {
		n *= (dims[i] + brick[i] - 1) / brick[i]
	}
	return n
}

// specEntry is one brick's manifest entry.
type specEntry struct {
	off, length int64
	crc         uint32
}

// specParseV12 walks the §1.3 index and footer of a write-once store,
// returning per-brick entries with their implied offsets.
func specParseV12(t *testing.T, buf []byte, h specHeader) []specEntry {
	t.Helper()
	foot := buf[len(buf)-16:]
	if string(foot[8:]) != "QOZBIDX1" {
		t.Fatalf("trailer magic %q, spec says \"QOZBIDX1\"", foot[8:])
	}
	idxOff := binary.LittleEndian.Uint64(foot[:8])
	idx := buf[idxOff : len(buf)-16]
	nb, n := binary.Uvarint(idx)
	if n <= 0 || int(nb) != specNumBricks(h.dims, h.brick) {
		t.Fatalf("index declares %d bricks, grid implies %d", nb, specNumBricks(h.dims, h.brick))
	}
	idx = idx[n:]
	entries := make([]specEntry, nb)
	off := int64(h.end) // §1.3: brick 0 starts at the end of the header
	for i := range entries {
		l, n := binary.Uvarint(idx)
		if n <= 0 {
			t.Fatalf("brick %d: bad length uvarint", i)
		}
		idx = idx[n:]
		entries[i] = specEntry{off: off, length: int64(l), crc: binary.LittleEndian.Uint32(idx)}
		idx = idx[4:]
		off += int64(l)
	}
	if len(idx) != 0 {
		t.Fatalf("%d trailing bytes after the last index entry", len(idx))
	}
	if off != int64(idxOff) {
		t.Fatalf("cumulative payload lengths end at %d, index starts at %d", off, idxOff)
	}
	return entries
}

// specLevelSpan is one §1.5 level-table entry.
type specLevelSpan struct {
	bytes  int64
	prefix uint32
}

// specParseV4 walks the §1.5 index and footer of a v4 write-once store:
// the v1/v2 entry layout with each entry extended by a progressive level
// table.
func specParseV4(t *testing.T, buf []byte, h specHeader) ([]specEntry, [][]specLevelSpan) {
	t.Helper()
	foot := buf[len(buf)-16:]
	if string(foot[8:]) != "QOZBIDX4" {
		t.Fatalf("trailer magic %q, spec says \"QOZBIDX4\"", foot[8:])
	}
	idxOff := binary.LittleEndian.Uint64(foot[:8])
	idx := buf[idxOff : len(buf)-16]
	nb, n := binary.Uvarint(idx)
	if n <= 0 || int(nb) != specNumBricks(h.dims, h.brick) {
		t.Fatalf("index declares %d bricks, grid implies %d", nb, specNumBricks(h.dims, h.brick))
	}
	idx = idx[n:]
	entries := make([]specEntry, nb)
	tables := make([][]specLevelSpan, nb)
	off := int64(h.end)
	for i := range entries {
		l, n := binary.Uvarint(idx)
		if n <= 0 {
			t.Fatalf("brick %d: bad length uvarint", i)
		}
		idx = idx[n:]
		entries[i] = specEntry{off: off, length: int64(l), crc: binary.LittleEndian.Uint32(idx)}
		idx = idx[4:]
		off += int64(l)
		nlv, n := binary.Uvarint(idx)
		if n <= 0 || nlv > 64 {
			t.Fatalf("brick %d: bad level-table count", i)
		}
		idx = idx[n:]
		spans := make([]specLevelSpan, nlv)
		prev := int64(0)
		for j := range spans {
			b, n := binary.Uvarint(idx)
			if n <= 0 {
				t.Fatalf("brick %d level entry %d: bad uvarint", i, j)
			}
			idx = idx[n:]
			spans[j] = specLevelSpan{bytes: int64(b), prefix: binary.LittleEndian.Uint32(idx)}
			idx = idx[4:]
			if spans[j].bytes <= prev || spans[j].bytes > entries[i].length {
				t.Fatalf("brick %d: level span %d bytes %d not strictly increasing within the payload", i, j, spans[j].bytes)
			}
			prev = spans[j].bytes
		}
		if nlv > 0 {
			last := spans[nlv-1]
			if last.bytes != entries[i].length || last.prefix != entries[i].crc {
				t.Fatalf("brick %d: final level span (%d, %08x) must equal the full payload (%d, %08x)",
					i, last.bytes, last.prefix, entries[i].length, entries[i].crc)
			}
		}
		tables[i] = spans
	}
	if len(idx) != 0 {
		t.Fatalf("%d trailing bytes after the last index entry", len(idx))
	}
	if off != int64(idxOff) {
		t.Fatalf("cumulative payload lengths end at %d, index starts at %d", off, idxOff)
	}
	return entries, tables
}

// specStat is one §1.6 per-brick statistics record. The three moments
// stay raw IEEE-754 bits so comparisons are bit-exact.
type specStat struct {
	flags          byte
	min, max, mean uint64
	count, finite  uint64
}

// specParseStatsBlock decodes a §1.6 statistics block byte by byte:
// "QZST", nb fixed 41-byte records, and a trailing CRC-32 (IEEE) over
// everything before it.
func specParseStatsBlock(t *testing.T, blk []byte, nb int) []specStat {
	t.Helper()
	const recSize = 41
	if want := 4 + nb*recSize + 4; len(blk) != want {
		t.Fatalf("statistics block holds %d bytes, spec says 4 + %d×41 + 4 = %d", len(blk), nb, want)
	}
	if string(blk[:4]) != "QZST" {
		t.Fatalf("statistics magic %q, spec says \"QZST\"", blk[:4])
	}
	if crc32.ChecksumIEEE(blk[:len(blk)-4]) != binary.LittleEndian.Uint32(blk[len(blk)-4:]) {
		t.Fatal("statistics block CRC mismatch")
	}
	stats := make([]specStat, nb)
	pos := 4
	for i := range stats {
		r := blk[pos : pos+recSize]
		stats[i] = specStat{
			flags:  r[0],
			min:    binary.LittleEndian.Uint64(r[1:]),
			max:    binary.LittleEndian.Uint64(r[9:]),
			mean:   binary.LittleEndian.Uint64(r[17:]),
			count:  binary.LittleEndian.Uint64(r[25:]),
			finite: binary.LittleEndian.Uint64(r[33:]),
		}
		pos += recSize
	}
	return stats
}

// specParseV5 walks the §1.6 index and footer of a v5 write-once store:
// the v4 entry layout followed by the per-brick statistics block, which
// fills the index span exactly to the footer.
func specParseV5(t *testing.T, buf []byte, h specHeader) ([]specEntry, [][]specLevelSpan, []specStat) {
	t.Helper()
	foot := buf[len(buf)-16:]
	if string(foot[8:]) != "QOZBIDX5" {
		t.Fatalf("trailer magic %q, spec says \"QOZBIDX5\"", foot[8:])
	}
	idxOff := binary.LittleEndian.Uint64(foot[:8])
	idx := buf[idxOff : len(buf)-16]
	nb, n := binary.Uvarint(idx)
	if n <= 0 || int(nb) != specNumBricks(h.dims, h.brick) {
		t.Fatalf("index declares %d bricks, grid implies %d", nb, specNumBricks(h.dims, h.brick))
	}
	idx = idx[n:]
	entries := make([]specEntry, nb)
	tables := make([][]specLevelSpan, nb)
	off := int64(h.end)
	for i := range entries {
		l, n := binary.Uvarint(idx)
		if n <= 0 {
			t.Fatalf("brick %d: bad length uvarint", i)
		}
		idx = idx[n:]
		entries[i] = specEntry{off: off, length: int64(l), crc: binary.LittleEndian.Uint32(idx)}
		idx = idx[4:]
		off += int64(l)
		nlv, n := binary.Uvarint(idx)
		if n <= 0 || nlv > 64 {
			t.Fatalf("brick %d: bad level-table count", i)
		}
		idx = idx[n:]
		spans := make([]specLevelSpan, nlv)
		prev := int64(0)
		for j := range spans {
			b, n := binary.Uvarint(idx)
			if n <= 0 {
				t.Fatalf("brick %d level entry %d: bad uvarint", i, j)
			}
			idx = idx[n:]
			spans[j] = specLevelSpan{bytes: int64(b), prefix: binary.LittleEndian.Uint32(idx)}
			idx = idx[4:]
			if spans[j].bytes <= prev || spans[j].bytes > entries[i].length {
				t.Fatalf("brick %d: level span %d bytes %d not strictly increasing within the payload", i, j, spans[j].bytes)
			}
			prev = spans[j].bytes
		}
		if nlv > 0 {
			last := spans[nlv-1]
			if last.bytes != entries[i].length || last.prefix != entries[i].crc {
				t.Fatalf("brick %d: final level span (%d, %08x) must equal the full payload (%d, %08x)",
					i, last.bytes, last.prefix, entries[i].length, entries[i].crc)
			}
		}
		tables[i] = spans
	}
	// §1.6: the statistics block occupies the rest of the index span, to
	// the byte.
	stats := specParseStatsBlock(t, idx, int(nb))
	if off != int64(idxOff) {
		t.Fatalf("cumulative payload lengths end at %d, index starts at %d", off, idxOff)
	}
	return entries, tables, stats
}

// specBrickBoxes lists every brick's half-open box, in the row-major
// brick-grid order §1.2 defines.
func specBrickBoxes(dims, brick []int) [][2][]int {
	nd := len(dims)
	grid := make([]int, nd)
	for i := range dims {
		grid[i] = (dims[i] + brick[i] - 1) / brick[i]
	}
	var boxes [][2][]int
	cur := make([]int, nd)
	for {
		lo := make([]int, nd)
		hi := make([]int, nd)
		for i := range lo {
			lo[i] = cur[i] * brick[i]
			hi[i] = lo[i] + brick[i]
			if hi[i] > dims[i] {
				hi[i] = dims[i]
			}
		}
		boxes = append(boxes, [2][]int{lo, hi})
		k := nd - 1
		for ; k >= 0; k-- {
			cur[k]++
			if cur[k] < grid[k] {
				break
			}
			cur[k] = 0
		}
		if k < 0 {
			return boxes
		}
	}
}

// specCheckStats cross-checks a parsed statistics block against the
// reconstruction and the real reader: structural rules (§1.6), the
// error-bound envelope every decoded sample must satisfy against the
// recorded min/max of the originals, flag agreement with the non-finite
// points the reconstruction restores, and bit-exact agreement with
// Store.BrickStats.
func specCheckStats(t *testing.T, s *Store, stats []specStat, dims, brick []int, eb float64, recon []float64) {
	t.Helper()
	boxes := specBrickBoxes(dims, brick)
	if len(boxes) != len(stats) {
		t.Fatalf("%d statistics records for %d bricks", len(stats), len(boxes))
	}
	strides := make([]int, len(dims))
	sz := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = sz
		sz *= dims[i]
	}
	for i, st := range stats {
		if st.flags&^byte(0x0f) != 0 {
			t.Fatalf("brick %d: unknown flag bits %02x", i, st.flags)
		}
		if st.flags&1 == 0 {
			t.Fatalf("brick %d: writer-emitted record not marked valid", i)
		}
		lo, hi := boxes[i][0], boxes[i][1]
		points := 1
		for k := range lo {
			points *= hi[k] - lo[k]
		}
		if st.count != uint64(points) {
			t.Fatalf("brick %d: count %d, box holds %d points", i, st.count, points)
		}
		var nan, pinf, ninf int
		cur := append([]int(nil), lo...)
		for {
			g := 0
			for k := range cur {
				g += cur[k] * strides[k]
			}
			v := recon[g]
			switch {
			case math.IsNaN(v):
				nan++
			case math.IsInf(v, 1):
				pinf++
			case math.IsInf(v, -1):
				ninf++
			default:
				if st.finite > 0 {
					mn, mx := math.Float64frombits(st.min), math.Float64frombits(st.max)
					if v < mn-eb || v > mx+eb {
						t.Fatalf("brick %d: decoded %g escapes [min-eb, max+eb] = [%g, %g]", i, v, mn-eb, mx+eb)
					}
				}
			}
			k := len(cur) - 1
			for ; k >= 0; k-- {
				cur[k]++
				if cur[k] < hi[k] {
					break
				}
				cur[k] = lo[k]
			}
			if k < 0 {
				break
			}
		}
		// The envelope restores non-finite points exactly, so the flags and
		// the finite count must agree with the reconstruction.
		if (st.flags&2 != 0) != (nan > 0) || (st.flags&4 != 0) != (pinf > 0) || (st.flags&8 != 0) != (ninf > 0) {
			t.Fatalf("brick %d: flags %02x disagree with reconstruction (%d NaN, %d +Inf, %d -Inf)", i, st.flags, nan, pinf, ninf)
		}
		if st.finite != st.count-uint64(nan+pinf+ninf) {
			t.Fatalf("brick %d: finite %d, count %d with %d non-finite", i, st.finite, st.count, nan+pinf+ninf)
		}
		mn, mx, mean := math.Float64frombits(st.min), math.Float64frombits(st.max), math.Float64frombits(st.mean)
		if st.finite == 0 {
			if st.min != 0 || st.max != 0 || st.mean != 0 {
				t.Fatalf("brick %d: no finite samples but nonzero moments", i)
			}
		} else if !(mn <= mean && mean <= mx) {
			t.Fatalf("brick %d: mean %g outside [min, max] = [%g, %g]", i, mean, mn, mx)
		}
		rst, ok := s.BrickStats(i)
		if !ok {
			t.Fatalf("brick %d: real reader reports no statistics", i)
		}
		if math.Float64bits(rst.Min) != st.min || math.Float64bits(rst.Max) != st.max ||
			math.Float64bits(rst.Mean) != st.mean || rst.Count != st.count || rst.Finite != st.finite ||
			rst.HasNaN != (st.flags&2 != 0) || rst.HasPosInf != (st.flags&4 != 0) || rst.HasNegInf != (st.flags&8 != 0) {
			t.Fatalf("brick %d: real reader disagrees with the documented record: %+v vs %+v", i, rst, st)
		}
	}
}

// specFooter is the §1.4 48-byte generation footer.
type specFooter struct {
	manifestOff, manifestLen int64
	gen                      uint64
	prevOff                  int64
	manifestCRC              uint32
}

// specParseGenFooter decodes and validates the 48 bytes ending at end.
func specParseGenFooter(t *testing.T, buf []byte, end int64) specFooter {
	t.Helper()
	f := buf[end-48 : end]
	if string(f[40:]) != "QOZBGEN3" {
		t.Fatalf("footer at %d: trailer magic %q, spec says \"QOZBGEN3\"", end-48, f[40:])
	}
	if crc32.ChecksumIEEE(f[:36]) != binary.LittleEndian.Uint32(f[36:40]) {
		t.Fatalf("footer at %d: footerCRC mismatch", end-48)
	}
	ft := specFooter{
		manifestOff: int64(binary.LittleEndian.Uint64(f[0:])),
		manifestLen: int64(binary.LittleEndian.Uint64(f[8:])),
		gen:         binary.LittleEndian.Uint64(f[16:]),
		prevOff:     int64(binary.LittleEndian.Uint64(f[24:])),
		manifestCRC: binary.LittleEndian.Uint32(f[32:]),
	}
	if ft.manifestOff+ft.manifestLen != end-48 {
		t.Fatalf("footer at %d: manifest [%d,+%d) does not end at the footer", end-48, ft.manifestOff, ft.manifestLen)
	}
	return ft
}

// specParseManifest decodes a §1.4 generation manifest, returning any
// bytes past the last entry verbatim: a pre-statistics manifest has
// none, a current one carries the optional extension blocks
// (specSplitExtensions).
func specParseManifest(t *testing.T, man []byte, h specHeader) (gen uint64, dims []int, entries []specEntry, rest []byte) {
	t.Helper()
	if string(man[:4]) != "QZM3" {
		t.Fatalf("manifest magic %q, spec says \"QZM3\"", man[:4])
	}
	man = man[4:]
	gen, n := binary.Uvarint(man)
	man = man[n:]
	nd := int(man[0])
	if nd != len(h.dims) {
		t.Fatalf("manifest ndims %d, header has %d", nd, len(h.dims))
	}
	man = man[1:]
	dims = make([]int, nd)
	for i := range dims {
		v, n := binary.Uvarint(man)
		dims[i] = int(v)
		man = man[n:]
	}
	for i := 1; i < nd; i++ {
		if dims[i] != h.dims[i] {
			t.Fatalf("manifest extent %d = %d differs from the header's %d (only extent 0 may grow)", i, dims[i], h.dims[i])
		}
	}
	nb, n := binary.Uvarint(man)
	man = man[n:]
	if int(nb) != specNumBricks(dims, h.brick) {
		t.Fatalf("manifest declares %d bricks, committed extents imply %d", nb, specNumBricks(dims, h.brick))
	}
	entries = make([]specEntry, nb)
	for i := range entries {
		o, n := binary.Uvarint(man)
		man = man[n:]
		l, n := binary.Uvarint(man)
		man = man[n:]
		entries[i] = specEntry{off: int64(o), length: int64(l), crc: binary.LittleEndian.Uint32(man)}
		man = man[4:]
	}
	return gen, dims, entries, man
}

// specCheckPayloads verifies every entry's bounds, checksum, and §1.2
// payload framing magic.
func specCheckPayloads(t *testing.T, buf []byte, h specHeader, entries []specEntry, maxOff int64) {
	t.Helper()
	wantMagic := "QOZG" // §3 codec container
	if h.kind == 1 {
		wantMagic = "QZD1" // §4 float64 escape envelope
	}
	for i, e := range entries {
		if e.off < int64(h.end) || e.off+e.length > maxOff {
			t.Fatalf("brick %d: payload [%d,+%d) outside (header end %d, manifest %d)", i, e.off, e.length, h.end, maxOff)
		}
		p := buf[e.off : e.off+e.length]
		if crc32.ChecksumIEEE(p) != e.crc {
			t.Fatalf("brick %d: payload crc32 mismatch", i)
		}
		if string(p[:4]) != wantMagic {
			t.Fatalf("brick %d: payload magic %q, spec says %q for kind %d", i, p[:4], wantMagic, h.kind)
		}
	}
}

// readFixture loads a fixture pair.
func readFixture(t *testing.T, name, expected string) ([]byte, []byte) {
	t.Helper()
	buf, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatalf("golden fixture missing: %v", err)
	}
	exp, err := os.ReadFile("testdata/" + expected)
	if err != nil {
		t.Fatalf("golden expectation missing: %v", err)
	}
	return buf, exp
}

// TestFormatSpecV1 decodes the v1 golden fixture at documented offsets.
func TestFormatSpecV1(t *testing.T) {
	buf, exp := readFixture(t, "v1_f32.qozb", "v1_f32.expected.f32")
	h := specParseHeader(t, buf)
	if h.version != 1 || h.kind != 0 {
		t.Fatalf("v1 fixture: version %d kind %d", h.version, h.kind)
	}
	entries := specParseV12(t, buf, h)
	specCheckPayloads(t, buf, h, entries, int64(len(buf))-16)

	// The real reader agrees with the documented layout, bit-identically.
	s, err := Open(bytes.NewReader(buf), int64(len(buf)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.ReadField(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got)*4 != len(exp) {
		t.Fatalf("reconstruction holds %d points, expectation %d", len(got), len(exp)/4)
	}
	for i, v := range got {
		if math.Float32bits(v) != binary.LittleEndian.Uint32(exp[4*i:]) {
			t.Fatalf("point %d differs from the golden reconstruction", i)
		}
	}
}

// TestFormatSpecV2 decodes the v2 float64 golden fixture at documented
// offsets.
func TestFormatSpecV2(t *testing.T) {
	buf, exp := readFixture(t, "v2_f64.qozb", "v2_f64.expected.f64")
	h := specParseHeader(t, buf)
	if h.version != 2 || h.kind != 1 {
		t.Fatalf("v2 fixture: version %d kind %d", h.version, h.kind)
	}
	entries := specParseV12(t, buf, h)
	specCheckPayloads(t, buf, h, entries, int64(len(buf))-16)

	s, err := Open(bytes.NewReader(buf), int64(len(buf)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := ReadFieldT[float64](context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got)*8 != len(exp) {
		t.Fatalf("reconstruction holds %d points, expectation %d", len(got), len(exp)/8)
	}
	for i, v := range got {
		if math.Float64bits(v) != binary.LittleEndian.Uint64(exp[8*i:]) {
			t.Fatalf("point %d differs from the golden reconstruction", i)
		}
	}
}

// TestFormatSpecV4 decodes the v4 golden fixture at documented offsets,
// including every brick's progressive level table: each span's prefix CRC
// must cover exactly the payload prefix it declares, and the real reader's
// level-2 region read must equal the stride-2 subsample of the golden
// reconstruction bit-identically.
func TestFormatSpecV4(t *testing.T) {
	buf, exp := readFixture(t, "v4_f32.qozb", "v4_f32.expected.f32")
	h := specParseHeader(t, buf)
	if h.version != 4 || h.kind != 0 {
		t.Fatalf("v4 fixture: version %d kind %d", h.version, h.kind)
	}
	entries, tables := specParseV4(t, buf, h)
	specCheckPayloads(t, buf, h, entries, int64(len(buf))-16)
	for i, spans := range tables {
		if len(spans) == 0 {
			t.Fatalf("brick %d: the qoz codec always records a level table", i)
		}
		p := buf[entries[i].off : entries[i].off+entries[i].length]
		for j, sp := range spans {
			if crc32.ChecksumIEEE(p[:sp.bytes]) != sp.prefix {
				t.Fatalf("brick %d: level span %d prefix CRC does not cover its %d-byte prefix", i, j, sp.bytes)
			}
		}
	}

	s, err := Open(bytes.NewReader(buf), int64(len(buf)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.ReadField(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got)*4 != len(exp) {
		t.Fatalf("reconstruction holds %d points, expectation %d", len(got), len(exp)/4)
	}
	for i, v := range got {
		if math.Float32bits(v) != binary.LittleEndian.Uint32(exp[4*i:]) {
			t.Fatalf("point %d differs from the golden reconstruction", i)
		}
	}
	lo := []int{0, 0, 0}
	coarse, cd, err := s.ReadRegionLevel(context.Background(), lo, h.dims, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, wantDims := sampleRegionStride(got, lo, h.dims, 2)
	if !slices.Equal(cd, wantDims) {
		t.Fatalf("level-2 dims %v, want %v", cd, wantDims)
	}
	for i := range want {
		if math.Float32bits(coarse[i]) != math.Float32bits(want[i]) {
			t.Fatalf("level-2 point %d differs from the subsampled golden reconstruction", i)
		}
	}
}

// TestFormatSpecV3 walks the v3 golden fixture's generation journal at
// documented offsets: the tail footer, the manifest, and the whole
// prevFooterOff chain back to generation 1.
func TestFormatSpecV3(t *testing.T) {
	buf, exp := readFixture(t, "v3_gen4.qozb", "v3_gen4.expected.f32")
	h := specParseHeader(t, buf)
	if h.version != 3 || h.kind != 0 {
		t.Fatalf("v3 fixture: version %d kind %d", h.version, h.kind)
	}
	// §1.1: a v3 header may declare zero committed steps at creation.
	if h.dims[0] != 0 {
		t.Fatalf("v3 fixture header extent 0 = %d, fixture was created empty", h.dims[0])
	}

	// §1.4: the clean-commit fast path — 48 bytes ending at EOF.
	ft := specParseGenFooter(t, buf, int64(len(buf)))
	if ft.gen != 4 {
		t.Fatalf("latest generation %d, fixture committed 4", ft.gen)
	}
	man := buf[ft.manifestOff : ft.manifestOff+ft.manifestLen]
	if crc32.ChecksumIEEE(man) != ft.manifestCRC {
		t.Fatal("manifestCRC mismatch on the latest generation")
	}
	gen, dims, entries, rest := specParseManifest(t, man, h)
	if gen != ft.gen {
		t.Fatalf("manifest gen %d, footer gen %d", gen, ft.gen)
	}
	// The fixture predates the statistics extension and must stay that
	// way: it is the golden proof that stats-less manifests keep opening.
	if len(rest) != 0 {
		t.Fatalf("pre-statistics fixture manifest carries %d trailing bytes", len(rest))
	}
	if dims[0] != 5 {
		t.Fatalf("latest generation commits %d steps, fixture appended 5", dims[0])
	}
	specCheckPayloads(t, buf, h, entries, ft.manifestOff)

	// Walk the generation chain to its start: 4 → 3 → 2 → 1, prevOff 0.
	wantGen := ft.gen
	for ft.prevOff != 0 {
		ft = specParseGenFooter(t, buf, ft.prevOff+48)
		wantGen--
		if ft.gen != wantGen {
			t.Fatalf("chain visits generation %d, want %d (strictly decreasing by construction here)", ft.gen, wantGen)
		}
		man := buf[ft.manifestOff : ft.manifestOff+ft.manifestLen]
		if crc32.ChecksumIEEE(man) != ft.manifestCRC {
			t.Fatalf("generation %d: manifestCRC mismatch", ft.gen)
		}
		g, gdims, gentries, grest := specParseManifest(t, man, h)
		if g != ft.gen {
			t.Fatalf("generation %d: manifest disagrees (%d)", ft.gen, g)
		}
		if len(grest) != 0 {
			t.Fatalf("generation %d: pre-statistics fixture manifest carries %d trailing bytes", ft.gen, len(grest))
		}
		specCheckPayloads(t, buf, h, gentries, ft.manifestOff)
		if ft.gen == 1 && (gdims[0] != 0 || len(gentries) != 0) {
			t.Fatalf("generation 1 of a created-empty store: dims %v, %d bricks", gdims, len(gentries))
		}
	}
	if wantGen != 1 {
		t.Fatalf("chain ended at generation %d, spec says it ends at the oldest in the file (1 here)", wantGen)
	}

	// The real reader opens the same latest generation and reproduces the
	// golden reconstruction bit-identically.
	s, err := Open(bytes.NewReader(buf), int64(len(buf)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Generation() != 4 {
		t.Fatalf("reader opened generation %d", s.Generation())
	}
	got, err := s.ReadField(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got)*4 != len(exp) {
		t.Fatalf("reconstruction holds %d points, expectation %d", len(got), len(exp)/4)
	}
	for i, v := range got {
		if math.Float32bits(v) != binary.LittleEndian.Uint32(exp[4*i:]) {
			t.Fatalf("point %d differs from the golden reconstruction", i)
		}
	}
}

// TestFormatSpecV5 decodes the v5 float32 golden fixture at documented
// offsets: the v4 entry layout, every brick's level table, and the
// trailing statistics block byte for byte — record geometry, flag rules,
// the error-bound envelope against the reconstruction, and bit-exact
// agreement with Store.BrickStats.
func TestFormatSpecV5(t *testing.T) {
	buf, exp := readFixture(t, "v5_f32.qozb", "v5_f32.expected.f32")
	h := specParseHeader(t, buf)
	if h.version != 5 || h.kind != 0 {
		t.Fatalf("v5 fixture: version %d kind %d", h.version, h.kind)
	}
	entries, tables, stats := specParseV5(t, buf, h)
	specCheckPayloads(t, buf, h, entries, int64(len(buf))-16)
	for i, spans := range tables {
		if len(spans) == 0 {
			t.Fatalf("brick %d: the qoz codec always records a level table", i)
		}
		p := buf[entries[i].off : entries[i].off+entries[i].length]
		for j, sp := range spans {
			if crc32.ChecksumIEEE(p[:sp.bytes]) != sp.prefix {
				t.Fatalf("brick %d: level span %d prefix CRC does not cover its %d-byte prefix", i, j, sp.bytes)
			}
		}
	}

	s, err := Open(bytes.NewReader(buf), int64(len(buf)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.HasBrickStats() {
		t.Fatal("real reader reports no statistics index on a v5 store")
	}
	got, err := s.ReadField(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got)*4 != len(exp) {
		t.Fatalf("reconstruction holds %d points, expectation %d", len(got), len(exp)/4)
	}
	recon := make([]float64, len(got))
	for i, v := range got {
		if math.Float32bits(v) != binary.LittleEndian.Uint32(exp[4*i:]) {
			t.Fatalf("point %d differs from the golden reconstruction", i)
		}
		recon[i] = float64(v)
	}
	specCheckStats(t, s, stats, h.dims, h.brick, h.bound, recon)
}

// TestFormatSpecV5Float64 decodes the v5 float64 golden fixture, seeded
// with NaN and ±Inf: beyond the layout checks it pins the statistics flag
// bits and the rule that min/max/mean summarize only the finite samples.
func TestFormatSpecV5Float64(t *testing.T) {
	buf, exp := readFixture(t, "v5_f64.qozb", "v5_f64.expected.f64")
	h := specParseHeader(t, buf)
	if h.version != 5 || h.kind != 1 {
		t.Fatalf("v5 f64 fixture: version %d kind %d", h.version, h.kind)
	}
	entries, _, stats := specParseV5(t, buf, h)
	specCheckPayloads(t, buf, h, entries, int64(len(buf))-16)

	s, err := Open(bytes.NewReader(buf), int64(len(buf)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := ReadFieldT[float64](context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got)*8 != len(exp) {
		t.Fatalf("reconstruction holds %d points, expectation %d", len(got), len(exp)/8)
	}
	for i, v := range got {
		if math.Float64bits(v) != binary.LittleEndian.Uint64(exp[8*i:]) {
			t.Fatalf("point %d differs from the golden reconstruction", i)
		}
	}
	specCheckStats(t, s, stats, h.dims, h.brick, h.bound, got)

	// The fixture was seeded with one NaN, one +Inf, and one -Inf: each
	// flag bit must be set on at least one record, or the fixture has
	// stopped exercising what it exists to pin.
	var nan, pinf, ninf bool
	for _, st := range stats {
		nan = nan || st.flags&2 != 0
		pinf = pinf || st.flags&4 != 0
		ninf = ninf || st.flags&8 != 0
	}
	if !nan || !pinf || !ninf {
		t.Fatalf("fixture statistics never set all three non-finite flags (NaN %v, +Inf %v, -Inf %v)", nan, pinf, ninf)
	}
}

// TestFormatSpecV3Stats builds a live mutable store and walks its latest
// manifest with the spec parser: the bytes past the last entry must be
// exactly the §1.6 statistics block (the v3 statistics extension), and
// the records must satisfy every rule the committed v3 fixture — which
// predates the extension — cannot exercise.
func TestFormatSpecV3Stats(t *testing.T) {
	const ny, nx = 16, 24
	ctx := context.Background()
	m, path := newTestMutable(t, 4, ny, nx)
	for s := 0; s < 6; s++ {
		if err := m.AppendSteps(ctx, stepPlane(s, ny, nx)); err != nil {
			t.Fatalf("AppendSteps: %v", err)
		}
	}
	// A rewrite commits another generation whose manifest mixes kept and
	// recomputed records.
	if err := m.RewriteBricks(ctx, []int{0, 0, 0}, []int{4, ny, nx}, repeatPlane(stepPlane(99, ny, nx), 4)); err != nil {
		t.Fatalf("RewriteBricks: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h := specParseHeader(t, buf)
	if h.version != 3 {
		t.Fatalf("mutable store header version %d, spec says 3", h.version)
	}
	ft := specParseGenFooter(t, buf, int64(len(buf)))
	man := buf[ft.manifestOff : ft.manifestOff+ft.manifestLen]
	if crc32.ChecksumIEEE(man) != ft.manifestCRC {
		t.Fatal("manifestCRC mismatch on the latest generation")
	}
	_, dims, entries, rest := specParseManifest(t, man, h)
	statsBlk, _ := specSplitExtensions(t, rest, len(entries))
	if statsBlk == nil {
		t.Fatal("the writer must append the statistics extension to every manifest with bricks")
	}
	stats := specParseStatsBlock(t, statsBlk, len(entries))
	specCheckPayloads(t, buf, h, entries, ft.manifestOff)

	s, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.HasBrickStats() {
		t.Fatal("real reader reports no statistics index on a stats-extended v3 manifest")
	}
	got, err := s.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recon := make([]float64, len(got))
	for i, v := range got {
		recon[i] = float64(v)
	}
	specCheckStats(t, s, stats, dims, h.brick, h.bound, recon)
}

// repeatPlane tiles one ny×nx plane n times along the slowest axis.
func repeatPlane(plane []float32, n int) []float32 {
	out := make([]float32, 0, n*len(plane))
	for i := 0; i < n; i++ {
		out = append(out, plane...)
	}
	return out
}

// specSplitExtensions carves the bytes past a §1.4 manifest's last entry
// into its optional extension blocks, in their documented order: the
// fixed-size §1.6 statistics block when the bytes begin with "QZST", then
// the level-table block when what remains begins with "QZLV". A block that
// is absent comes back nil.
func specSplitExtensions(t *testing.T, rest []byte, nb int) (stats, levels []byte) {
	t.Helper()
	if len(rest) >= 4 && string(rest[:4]) == "QZST" {
		n := 4 + nb*41 + 4
		if len(rest) < n {
			t.Fatalf("statistics block needs %d bytes, manifest has %d left", n, len(rest))
		}
		stats, rest = rest[:n], rest[n:]
	}
	if len(rest) >= 4 && string(rest[:4]) == "QZLV" {
		levels, rest = rest, nil
	}
	if len(rest) != 0 {
		t.Fatalf("%d manifest bytes belong to no documented extension block", len(rest))
	}
	return stats, levels
}

// specParseLevelsBlock decodes a §1.4 level-table block byte by byte:
// "QZLV", the body length, one table per brick — nlevels, then nlevels−1
// (prefixBytes, prefixCRC) pairs, the final span being implied by the
// brick's own entry — and a trailing CRC-32 over everything before it.
func specParseLevelsBlock(t *testing.T, blk []byte, entries []specEntry) [][]specLevelSpan {
	t.Helper()
	if string(blk[:4]) != "QZLV" {
		t.Fatalf("level block magic %q, spec says \"QZLV\"", blk[:4])
	}
	if crc32.ChecksumIEEE(blk[:len(blk)-4]) != binary.LittleEndian.Uint32(blk[len(blk)-4:]) {
		t.Fatal("level block CRC mismatch")
	}
	bodyLen, n := binary.Uvarint(blk[4:])
	body := blk[4+n : len(blk)-4]
	if n <= 0 || int(bodyLen) != len(body) {
		t.Fatalf("level block declares a %d-byte body, holds %d", bodyLen, len(body))
	}
	tables := make([][]specLevelSpan, len(entries))
	for i, e := range entries {
		nlv, n := binary.Uvarint(body)
		if n <= 0 || nlv > 64 {
			t.Fatalf("brick %d: bad level-table count", i)
		}
		body = body[n:]
		if nlv == 0 {
			continue
		}
		spans := make([]specLevelSpan, nlv)
		prev := int64(0)
		for j := 0; j < int(nlv)-1; j++ {
			b, n := binary.Uvarint(body)
			if n <= 0 {
				t.Fatalf("brick %d level entry %d: bad uvarint", i, j)
			}
			spans[j] = specLevelSpan{bytes: int64(b), prefix: binary.LittleEndian.Uint32(body[n:])}
			body = body[n+4:]
			if spans[j].bytes <= prev || spans[j].bytes >= e.length {
				t.Fatalf("brick %d: level span %d bytes %d not strictly increasing below the payload length %d", i, j, spans[j].bytes, e.length)
			}
			prev = spans[j].bytes
		}
		spans[nlv-1] = specLevelSpan{bytes: e.length, prefix: e.crc}
		tables[i] = spans
	}
	if len(body) != 0 {
		t.Fatalf("%d trailing bytes after the last level table", len(body))
	}
	return tables
}

// TestFormatSpecV3Levels decodes the current writer's golden fixture from
// the document alone: a journal whose generation 1 was written once by
// Write (generation 1, prevFooterOff 0, header extents final) and whose
// generation 2 was appended through OpenMutable. Both manifests must carry
// the statistics block and then the level-table block; every recorded
// prefix CRC must cover exactly the payload prefix it declares; and the
// real reader must agree with the documented tables, reproduce the golden
// reconstruction, and serve a level-2 read equal to its stride-2
// subsample.
func TestFormatSpecV3Levels(t *testing.T) {
	buf, exp := readFixture(t, "v3_levels.qozb", "v3_levels.expected.f32")
	h := specParseHeader(t, buf)
	if h.version != 3 || h.kind != 0 {
		t.Fatalf("fixture: version %d kind %d", h.version, h.kind)
	}
	if h.dims[0] != 12 {
		t.Fatalf("header extent 0 = %d; a written-once file declares its final extents (12 here)", h.dims[0])
	}

	ft := specParseGenFooter(t, buf, int64(len(buf)))
	if ft.gen != 2 {
		t.Fatalf("latest generation %d, fixture committed 2", ft.gen)
	}
	var latest [][]specLevelSpan
	for gen := uint64(2); ; gen-- {
		man := buf[ft.manifestOff : ft.manifestOff+ft.manifestLen]
		if crc32.ChecksumIEEE(man) != ft.manifestCRC {
			t.Fatalf("generation %d: manifestCRC mismatch", gen)
		}
		g, dims, entries, rest := specParseManifest(t, man, h)
		if g != gen || ft.gen != gen {
			t.Fatalf("chain visits generation %d/%d, want %d", g, ft.gen, gen)
		}
		if want := map[uint64]int{1: 12, 2: 16}[gen]; dims[0] != want {
			t.Fatalf("generation %d commits %d rows, want %d", gen, dims[0], want)
		}
		specCheckPayloads(t, buf, h, entries, ft.manifestOff)
		statsBlk, levelsBlk := specSplitExtensions(t, rest, len(entries))
		if statsBlk == nil || levelsBlk == nil {
			t.Fatalf("generation %d: manifest must carry both extension blocks (stats %v, levels %v)", gen, statsBlk != nil, levelsBlk != nil)
		}
		specParseStatsBlock(t, statsBlk, len(entries))
		tables := specParseLevelsBlock(t, levelsBlk, entries)
		for i, spans := range tables {
			if len(spans) == 0 {
				t.Fatalf("generation %d brick %d: the qoz codec always records a level table", gen, i)
			}
			p := buf[entries[i].off : entries[i].off+entries[i].length]
			for j, sp := range spans {
				if crc32.ChecksumIEEE(p[:sp.bytes]) != sp.prefix {
					t.Fatalf("generation %d brick %d: level span %d prefix CRC does not cover its %d-byte prefix", gen, i, j, sp.bytes)
				}
			}
		}
		if gen == 2 {
			latest = tables
		}
		if gen == 1 {
			// §1.4: a written-once file is header, payloads in brick order,
			// one manifest, one footer.
			if ft.prevOff != 0 || entries[0].off != int64(h.end) {
				t.Fatalf("generation 1: prevFooterOff %d, first payload at %d (header ends at %d)", ft.prevOff, entries[0].off, h.end)
			}
			for i := 1; i < len(entries); i++ {
				if entries[i].off != entries[i-1].off+entries[i-1].length {
					t.Fatalf("generation 1: brick %d is not laid out right after brick %d", i, i-1)
				}
			}
			if last := entries[len(entries)-1]; last.off+last.length != ft.manifestOff {
				t.Fatal("generation 1: the manifest does not follow the last payload")
			}
			break
		}
		ft = specParseGenFooter(t, buf, ft.prevOff+48)
	}

	s, err := Open(bytes.NewReader(buf), int64(len(buf)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Generation() != 2 || s.FormatVersion() != 3 {
		t.Fatalf("reader opened generation %d of a version-%d store", s.Generation(), s.FormatVersion())
	}
	for i, spans := range latest {
		got := s.BrickLevels(i)
		if len(got) != len(spans) {
			t.Fatalf("brick %d: reader reports %d levels, the document's parser %d", i, len(got), len(spans))
		}
		for j, sp := range spans {
			if got[j].Bytes != sp.bytes || got[j].Level != len(spans)-j {
				t.Fatalf("brick %d span %d: reader %+v, document (%d bytes, level %d)", i, j, got[j], sp.bytes, len(spans)-j)
			}
		}
	}
	got, err := s.ReadField(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got)*4 != len(exp) {
		t.Fatalf("reconstruction holds %d points, expectation %d", len(got), len(exp)/4)
	}
	for i, v := range got {
		if math.Float32bits(v) != binary.LittleEndian.Uint32(exp[4*i:]) {
			t.Fatalf("point %d differs from the golden reconstruction", i)
		}
	}
	lo, dims := []int{0, 0, 0}, s.Dims()
	coarse, cd, err := s.ReadRegionLevel(context.Background(), lo, dims, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, wantDims := sampleRegionStride(got, lo, dims, 2)
	if !slices.Equal(cd, wantDims) {
		t.Fatalf("level-2 dims %v, want %v", cd, wantDims)
	}
	for i := range want {
		if math.Float32bits(coarse[i]) != math.Float32bits(want[i]) {
			t.Fatalf("level-2 point %d differs from the subsampled golden reconstruction", i)
		}
	}
}
