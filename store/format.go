// On-disk format primitives: headers, the v1/v2 index, and the v3
// generation manifest/footer. The normative byte-level specification of
// everything in this file is docs/FORMAT.md; store/format_spec_test.go
// pins the two against each other through the golden fixtures in
// testdata/.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"qoz"
	"qoz/internal/container"
)

const (
	magic        = "QOZB"
	trailerMagic = "QOZBIDX1"

	// trailerMagicV4 terminates a v4 write-once store. v4 extends every
	// index entry with the brick's progressive level table (docs/FORMAT.md
	// §1.5); the distinct magic keeps a v1/v2 reader from walking a v4
	// index it cannot parse.
	trailerMagicV4 = "QOZBIDX4"

	// trailerMagicV5 terminates a v5 write-once store: the v4 index entry
	// layout followed by a per-brick statistics block (docs/FORMAT.md
	// §1.6) between the last entry and the footer.
	trailerMagicV5 = "QOZBIDX5"

	// genTrailerMagic terminates every v3 generation footer. It is distinct
	// from trailerMagic so a v3 tail can never be misparsed as a v1/v2
	// index footer (and vice versa), and so the torn-commit backward scan
	// has an unambiguous needle.
	genTrailerMagic = "QOZBGEN3"

	// manifestMagic prefixes every v3 generation manifest, purely as a
	// debugging landmark; integrity comes from the footer's manifest CRC.
	manifestMagic = "QZM3"

	// formatVersion is what the write-once Writer emits: v5, which keeps
	// v4's per-brick progressive level tables and appends a per-brick
	// statistics block (min/max/mean/count/finite-count, recorded at write
	// time) that Query uses for predicate pushdown. formatVersionV1 files
	// (kind always float32), formatVersionV2 files (no level tables), and
	// formatVersionV4 files (level tables, no statistics) still open and
	// read unchanged; formatVersionV3 files are the generation-based
	// mutable stores created by CreateMutable, whose manifests may carry
	// the same statistics as an optional trailing extension.
	formatVersion   = 5
	formatVersionV1 = 1
	formatVersionV2 = 2
	formatVersionV3 = 3
	formatVersionV4 = 4

	// maxLevelEntries bounds one brick's level table: the codec caps
	// segment levels at szstream.MaxSegLevel (63), plus the seed stage.
	maxLevelEntries = 64

	kindFloat32 = 0
	kindFloat64 = 1

	footerSize = 8 + len(trailerMagic)

	// genFooterSize is the fixed size of a v3 generation footer:
	// manifestOff u64 | manifestLen u64 | gen u64 | prevFooterOff u64 |
	// manifestCRC u32 | footerCRC u32 | genTrailerMagic (8 bytes).
	genFooterSize = 8 + 8 + 8 + 8 + 4 + 4 + len(genTrailerMagic)

	// maxManifestLen bounds one generation manifest's declared byte length
	// (magic + gen + dims + per-brick explicit offset/length/crc entries).
	// With entries at most 24 bytes each this admits ~44M bricks — far past
	// any field the point caps allow — while keeping the allocation a
	// hostile footer can force bounded.
	maxManifestLen = 1 << 30

	// maxHeaderLen bounds the variable-length header: fixed prefix plus at
	// most 8 varint dims, 8 varint brick extents, and the bound.
	maxHeaderLen = 9 + 2*8*binary.MaxVarintLen64 + 8

	// maxBrickBytes caps one brick's decoded size (256 MiB: 2^26 float32
	// points, 2^25 float64 points), keeping the unit of random access — and
	// the worst-case allocation a corrupt index can force — small relative
	// to the field.
	maxBrickBytes = 1 << 28

	// maxBrickPayload caps one compressed brick's declared byte length.
	maxBrickPayload = 1 << 31
)

// kindSize returns the element byte width of a sample kind.
func kindSize(kind uint8) int {
	if kind == kindFloat64 {
		return 8
	}
	return 4
}

// kindName returns the dtype name of a sample kind.
func kindName(kind uint8) string {
	if kind == kindFloat64 {
		return "float64"
	}
	return "float32"
}

// ErrCorrupt reports a malformed store file.
var ErrCorrupt = errors.New("store: corrupt brick store")

// levelSpan is one entry of a brick's progressive level table (v4): the
// byte length of the brick payload's prefix up to one level boundary, and
// the CRC32 of exactly those prefix bytes. A table holds entries from the
// stream's seed stage down to level 1 (whose span covers the whole
// payload), so the level of entry j in a table of n entries is n-j.
type levelSpan struct {
	bytes int64
	crc   uint32
}

const (
	// statsMagic prefixes a per-brick statistics block: the v5 index
	// carries one between its last entry and the footer, and a v3
	// generation manifest may carry one as a trailing extension.
	statsMagic = "QZST"

	// statRecordSize is the fixed encoded size of one brick's statistics
	// record: flags u8 | min f64 | max f64 | mean f64 | count u64 |
	// finite-count u64, all little-endian.
	statRecordSize = 1 + 3*8 + 2*8

	statFlagValid  = 1 << 0 // record was computed at write time
	statFlagNaN    = 1 << 1 // brick holds at least one NaN sample
	statFlagPosInf = 1 << 2 // brick holds at least one +Inf sample
	statFlagNegInf = 1 << 3 // brick holds at least one -Inf sample

	statFlagsKnown = statFlagValid | statFlagNaN | statFlagPosInf | statFlagNegInf
)

// BrickStat is one brick's recorded data summary: min/max/mean over the
// brick's finite samples of the ORIGINAL data at write time (decoded
// values therefore lie within the store's error bound of [Min, Max]),
// the total sample count, the finite sample count, and presence flags
// for the non-finite kinds. When Finite is 0, Min/Max/Mean are 0.
type BrickStat struct {
	Min, Max, Mean float64
	Count, Finite  uint64
	HasNaN         bool
	HasPosInf      bool
	HasNegInf      bool
}

// brickStat is a BrickStat plus validity: a zero brickStat (valid false)
// means "no statistics recorded for this brick" — Query then decodes the
// brick unconditionally, never guesses.
type brickStat struct {
	valid bool
	BrickStat
}

// computeBrickStat summarizes one brick's original samples. Shared by the
// write-once Writer and every mutable mutation path, so the recorded
// semantics cannot drift between them.
func computeBrickStat[T qoz.Float](data []T) brickStat {
	st := brickStat{valid: true}
	st.Count = uint64(len(data))
	mn, mx := math.Inf(1), math.Inf(-1)
	var sum float64
	for _, x := range data {
		v := float64(x)
		switch {
		case math.IsNaN(v):
			st.HasNaN = true
		case math.IsInf(v, 1):
			st.HasPosInf = true
		case math.IsInf(v, -1):
			st.HasNegInf = true
		default:
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
			sum += v
			st.Finite++
		}
	}
	if st.Finite > 0 {
		st.Min, st.Max = mn, mx
		st.Mean = sum / float64(st.Finite)
	}
	return st
}

// statsBlockSize returns the encoded byte length of a statistics block
// over nb bricks: magic, nb fixed-size records, and a trailing CRC32 over
// everything before it.
func statsBlockSize(nb int) int {
	return len(statsMagic) + nb*statRecordSize + 4
}

// appendStatsBlock serializes the per-brick statistics block. Records are
// fixed-size so a spec parser (and the hostile-size bounds in
// loadIndexManifest) can locate every field by offset alone.
func appendStatsBlock(dst []byte, stats []brickStat) []byte {
	start := len(dst)
	dst = append(dst, statsMagic...)
	for _, st := range stats {
		var flags uint8
		if st.valid {
			flags |= statFlagValid
		}
		if st.HasNaN {
			flags |= statFlagNaN
		}
		if st.HasPosInf {
			flags |= statFlagPosInf
		}
		if st.HasNegInf {
			flags |= statFlagNegInf
		}
		dst = append(dst, flags)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(st.Min))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(st.Max))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(st.Mean))
		dst = binary.LittleEndian.AppendUint64(dst, st.Count)
		dst = binary.LittleEndian.AppendUint64(dst, st.Finite)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// parseStatsBlock decodes a statistics block against the grid hdr implies.
// It returns nil — never an error — on ANY mismatch: wrong size, wrong
// magic, or failed CRC. A nil result degrades every query to the
// decode-everything path, because a wrong answer from a bad index would be
// a correctness bug while a slow answer is merely slow. Individual records
// whose contents are structurally impossible (unknown flags, a non-finite
// or inverted min/max, counts that contradict the brick's geometry) are
// dropped to invalid the same way.
func parseStatsBlock(buf []byte, hdr *header) []brickStat {
	nb := hdr.numBricks()
	if len(buf) != statsBlockSize(nb) || string(buf[:len(statsMagic)]) != statsMagic {
		return nil
	}
	body := buf[: len(buf)-4 : len(buf)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[len(buf)-4:]) {
		return nil
	}
	out := make([]brickStat, nb)
	rec := body[len(statsMagic):]
	for i := range out {
		flags := rec[0]
		st := brickStat{
			valid: flags&statFlagValid != 0,
			BrickStat: BrickStat{
				Min:       math.Float64frombits(binary.LittleEndian.Uint64(rec[1:])),
				Max:       math.Float64frombits(binary.LittleEndian.Uint64(rec[9:])),
				Mean:      math.Float64frombits(binary.LittleEndian.Uint64(rec[17:])),
				Count:     binary.LittleEndian.Uint64(rec[25:]),
				Finite:    binary.LittleEndian.Uint64(rec[33:]),
				HasNaN:    flags&statFlagNaN != 0,
				HasPosInf: flags&statFlagPosInf != 0,
				HasNegInf: flags&statFlagNegInf != 0,
			},
		}
		rec = rec[statRecordSize:]
		if flags&^uint8(statFlagsKnown) != 0 || (st.valid && !plausibleStat(&st, hdr, i)) {
			st = brickStat{}
		}
		out[i] = st
	}
	return out
}

// plausibleStat cross-checks one valid record against the brick geometry
// and its own invariants. It cannot catch a CRC-consistent lie, but it
// rejects every structurally impossible record before pruning trusts it.
func plausibleStat(st *brickStat, hdr *header, i int) bool {
	lo, hi := hdr.brickBox(i)
	if st.Count != uint64(boxPoints(lo, hi)) || st.Finite > st.Count {
		return false
	}
	if st.Finite == 0 {
		return st.Min == 0 && st.Max == 0 && st.Mean == 0
	}
	return !math.IsNaN(st.Min) && !math.IsInf(st.Min, 0) &&
		!math.IsNaN(st.Max) && !math.IsInf(st.Max, 0) &&
		!math.IsNaN(st.Mean) && !math.IsInf(st.Mean, 0) &&
		st.Min <= st.Max
}

// IsStore reports whether buf begins a brick store file (any supported
// format version).
func IsStore(buf []byte) bool {
	return len(buf) >= len(magic)+2 && string(buf[:len(magic)]) == magic &&
		supportedVersion(buf[len(magic)]) && buf[len(magic)+1] == container.CodecBrick
}

// supportedVersion reports whether this package reads format version v:
// every version from v1 to the one the Writer emits.
func supportedVersion(v uint8) bool {
	return v >= formatVersionV1 && v <= formatVersion
}

// header is the decoded store header.
type header struct {
	version uint8 // formatVersionV1, V2, V3, V4, or formatVersion (v5)
	codecID uint8
	kind    uint8 // kindFloat32 or kindFloat64
	dims    []int
	brick   []int
	bound   float64
}

// appendHeader serializes h in its own format version.
func appendHeader(dst []byte, h *header) []byte {
	dst = append(dst, magic...)
	dst = append(dst, h.version, container.CodecBrick, h.codecID, h.kind, uint8(len(h.dims)))
	for _, d := range h.dims {
		dst = binary.AppendUvarint(dst, uint64(d))
	}
	for _, b := range h.brick {
		dst = binary.AppendUvarint(dst, uint64(b))
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.bound))
}

// checkDimsV3 validates a v3 dimension vector, where the slowest (time)
// dimension may be 0 — a mutable store starts with zero committed steps.
// The remaining extents obey the shared container.CheckDims rules.
func checkDimsV3(dims []int) error {
	if len(dims) == 0 || len(dims) > 8 {
		return fmt.Errorf("store: need 1..8 dimensions, got %d", len(dims))
	}
	if dims[0] < 0 || dims[0] > math.MaxInt32 {
		return fmt.Errorf("store: invalid dimension %d", dims[0])
	}
	if dims[0] == 0 {
		if len(dims) == 1 {
			return nil
		}
		_, err := container.CheckDims(dims[1:])
		return err
	}
	_, err := container.CheckDims(dims)
	return err
}

// parseHeader decodes a store header from the start of buf, returning the
// header and its encoded length.
func parseHeader(buf []byte) (*header, int, error) {
	if len(buf) < len(magic)+5 || string(buf[:len(magic)]) != magic {
		return nil, 0, ErrCorrupt
	}
	version := buf[len(magic)]
	if !supportedVersion(version) {
		return nil, 0, fmt.Errorf("store: unsupported version %d", version)
	}
	if buf[len(magic)+1] != container.CodecBrick {
		return nil, 0, ErrCorrupt
	}
	h := &header{version: version, codecID: buf[len(magic)+2], kind: buf[len(magic)+3]}
	switch {
	case version == formatVersionV1 && h.kind != kindFloat32:
		// v1 reserved the kind byte but only ever wrote float32.
		return nil, 0, fmt.Errorf("store: unsupported sample kind %d in v1 store", h.kind)
	case h.kind != kindFloat32 && h.kind != kindFloat64:
		return nil, 0, fmt.Errorf("store: unsupported sample kind %d", h.kind)
	}
	nd := int(buf[len(magic)+4])
	if nd == 0 || nd > 8 {
		return nil, 0, ErrCorrupt
	}
	pos := len(magic) + 5
	readDims := func(zeroFirstOK bool) ([]int, error) {
		out := make([]int, nd)
		for i := range out {
			v, n := binary.Uvarint(buf[pos:])
			if n <= 0 || v > math.MaxInt32 || (v == 0 && !(zeroFirstOK && i == 0)) {
				return nil, ErrCorrupt
			}
			out[i] = int(v)
			pos += n
		}
		// The shared overflow-safe product guard: huge declared extents
		// error out before anything is allocated from them. A v3 header may
		// declare a zero time extent (a mutable store created empty).
		if zeroFirstOK {
			if err := checkDimsV3(out); err != nil {
				return nil, ErrCorrupt
			}
		} else if _, err := container.CheckDims(out); err != nil {
			return nil, ErrCorrupt
		}
		return out, nil
	}
	var err error
	if h.dims, err = readDims(version == formatVersionV3); err != nil {
		return nil, 0, err
	}
	if h.brick, err = readDims(false); err != nil {
		return nil, 0, err
	}
	// The brick-size cap is checked against the interior brick a grown
	// store will hold: a v3 header declares the extents at creation (often
	// zero committed steps), so its time extent is taken as at least one
	// full brick. v1/v2 extents are final and checked exactly as written.
	capDims := h.dims
	if h.version == formatVersionV3 && h.dims[0] < h.brick[0] {
		capDims = append([]int{h.brick[0]}, h.dims[1:]...)
	}
	if p := clippedBrickPoints(capDims, h.brick); p > maxBrickBytes/kindSize(h.kind) {
		return nil, 0, fmt.Errorf("store: brick shape %v holds %d %s points (max %d)",
			h.brick, p, kindName(h.kind), maxBrickBytes/kindSize(h.kind))
	}
	if len(buf[pos:]) < 8 {
		return nil, 0, ErrCorrupt
	}
	h.bound = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
	pos += 8
	if h.bound <= 0 || math.IsNaN(h.bound) || math.IsInf(h.bound, 0) {
		return nil, 0, ErrCorrupt
	}
	return h, pos, nil
}

// genFooter is the decoded fixed-size footer that commits one v3
// generation. A commit appends brick payloads, then the generation
// manifest, then this footer; the footer is the commit point — a file
// whose tail holds a torn manifest or half-written footer simply opens at
// the previous generation.
type genFooter struct {
	manifestOff int64  // absolute offset of this generation's manifest
	manifestLen int64  // manifest byte length
	gen         uint64 // generation number, 1-based and strictly increasing
	prevOff     int64  // absolute offset of the previous generation's footer; 0 = none
	manifestCRC uint32 // crc32(manifest bytes)
}

// appendGenFooter serializes ft, self-checksummed so a backward scan over
// a torn tail can validate candidate footers without any other context.
func appendGenFooter(dst []byte, ft *genFooter) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ft.manifestOff))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ft.manifestLen))
	dst = binary.LittleEndian.AppendUint64(dst, ft.gen)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ft.prevOff))
	dst = binary.LittleEndian.AppendUint32(dst, ft.manifestCRC)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
	return append(dst, genTrailerMagic...)
}

// parseGenFooter decodes and validates one candidate footer. It checks
// only self-consistency (magic and self-CRC); positional plausibility is
// the caller's to verify against the file it came from.
func parseGenFooter(buf []byte) (*genFooter, error) {
	if len(buf) != genFooterSize || string(buf[genFooterSize-len(genTrailerMagic):]) != genTrailerMagic {
		return nil, ErrCorrupt
	}
	if crc32.ChecksumIEEE(buf[:36]) != binary.LittleEndian.Uint32(buf[36:40]) {
		return nil, ErrCorrupt
	}
	ft := &genFooter{
		manifestOff: int64(binary.LittleEndian.Uint64(buf[0:])),
		manifestLen: int64(binary.LittleEndian.Uint64(buf[8:])),
		gen:         binary.LittleEndian.Uint64(buf[16:]),
		prevOff:     int64(binary.LittleEndian.Uint64(buf[24:])),
		manifestCRC: binary.LittleEndian.Uint32(buf[32:]),
	}
	if ft.manifestOff < 0 || ft.manifestLen <= 0 || ft.manifestLen > maxManifestLen ||
		ft.prevOff < 0 || ft.gen == 0 {
		return nil, ErrCorrupt
	}
	return ft, nil
}

// appendManifest serializes one v3 generation manifest: the generation
// number, the field extents as of this generation, and an explicit
// (offset, length, crc32) entry per brick — explicit offsets, unlike the
// cumulative v1/v2 index, because a rewritten brick's payload lives at the
// file tail, not in grid order. A non-nil stats slice appends the
// per-brick statistics block as a trailing extension; manifests written
// before the extension existed simply end after the entries.
func appendManifest(dst []byte, gen uint64, dims []int, offs, lens []int64, crcs []uint32, stats []brickStat) []byte {
	dst = append(dst, manifestMagic...)
	dst = binary.AppendUvarint(dst, gen)
	dst = append(dst, uint8(len(dims)))
	for _, d := range dims {
		dst = binary.AppendUvarint(dst, uint64(d))
	}
	dst = binary.AppendUvarint(dst, uint64(len(offs)))
	for i := range offs {
		dst = binary.AppendUvarint(dst, uint64(offs[i]))
		dst = binary.AppendUvarint(dst, uint64(lens[i]))
		dst = binary.LittleEndian.AppendUint32(dst, crcs[i])
	}
	if stats != nil {
		dst = appendStatsBlock(dst, stats)
	}
	return dst
}

// parseManifest decodes a generation manifest against the store's header:
// the declared extents must agree with the header on every dimension but
// the first (only time grows), the brick count must match the grid those
// extents imply, and every entry must lie inside [minOff, maxOff) — the
// span between the header and the manifest itself. Trailing bytes after
// the entries are the optional statistics extension: a valid block yields
// per-brick stats, anything else degrades to nil stats (decode-everything
// queries) rather than an error, because the footer's manifest CRC already
// vouches for the bytes and a missing index must never cost availability.
func parseManifest(buf []byte, hdr *header, minOff, maxOff int64) (gen uint64, dims []int, offs, lens []int64, crcs []uint32, stats []brickStat, err error) {
	fail := func() (uint64, []int, []int64, []int64, []uint32, []brickStat, error) {
		return 0, nil, nil, nil, nil, nil, ErrCorrupt
	}
	if len(buf) < len(manifestMagic)+3 || string(buf[:len(manifestMagic)]) != manifestMagic {
		return fail()
	}
	buf = buf[len(manifestMagic):]
	gen, n := binary.Uvarint(buf)
	if n <= 0 || gen == 0 {
		return fail()
	}
	buf = buf[n:]
	if len(buf) < 1 || int(buf[0]) != len(hdr.dims) {
		return fail()
	}
	nd := int(buf[0])
	buf = buf[1:]
	dims = make([]int, nd)
	for i := range dims {
		v, n := binary.Uvarint(buf)
		if n <= 0 || v > math.MaxInt32 {
			return fail()
		}
		dims[i] = int(v)
		buf = buf[n:]
	}
	if err := checkDimsV3(dims); err != nil {
		return fail()
	}
	for i := 1; i < nd; i++ {
		if dims[i] != hdr.dims[i] {
			return fail()
		}
	}
	// The interior brick under the declared extents must stay within the
	// decoded-size cap (the header-parse check may have seen a zero time
	// extent).
	if p := clippedBrickPoints(dims, hdr.brick); p > maxBrickBytes/kindSize(hdr.kind) {
		return fail()
	}
	nb, n := binary.Uvarint(buf)
	if n <= 0 {
		return fail()
	}
	buf = buf[n:]
	genHdr := header{dims: dims, brick: hdr.brick}
	if nb != uint64(genHdr.numBricks()) {
		return fail()
	}
	// Each entry is at least 6 bytes (two 1-byte varints + crc32): a
	// manifest shorter than that bound cannot hold the declared count, so
	// the check rejects hostile counts before the per-brick allocations.
	if int64(len(buf)) < int64(nb)*6 {
		return fail()
	}
	offs = make([]int64, nb)
	lens = make([]int64, nb)
	crcs = make([]uint32, nb)
	for i := range offs {
		o, n := binary.Uvarint(buf)
		if n <= 0 {
			return fail()
		}
		buf = buf[n:]
		l, n := binary.Uvarint(buf)
		if n <= 0 || l == 0 || l > maxBrickPayload {
			return fail()
		}
		buf = buf[n:]
		if len(buf) < 4 {
			return fail()
		}
		offs[i] = int64(o)
		lens[i] = int64(l)
		crcs[i] = binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		// Subtract rather than add: a hostile offset near MaxInt64 would
		// wrap offs[i]+lens[i] negative and slip past an additive check.
		if offs[i] < minOff || offs[i] > maxOff-lens[i] {
			return fail()
		}
	}
	if len(buf) != 0 {
		stats = parseStatsBlock(buf, &genHdr)
	}
	return gen, dims, offs, lens, crcs, stats, nil
}

// grid returns the brick-grid extent per dimension: ceil(dims/brick).
func (h *header) grid() []int {
	g := make([]int, len(h.dims))
	for i := range g {
		g[i] = (h.dims[i] + h.brick[i] - 1) / h.brick[i]
	}
	return g
}

// numBricks returns the total brick count.
func (h *header) numBricks() int {
	n := 1
	for _, g := range h.grid() {
		n *= g
	}
	return n
}

// brickBox returns the half-open box [lo, hi) of brick index i (row-major
// over the grid), clipped to the field.
func (h *header) brickBox(i int) (lo, hi []int) {
	g := h.grid()
	coord := make([]int, len(g))
	for k := len(g) - 1; k >= 0; k-- {
		coord[k] = i % g[k]
		i /= g[k]
	}
	lo = make([]int, len(g))
	hi = make([]int, len(g))
	for k := range g {
		lo[k] = coord[k] * h.brick[k]
		hi[k] = min(lo[k]+h.brick[k], h.dims[k])
	}
	return lo, hi
}

// clippedBrickPoints returns the point count of a full (unclipped interior)
// brick, itself clipped to the field extent.
func clippedBrickPoints(dims, brick []int) int {
	p := 1
	for i := range dims {
		p *= min(brick[i], dims[i])
	}
	return p
}

// boxPoints returns the point count of the box [lo, hi).
func boxPoints(lo, hi []int) int {
	p := 1
	for i := range lo {
		p *= hi[i] - lo[i]
	}
	return p
}

// strides returns row-major strides for dims.
func strides(dims []int) []int {
	s := make([]int, len(dims))
	acc := 1
	for i := len(dims) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= dims[i]
	}
	return s
}

// copyBox copies an N-d box of the given size from src (shape srcDims,
// box origin srcLo) into dst (shape dstDims, box origin dstLo). The last
// dimension is contiguous in both layouts, so the copy proceeds in
// whole-row runs.
func copyBox[T qoz.Float](dst []T, dstDims, dstLo []int, src []T, srcDims, srcLo []int, size []int) {
	n := len(size)
	run := size[n-1]
	if run == 0 {
		return
	}
	ss := strides(srcDims)
	ds := strides(dstDims)
	so := 0
	do := 0
	for k := 0; k < n; k++ {
		so += srcLo[k] * ss[k]
		do += dstLo[k] * ds[k]
	}
	if n == 1 {
		copy(dst[do:do+run], src[so:so+run])
		return
	}
	idx := make([]int, n-1)
	for {
		copy(dst[do:do+run], src[so:so+run])
		k := n - 2
		for ; k >= 0; k-- {
			idx[k]++
			so += ss[k]
			do += ds[k]
			if idx[k] < size[k] {
				break
			}
			so -= size[k] * ss[k]
			do -= size[k] * ds[k]
			idx[k] = 0
		}
		if k < 0 {
			return
		}
	}
}
