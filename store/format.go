// On-disk format primitives: the header, the generation manifest with its
// two optional extension blocks, and the generation footer — the one
// format this package writes — plus the constants of the legacy index
// layouts it still reads. The normative byte-level specification of
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
	"qoz/internal/grid"
)

const (
	magic = "QOZB"

	// The trailer magics of the write-once index layouts (docs/FORMAT.md
	// §1.3, §1.5, §1.6): v1/v2, v4 (level tables) and v5 (level tables and
	// statistics). Nothing writes them any more; loadIndexManifest is their
	// only reader.
	trailerMagic   = "QOZBIDX1"
	trailerMagicV4 = "QOZBIDX4"
	trailerMagicV5 = "QOZBIDX5"

	// genTrailerMagic terminates every generation footer. It is distinct
	// from the index trailers so a journal tail can never be misparsed as a
	// legacy index footer (and vice versa), and so the torn-commit backward
	// scan has an unambiguous needle.
	genTrailerMagic = "QOZBGEN3"

	// manifestMagic prefixes every generation manifest, purely as a
	// debugging landmark; integrity comes from the footer's manifest CRC.
	manifestMagic = "QZM3"

	// formatVersion is the one version this package writes: the generation
	// journal, whose manifests carry per-brick level tables and statistics
	// as optional trailing extension blocks. A write-once file is a journal
	// of one generation. The other versions — v1 (kind always float32), v2,
	// v4 (level tables) and v5 (level tables and statistics), all
	// index-behind-a-footer layouts — still open and read unchanged.
	formatVersion   = 3
	formatVersionV1 = 1
	formatVersionV2 = 2
	formatVersionV4 = 4
	formatVersionV5 = 5

	// maxLevelEntries bounds one brick's level table: the codec caps
	// segment levels at szstream.MaxSegLevel (63), plus the seed stage.
	maxLevelEntries = 64

	kindFloat32 = 0
	kindFloat64 = 1

	footerSize = 8 + len(trailerMagic)

	// genFooterSize is the fixed size of a generation footer:
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

// levelSpan is one entry of a brick's progressive level table: the byte
// length of the brick payload's prefix up to one level boundary, and the
// CRC32 of exactly those prefix bytes. A table holds entries from the
// stream's seed stage down to level 1 (whose span covers the whole
// payload), so the level of entry j in a table of n entries is n-j.
type levelSpan struct {
	bytes int64
	crc   uint32
}

// brickEntry is everything a manifest records about one brick: where its
// payload lives, the payload's checksum, and the two optional extensions.
// Every format version loads into a slice of these, in brick order.
type brickEntry struct {
	off, len int64
	crc      uint32
	// levels is the brick's progressive level table, seed stage first and
	// the whole payload — always {len, crc} — last. nil when none is
	// recorded (a v1/v2 store, a journal written before PR 22, another
	// codec, a dropped level block): coarse reads then decode the full
	// brick and stride-sample it.
	levels []levelSpan
	// stat is the brick's recorded data summary; invalid (the zero value)
	// when none is recorded or its block failed validation — Query then
	// decodes the brick, never guesses.
	stat brickStat
}

const (
	// statsMagic prefixes a per-brick statistics block: a generation
	// manifest may carry one as a trailing extension, and the legacy v5
	// index carries one between its last entry and the footer.
	statsMagic = "QZST"

	// levelsMagic prefixes a per-brick level-table block, the generation
	// manifest's second trailing extension (docs/FORMAT.md §1.4).
	levelsMagic = "QZLV"

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

// computeBrickStat summarizes one brick's original samples.
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
func appendStatsBlock(dst []byte, bricks []brickEntry) []byte {
	start := len(dst)
	dst = append(dst, statsMagic...)
	for i := range bricks {
		st := &bricks[i].stat
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

// parseStatsBlock decodes a statistics block against the grid hdr implies
// into bricks[i].stat. It records nothing — never an error — on ANY
// mismatch: wrong size, wrong magic, or failed CRC. Bricks without a record
// degrade every query to the decode-everything path, because a wrong
// answer from a bad index would be a correctness bug while a slow answer
// is merely slow. Individual records whose contents are structurally
// impossible (unknown flags, a non-finite or inverted min/max, counts that
// contradict the brick's geometry) are dropped to invalid the same way.
func parseStatsBlock(buf []byte, hdr *header, bricks []brickEntry) {
	if len(buf) != statsBlockSize(len(bricks)) || string(buf[:len(statsMagic)]) != statsMagic {
		return
	}
	body := buf[: len(buf)-4 : len(buf)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[len(buf)-4:]) {
		return
	}
	rec := body[len(statsMagic):]
	for i := range bricks {
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
		if flags&^uint8(statFlagsKnown) == 0 && st.valid && plausibleStat(&st, hdr, i) {
			bricks[i].stat = st
		}
	}
}

// appendLevelsBlock serializes the per-brick level-table block: every
// brick's table minus its final span, which would only repeat the entry's
// own length and crc32 (loading rebuilds it from the entry). The body
// length makes the block self-delimiting; the CRC covers everything before
// it.
func appendLevelsBlock(dst []byte, bricks []brickEntry) []byte {
	var body []byte
	for i := range bricks {
		t := bricks[i].levels
		body = binary.AppendUvarint(body, uint64(len(t)))
		for _, sp := range t[:max(len(t)-1, 0)] {
			body = binary.AppendUvarint(body, uint64(sp.bytes))
			body = binary.LittleEndian.AppendUint32(body, sp.crc)
		}
	}
	start := len(dst)
	dst = append(dst, levelsMagic...)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	dst = append(dst, body...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// parseLevelsBlock decodes a level-table block into bricks[i].levels. Like
// statistics, level tables are an accelerator: on ANY mismatch — magic,
// length, CRC, a table that is too long, spans that do not increase
// strictly or do not stay below the payload length — the whole block is
// dropped and every coarse read decodes full bricks, never an error. The
// tables are assigned only once all of them have parsed.
func parseLevelsBlock(buf []byte, bricks []brickEntry) {
	if len(buf) < len(levelsMagic)+1+4 || string(buf[:len(levelsMagic)]) != levelsMagic {
		return
	}
	body := buf[len(levelsMagic) : len(buf)-4]
	if crc32.ChecksumIEEE(buf[:len(buf)-4]) != binary.LittleEndian.Uint32(buf[len(buf)-4:]) {
		return
	}
	bodyLen, n := binary.Uvarint(body)
	if n <= 0 || bodyLen != uint64(len(body)-n) {
		return
	}
	body = body[n:]
	tables := make([][]levelSpan, len(bricks))
	for i := range bricks {
		var ok bool
		if tables[i], body, ok = readLevelTable(body, 1, bricks[i].len); !ok {
			return
		}
		if t := tables[i]; len(t) > 0 {
			t[len(t)-1] = levelSpan{bytes: bricks[i].len, crc: bricks[i].crc}
		}
	}
	if len(body) != 0 {
		return
	}
	for i := range bricks {
		bricks[i].levels = tables[i]
	}
}

// readLevelTable is the one reader of a brick's level table, in a
// journal's level block and a legacy v4/v5 index entry alike: a uvarint
// span count of at most maxLevelEntries, then the spans — a uvarint prefix
// length and that prefix's CRC32 each — whose lengths must increase
// strictly and stay below limit, or a corrupt table could send a coarse
// read to decode garbage that passes its own checksum. The last implied
// spans are not stored; the table leaves them zero for the caller to fill.
func readLevelTable(buf []byte, implied int, limit int64) (spans []levelSpan, rest []byte, ok bool) {
	nlv, n := binary.Uvarint(buf)
	if n <= 0 || nlv > maxLevelEntries {
		return nil, nil, false
	}
	buf = buf[n:]
	if nlv == 0 {
		return nil, buf, true
	}
	spans = make([]levelSpan, nlv)
	prev := int64(0)
	for j := range spans[:int(nlv)-implied] {
		b, n := binary.Uvarint(buf)
		if n <= 0 || len(buf) < n+4 || int64(b) <= prev || int64(b) >= limit {
			return nil, nil, false
		}
		spans[j] = levelSpan{bytes: int64(b), crc: binary.LittleEndian.Uint32(buf[n:])}
		buf = buf[n+4:]
		prev = int64(b)
	}
	return spans, buf, true
}

// plausibleStat cross-checks one valid record against the brick geometry
// and its own invariants. It cannot catch a CRC-consistent lie, but it
// rejects every structurally impossible record before pruning trusts it.
func plausibleStat(st *brickStat, hdr *header, i int) bool {
	bk := hdr.bricks()
	lo, hi := bk.Box(i)
	if st.Count != uint64(boxPoints(lo[:bk.Rank], hi[:bk.Rank])) || st.Finite > st.Count {
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

// supportedVersion reports whether this package reads format version v.
func supportedVersion(v uint8) bool {
	return v >= formatVersionV1 && v <= formatVersionV5
}

// header is the decoded store header.
type header struct {
	version uint8 // formatVersion (the journal) or a legacy formatVersionV1, V2, V4, V5
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
	if h.dims, err = readDims(version == formatVersion); err != nil {
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
	if h.version == formatVersion && h.dims[0] < h.brick[0] {
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

// appendManifest serializes one generation manifest: the generation
// number, the field extents as of this generation, and an explicit
// (offset, length, crc32) entry per brick — explicit offsets, unlike the
// cumulative legacy index, because a rewritten brick's payload lives at the
// file tail, not in grid order. The statistics block and then the
// level-table block follow as trailing extensions, each only when at least
// one brick has something to record in it; a manifest of a store with
// neither simply ends after the entries, as every manifest did before the
// extensions existed.
func appendManifest(dst []byte, gen uint64, dims []int, bricks []brickEntry) []byte {
	dst = append(dst, manifestMagic...)
	dst = binary.AppendUvarint(dst, gen)
	dst = append(dst, uint8(len(dims)))
	for _, d := range dims {
		dst = binary.AppendUvarint(dst, uint64(d))
	}
	dst = binary.AppendUvarint(dst, uint64(len(bricks)))
	var stats, levels bool
	for i := range bricks {
		e := &bricks[i]
		dst = binary.AppendUvarint(dst, uint64(e.off))
		dst = binary.AppendUvarint(dst, uint64(e.len))
		dst = binary.LittleEndian.AppendUint32(dst, e.crc)
		stats = stats || e.stat.valid
		levels = levels || e.levels != nil
	}
	if stats {
		dst = appendStatsBlock(dst, bricks)
	}
	if levels {
		dst = appendLevelsBlock(dst, bricks)
	}
	return dst
}

// sealGeneration is the one commit assembly: it turns the bricks of
// generation gen, whose payloads all lie below manifestOff, into the
// manifest bytes that go at manifestOff, the footer bytes that go right
// after them, and the in-memory snapshot of the generation they commit
// (the caller binds its reader and cache epoch). hdr carries the committed
// extents.
func sealGeneration(hdr *header, gen uint64, prevFootOff int64, bricks []brickEntry, manifestOff int64) (man, foot []byte, m *manifest) {
	man = appendManifest(nil, gen, hdr.dims, bricks)
	ft := &genFooter{
		manifestOff: manifestOff,
		manifestLen: int64(len(man)),
		gen:         gen,
		prevOff:     prevFootOff,
		manifestCRC: crc32.ChecksumIEEE(man),
	}
	return man, appendGenFooter(nil, ft), newGenManifest(hdr, ft, manifestOff+int64(len(man)), bricks, man)
}

// newGenManifest builds the snapshot of the generation that the footer ft
// at footOff commits, for a freshly sealed commit and a loaded one alike.
func newGenManifest(hdr *header, ft *genFooter, footOff int64, bricks []brickEntry, raw []byte) *manifest {
	return &manifest{
		hdr:     hdr,
		gen:     ft.gen,
		footOff: footOff,
		prevOff: ft.prevOff,
		bricks:  bricks,
		fp:      manifestFingerprint(hdr, raw),
	}
}

// manifestFingerprint derives a manifest's content fingerprint: the
// header's logical content under the committed extents, plus the raw
// manifest (or legacy index) bytes. Two stores with identical fields,
// bricking, bound, and brick payloads share it; it moves on every commit
// (offsets alone distinguish generations), which is exactly what
// serving-layer validators (ETags) need.
func manifestFingerprint(hdr *header, raw []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(appendHeader(nil, hdr)), crc32.IEEETable, raw)
}

// parseManifest decodes a generation manifest against the store's header:
// the declared extents must agree with the header on every dimension but
// the first (only time grows), the brick count must match the grid those
// extents imply, and every entry must lie inside [minOff, maxOff) — the
// span between the header and the manifest itself. Trailing bytes after
// the entries are the optional extensions, statistics block first: a block
// that does not validate is dropped (decode-everything queries, full-brick
// coarse reads) together with whatever follows it, rather than failing the
// open, because the footer's manifest CRC already vouches for the bytes
// and a missing accelerator must never cost availability.
func parseManifest(buf []byte, hdr *header, minOff, maxOff int64) (gen uint64, dims []int, bricks []brickEntry, err error) {
	fail := func() (uint64, []int, []brickEntry, error) {
		return 0, nil, nil, ErrCorrupt
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
	// the check rejects hostile counts before the per-brick allocation.
	if int64(len(buf)) < int64(nb)*6 {
		return fail()
	}
	bricks = make([]brickEntry, nb)
	for i := range bricks {
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
		e := &bricks[i]
		e.off, e.len, e.crc = int64(o), int64(l), binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		// Subtract rather than add: a hostile offset near MaxInt64 would
		// wrap off+len negative and slip past an additive check.
		if e.off < minOff || e.off > maxOff-e.len {
			return fail()
		}
	}
	if n := statsBlockSize(len(bricks)); len(buf) >= n && string(buf[:len(statsMagic)]) == statsMagic {
		parseStatsBlock(buf[:n], &genHdr, bricks)
		buf = buf[n:]
	}
	if len(buf) != 0 {
		parseLevelsBlock(buf, bricks)
	}
	return gen, dims, bricks, nil
}

// bricks returns the header's brick partition. Every header this package
// builds or parses has passed the checks grid.NewBricks makes, so the error
// is dropped.
func (h *header) bricks() grid.Bricks {
	b, _ := grid.NewBricks(h.dims, h.brick)
	return b
}

// numBricks returns the total brick count.
func (h *header) numBricks() int {
	b := h.bricks()
	return b.Count()
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

// copyBox copies an N-d box of the given size from src (shape srcDims,
// box origin srcLo) into dst (shape dstDims, box origin dstLo), in whole-row
// runs.
func copyBox[T qoz.Float](dst []T, dstDims, dstLo []int, src []T, srcDims, srcLo []int, size []int) {
	w := grid.Walk(size, srcDims, srcLo, 1, dstDims, dstLo)
	for w.Next() {
		copy(dst[w.B:w.B+w.Run], src[w.A:w.A+w.Run])
	}
}
