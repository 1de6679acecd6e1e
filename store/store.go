package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"qoz"
	"qoz/internal/grid"
)

// DefaultCacheBytes is the default decoded-brick cache budget (256 MiB).
const DefaultCacheBytes = 256 << 20

// Options configures an opened Store.
type Options struct {
	// CacheBytes is the decoded-brick cache budget in bytes: 0 selects
	// DefaultCacheBytes, negative disables caching. Ignored when Cache is
	// set.
	CacheBytes int64
	// Cache, when non-nil, is a shared decoded-brick cache used instead of
	// a private per-store one — the way a server bounds decoded memory
	// across every field it mounts with one budget.
	Cache *Cache
	// Workers bounds concurrent brick decodes per ReadRegion call (<=0
	// selects GOMAXPROCS).
	Workers int
	// Remote configures the HTTP range-read backend used by OpenURL; it is
	// ignored by Open/OpenFile.
	Remote RemoteOptions
	// Generation pins a store to one committed generation instead of the
	// latest: old generations remain readable until Compact reclaims them.
	// 0 selects the latest generation; a non-zero value errors on legacy
	// index stores (v1/v2/v4/v5, which have no generations) and on
	// generations the footer chain no longer reaches. A store that was
	// written once and never mutated has exactly generation 1.
	Generation uint64
}

// Stats reports a Store's decode and cache activity since Open.
type Stats struct {
	// BricksDecoded counts actual codec decompressions (cache misses).
	BricksDecoded int64
	// BricksClipped counts the decodes among BricksDecoded that
	// reconstructed only the part of their brick a read needed: the
	// decodes the cache would not keep, for reads that did not cover their
	// brick whole.
	BricksClipped int64
	// BricksRead counts bricks served to region reads, hits and misses.
	BricksRead int64
	// CacheHits counts bricks served from the decoded-brick cache.
	CacheHits int64
	// BricksPruned counts bricks that Query resolved from the statistics
	// index alone, never fetching or decoding their payloads.
	BricksPruned int64
	// CachedBytes is the decoded bytes currently cached (the whole cache's
	// holdings when the store shares one via Options.Cache).
	CachedBytes int64
	// RemoteRanges and RemoteBytes count the HTTP range requests issued and
	// payload bytes fetched by an OpenURL store; both are zero for local
	// stores.
	RemoteRanges int64
	RemoteBytes  int64
}

// manifest is one immutable snapshot of a store's committed state: the
// extents, the per-brick entries, and the reader their offsets are valid
// against. Reads capture one snapshot up front, so a region read racing a
// commit sees either generation wholly — never a mix. Legacy index stores
// hold a single snapshot forever (gen 0); journals swap in a new one per
// committed generation.
type manifest struct {
	hdr     *header // dims as of this generation; brick/kind/codec/bound fixed
	ra      io.ReaderAt
	gen     uint64 // 0 for legacy index (non-generational) stores
	epoch   uint64 // cache epoch: bumped when prior payload offsets stop being authoritative
	footOff int64  // offset of this generation's footer; -1 for legacy index stores
	prevOff int64  // previous generation's footer offset; 0 = none
	bricks  []brickEntry
	fp      uint32 // manifest fingerprint (header content + manifest bytes)
}

// Store is a read handle on a brick store. All methods are safe for
// concurrent use.
type Store struct {
	man     atomic.Pointer[manifest]
	file    *os.File // backing file when opened by path (enables Refresh); closed by Close
	path    string   // backing path, or URL for OpenURL stores
	size    int64    // byte length of the backing object as last adopted
	codec   qoz.Codec
	cache   *lruCache
	workers int
	remote  *RemoteReader // non-nil for OpenURL stores
	gap     int64         // largest gap a fetch plan bridges (RemoteOptions.ReadAhead)
	mutable bool          // owned by a Mutable handle; Refresh is a no-op
	pinned  bool          // opened at a fixed Options.Generation; Refresh never advances it

	refreshMu sync.Mutex // serializes Refresh and guards file/retired/size against Close
	retired   []*os.File // superseded file handles kept open for in-flight reads

	decoded atomic.Int64
	clipped atomic.Int64
	read    atomic.Int64
	hits    atomic.Int64
	pruned  atomic.Int64
}

// Open parses the manifest of a brick store held in ra (size bytes long)
// and returns a random-access handle. Only the header and manifest are
// read; bricks are fetched lazily by region reads. A journal opens at its
// latest committed generation (or Options.Generation): a torn final
// commit — truncated manifest, half-written footer — falls back to the
// previous generation rather than failing.
func Open(ra io.ReaderAt, size int64, opts Options) (*Store, error) {
	if ra == nil {
		return nil, fmt.Errorf("store: nil reader")
	}
	hdr, headerLen, err := readHeaderAt(ra, size)
	if err != nil {
		return nil, err
	}
	codec, err := qoz.LookupID(hdr.codecID)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var man *manifest
	if hdr.version == formatVersion {
		man, err = loadGenManifest(ra, size, hdr, headerLen, opts.Generation)
	} else {
		if opts.Generation != 0 {
			return nil, fmt.Errorf("store: version %d stores have no generations (Options.Generation applies to v3)", hdr.version)
		}
		man, err = loadIndexManifest(ra, size, hdr, headerLen)
	}
	if err != nil {
		return nil, err
	}
	s := &Store{
		codec:   codec,
		workers: opts.Workers,
		size:    size,
		pinned:  opts.Generation != 0,
	}
	s.man.Store(man)
	if opts.Cache != nil {
		s.cache = opts.Cache.lru
	} else {
		cb := opts.CacheBytes
		if cb == 0 {
			cb = DefaultCacheBytes
		}
		s.cache = newLRUCache(cb) // nil (disabled) when cb < 0
	}
	return s, nil
}

// loadIndexManifest is the legacy read shim: it loads the manifest of the
// write-once index layouts nothing writes any more — the cumulative-length
// index behind a fixed footer, with v1/v2's bare (length, crc) entries,
// v4's entries extended with a per-brick progressive level table, or v5's
// v4 entries followed by the per-brick statistics block — into the same
// brick entries a journal manifest yields. Every declared quantity is
// validated against what the header implies before anything is allocated
// from it.
func loadIndexManifest(ra io.ReaderAt, size int64, hdr *header, headerLen int) (*manifest, error) {
	var foot [footerSize]byte
	if _, err := ra.ReadAt(foot[:], size-int64(footerSize)); err != nil {
		return nil, manifestReadErr(err)
	}
	v5 := hdr.version == formatVersionV5
	v4 := v5 || hdr.version == formatVersionV4
	wantTrailer := trailerMagic
	switch {
	case v5:
		wantTrailer = trailerMagicV5
	case v4:
		wantTrailer = trailerMagicV4
	}
	if string(foot[8:]) != wantTrailer {
		return nil, ErrCorrupt
	}
	idxOff := binary.LittleEndian.Uint64(foot[:8])
	if idxOff < uint64(headerLen) || idxOff > uint64(size-int64(footerSize)) {
		return nil, ErrCorrupt
	}
	nb := hdr.numBricks()
	idxLen := size - int64(footerSize) - int64(idxOff)
	// Each v1/v2 index entry occupies 5..14 bytes (varint length + crc32);
	// a v4/v5 entry adds a level-table count and at most maxLevelEntries
	// (varint, crc32) pairs, and a v5 index appends the fixed-size
	// statistics block. A valid index is bounded both ways by the brick
	// count; checking the lower bound BEFORE allocating per-brick slices
	// stops a tiny hostile file whose header declares billions of bricks
	// from forcing the allocations — the file itself must already be as
	// large as its index. The v5 lower bound stays at the bare entries so
	// a truncated statistics block degrades (no stats) instead of
	// rejecting the store.
	minEntry, maxEntry := int64(5), int64(binary.MaxVarintLen64+4)
	if v4 {
		minEntry += 1
		maxEntry += 1 + int64(maxLevelEntries)*int64(binary.MaxVarintLen64+4)
	}
	maxIdx := int64(nb)*maxEntry + binary.MaxVarintLen64
	if v5 {
		maxIdx += int64(statsBlockSize(nb))
	}
	if idxLen < int64(nb)*minEntry+1 || idxLen > maxIdx {
		return nil, ErrCorrupt
	}
	idx := make([]byte, idxLen)
	if _, err := ra.ReadAt(idx, int64(idxOff)); err != nil {
		return nil, manifestReadErr(err)
	}
	fp := manifestFingerprint(hdr, idx)
	declared, n := binary.Uvarint(idx)
	if n <= 0 || declared != uint64(nb) {
		return nil, ErrCorrupt
	}
	idx = idx[n:]
	m := &manifest{hdr: hdr, ra: ra, footOff: -1, bricks: make([]brickEntry, nb), fp: fp}
	off := int64(headerLen)
	for i := range m.bricks {
		l, n := binary.Uvarint(idx)
		if n <= 0 || l > maxBrickPayload {
			return nil, ErrCorrupt
		}
		idx = idx[n:]
		if len(idx) < 4 {
			return nil, ErrCorrupt
		}
		e := &m.bricks[i]
		e.off, e.len, e.crc = off, int64(l), binary.LittleEndian.Uint32(idx)
		idx = idx[4:]
		off += int64(l)
		if !v4 {
			continue
		}
		// A legacy table stores its last span too, which must be the
		// brick's full payload with its full-payload CRC.
		var ok bool
		e.levels, idx, ok = readLevelTable(idx, 0, e.len+1)
		if !ok || len(e.levels) > 0 && e.levels[len(e.levels)-1] != (levelSpan{bytes: e.len, crc: e.crc}) {
			return nil, ErrCorrupt
		}
	}
	if v5 {
		// Whatever follows the entries is the statistics block. It is
		// validated by size, magic, and its own CRC; any mismatch —
		// truncation, mutation, a hostile rewrite — degrades to no stats
		// (every query decodes every brick) rather than an open error:
		// statistics are an accelerator, and a wrong answer from a bad
		// index would be a correctness bug while a missing one is only
		// slow. The entries themselves remain strictly validated above.
		parseStatsBlock(idx, hdr, m.bricks)
		idx = nil
	}
	if len(idx) != 0 || off != int64(idxOff) {
		return nil, ErrCorrupt
	}
	return m, nil
}

// loadGenManifest locates the newest committed generation of a journal
// (or, when generation is non-zero, that specific generation via the
// footer chain) and loads its manifest.
func loadGenManifest(ra io.ReaderAt, size int64, hdr *header, headerLen int, generation uint64) (*manifest, error) {
	footOff, err := findLatestFooter(ra, size, headerLen)
	if err != nil {
		return nil, err
	}
	for {
		m, err := loadManifestAt(ra, size, hdr, headerLen, footOff)
		if err == nil {
			switch {
			case generation == 0 || m.gen == generation:
				return m, nil
			case m.gen < generation:
				return nil, fmt.Errorf("store: generation %d not committed (latest reachable is %d)", generation, m.gen)
			case m.prevOff == 0:
				return nil, fmt.Errorf("store: generation %d no longer reachable (compacted?)", generation)
			}
			footOff = m.prevOff
			continue
		}
		// A committed generation whose manifest fails its CRC (torn or
		// bit-rotted): fall back down the chain while one exists.
		ft, ferr := readGenFooterAt(ra, size, footOff)
		if ferr != nil || ft.prevOff == 0 {
			return nil, err
		}
		footOff = ft.prevOff
	}
}

// readGenFooterAt reads and validates the fixed-size generation footer at
// off, additionally checking positional plausibility against the file.
func readGenFooterAt(ra io.ReaderAt, size, off int64) (*genFooter, error) {
	if off < 0 || off+int64(genFooterSize) > size {
		return nil, ErrCorrupt
	}
	var buf [genFooterSize]byte
	if _, err := ra.ReadAt(buf[:], off); err != nil {
		return nil, manifestReadErr(err)
	}
	ft, err := parseGenFooter(buf[:])
	if err != nil {
		return nil, err
	}
	if ft.manifestOff+ft.manifestLen != off || ft.prevOff >= off {
		return nil, ErrCorrupt
	}
	return ft, nil
}

// findLatestFooter returns the offset of the newest valid generation
// footer: at the file tail after a clean commit, or — after a torn one —
// found by scanning backward for the footer trailer magic and validating
// candidates by their self-CRC.
func findLatestFooter(ra io.ReaderAt, size int64, headerLen int) (int64, error) {
	tail := size - int64(genFooterSize)
	if tail < int64(headerLen) {
		return 0, ErrCorrupt
	}
	if _, err := readGenFooterAt(ra, size, tail); err == nil {
		return tail, nil
	}
	// Torn tail: scan backward in chunks, overlapping by one footer so a
	// footer straddling a chunk boundary is still seen.
	const chunk = 256 << 10
	end := size
	for end > int64(headerLen) {
		start := max(int64(headerLen), end-chunk)
		buf := make([]byte, end-start)
		if _, err := ra.ReadAt(buf, start); err != nil {
			return 0, manifestReadErr(err)
		}
		for i := len(buf) - len(genTrailerMagic); i >= 0; i-- {
			if string(buf[i:i+len(genTrailerMagic)]) != genTrailerMagic {
				continue
			}
			footOff := start + int64(i) + int64(len(genTrailerMagic)) - int64(genFooterSize)
			if footOff < int64(headerLen) {
				continue
			}
			if _, err := readGenFooterAt(ra, size, footOff); err == nil {
				return footOff, nil
			}
		}
		if start == int64(headerLen) {
			break
		}
		end = start + int64(genFooterSize) - 1
	}
	return 0, ErrCorrupt
}

// loadManifestAt loads and validates the generation manifest committed by
// the footer at footOff.
func loadManifestAt(ra io.ReaderAt, size int64, hdr *header, headerLen int, footOff int64) (*manifest, error) {
	ft, err := readGenFooterAt(ra, size, footOff)
	if err != nil {
		return nil, err
	}
	if ft.manifestOff < int64(headerLen) {
		return nil, ErrCorrupt
	}
	raw := make([]byte, ft.manifestLen)
	if _, err := ra.ReadAt(raw, ft.manifestOff); err != nil {
		return nil, manifestReadErr(err)
	}
	if crc32.ChecksumIEEE(raw) != ft.manifestCRC {
		return nil, ErrCorrupt
	}
	gen, dims, bricks, err := parseManifest(raw, hdr, int64(headerLen), ft.manifestOff)
	if err != nil {
		return nil, err
	}
	if gen != ft.gen {
		return nil, ErrCorrupt
	}
	genHdr := *hdr
	genHdr.dims = dims
	m := newGenManifest(&genHdr, ft, footOff, bricks, raw)
	m.ra = ra
	return m, nil
}

// OpenFile opens a brick store file; Close releases the file handle.
func OpenFile(path string, opts Options) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s, err := Open(f, st.Size(), opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.file = f
	s.path = path
	return s, nil
}

// readHeaderAt parses the store header from the front of ra.
func readHeaderAt(ra io.ReaderAt, size int64) (*header, int, error) {
	if size < int64(len(magic)+5+8+footerSize) {
		return nil, 0, ErrCorrupt
	}
	buf := make([]byte, min(size, maxHeaderLen))
	if _, err := ra.ReadAt(buf, 0); err != nil {
		return nil, 0, manifestReadErr(err)
	}
	return parseHeader(buf)
}

// manifestReadErr classifies a failed manifest read. A read that came up
// short against a local file means a truncated archive — ErrCorrupt — but
// the remote backend routes transport faults, cancellations, and
// validator mismatches through the same ReadAt calls, and those must
// surface as themselves so callers can retry, time out, or re-open.
func manifestReadErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrCorrupt
	}
	return fmt.Errorf("store: reading manifest: %w", err)
}

// Close drops the store's bricks from its (possibly shared) cache and
// releases the underlying file when the Store was opened with OpenFile,
// along with any superseded handles Refresh retired. The handle fields
// are read under the same lock Refresh mutates them under, so a Close
// racing a final poll neither races nor leaks the reopened handle.
func (s *Store) Close() error {
	s.cache.evictOwner(s)
	s.refreshMu.Lock()
	retired, f := s.retired, s.file
	s.retired, s.file = nil, nil
	s.refreshMu.Unlock()
	for _, r := range retired {
		r.Close()
	}
	if f != nil {
		return f.Close()
	}
	return nil
}

// Dims returns the stored field's dimensions (of the current generation:
// a mutable store's slowest extent grows as steps are appended).
func (s *Store) Dims() []int { return append([]int(nil), s.man.Load().hdr.dims...) }

// BrickShape returns the brick partition shape.
func (s *Store) BrickShape() []int { return append([]int(nil), s.man.Load().hdr.brick...) }

// NumBricks returns the total brick count of the current generation.
func (s *Store) NumBricks() int { return s.man.Load().hdr.numBricks() }

// ErrorBound returns the absolute error bound every brick was compressed
// under; reads are guaranteed within it point-wise.
func (s *Store) ErrorBound() float64 { return s.man.Load().hdr.bound }

// Codec returns the per-brick codec.
func (s *Store) Codec() qoz.Codec { return s.codec }

// Float64 reports whether the store holds double-precision samples.
func (s *Store) Float64() bool { return s.man.Load().hdr.kind == kindFloat64 }

// DType returns the store's element type name: "float32" or "float64".
func (s *Store) DType() string { return kindName(s.man.Load().hdr.kind) }

// ManifestCRC returns a CRC32 fingerprint of the store's current manifest
// (header content plus the per-brick location/checksum entries). It
// identifies the store's committed content: serving layers derive strong
// validators (ETags) for responses computed from the store's bricks from
// it, and every committed generation moves it.
func (s *Store) ManifestCRC() uint32 { return s.man.Load().fp }

// Generation returns the store's committed generation number: the 1-based
// generation currently served (1 for a store that was written once and
// never mutated; it advances as commits land, via a Mutable in this
// process or Refresh picking them up from the backing object), and 0 only
// for a legacy index store (v1/v2/v4/v5), which has no generations.
func (s *Store) Generation() uint64 { return s.man.Load().gen }

// ManifestVersion returns the manifest fingerprint and generation as one
// consistent pair — unlike calling ManifestCRC and Generation separately,
// which could straddle a concurrent commit or Refresh. Serving layers
// derive response validators from exactly this pair.
func (s *Store) ManifestVersion() (crc uint32, gen uint64) {
	m := s.man.Load()
	return m.fp, m.gen
}

// HasBrickStats reports whether the store's current manifest carries a
// valid statistics record for at least one brick. Without any, Query still
// works by decoding every intersecting brick.
func (s *Store) HasBrickStats() bool {
	for _, e := range s.man.Load().bricks {
		if e.stat.valid {
			return true
		}
	}
	return false
}

// BrickStats returns the recorded data summary of brick i in the current
// generation. ok is false when the store carries no statistics index, the
// brick's record failed validation, or i is out of range.
func (s *Store) BrickStats(i int) (BrickStat, bool) {
	m := s.man.Load()
	if i < 0 || i >= len(m.bricks) || !m.bricks[i].stat.valid {
		return BrickStat{}, false
	}
	return m.bricks[i].stat.BrickStat, true
}

// Stats returns decode and cache counters accumulated since Open.
func (s *Store) Stats() Stats {
	st := Stats{
		BricksDecoded: s.decoded.Load(),
		BricksClipped: s.clipped.Load(),
		BricksRead:    s.read.Load(),
		CacheHits:     s.hits.Load(),
		BricksPruned:  s.pruned.Load(),
		CachedBytes:   s.cache.cachedBytes(),
	}
	if s.remote != nil {
		rs := s.remote.Stats()
		st.RemoteRanges = rs.Ranges
		st.RemoteBytes = rs.Bytes
	}
	return st
}

// Sample kinds. A store holds samples of one kind, and its decoded-brick
// cache always holds slices of that native kind. Every operation accepts
// any sample type through its generic ...T form and converts whole slices
// at the boundary under one rule: float32 samples widen exactly to float64
// (the result of a read, the input of a write), and float64 samples are
// never narrowed to float32, because the narrowing could break the error
// bound. The float32 methods beside the ...T functions are one-line
// conveniences.

// checkWiden refuses, with qoz.ErrNarrowing and before any work is done, a
// conversion from samples fromBytes wide to samples toBytes wide that
// would narrow.
func checkWiden(fromBytes, toBytes int) error {
	if toBytes < fromBytes {
		return qoz.ErrNarrowing
	}
	return nil
}

// checkBox validates the half-open box [lo, hi) against the field extents.
func checkBox(dims, lo, hi []int) error {
	return grid.CheckBox("store: region", dims, lo, hi)
}

// checkRead validates a read of the box [lo, hi) into samples of type T.
func checkRead[T qoz.Float](m *manifest, lo, hi []int) error {
	if err := checkWiden(kindSize(m.hdr.kind), elemBytes[T]()); err != nil {
		return err
	}
	return checkBox(m.hdr.dims, lo, hi)
}

// ReadField decodes the whole field (every brick) of a float32 store;
// ReadFieldT generalizes it over the sample type.
func (s *Store) ReadField(ctx context.Context) ([]float32, error) {
	return ReadFieldT[float32](ctx, s)
}

// ReadFieldT decodes the whole field as samples of type T.
func ReadFieldT[T qoz.Float](ctx context.Context, s *Store) ([]T, error) {
	m := s.man.Load()
	return readRegion[T](ctx, s, m, make([]int, len(m.hdr.dims)), m.hdr.dims)
}

// ReadRegion decodes the box [lo, hi) of a float32 store; ReadRegionT
// generalizes it over the sample type.
func (s *Store) ReadRegion(ctx context.Context, lo, hi []int) ([]float32, error) {
	return ReadRegionT[float32](ctx, s, lo, hi)
}

// ReadRegionT decodes the half-open box [lo, hi) of the field as samples
// of type T, touching only the bricks the box intersects. Bricks are
// decoded concurrently on a bounded worker pool, observe ctx, and pass
// through the decoded-brick cache; the result is row-major with shape
// hi-lo. Escaped double-precision points are restored exactly. The read
// serves one committed generation wholly: a commit landing mid-read is
// picked up by the next call, never mixed in. (Go methods cannot be
// generic, hence the free function.)
func ReadRegionT[T qoz.Float](ctx context.Context, s *Store, lo, hi []int) ([]T, error) {
	return readRegion[T](ctx, s, s.man.Load(), lo, hi)
}

// readRegion is ReadRegionT against one manifest snapshot.
func readRegion[T qoz.Float](ctx context.Context, s *Store, m *manifest, lo, hi []int) ([]T, error) {
	if err := checkRead[T](m, lo, hi); err != nil {
		return nil, err
	}
	out := make([]T, boxPoints(lo, hi))
	if err := fillBoxes(ctx, s, m, out, []Box{{lo, hi}}, 1); err != nil {
		return nil, err
	}
	return out, nil
}

// cacheKey keys brick i's decode at level in the decoded-brick cache. The
// key carries the payload offset, so a brick rewritten by a later
// generation can never be served from the old generation's cached decode:
// the new manifest's offset differs (commits only append), while unchanged
// bricks keep their entries — and their cache hits. The epoch covers the
// complement: when a compaction or refresh makes old offsets
// non-authoritative, it bumps the epoch and every earlier entry goes dead
// at once.
func (m *manifest) cacheKey(s *Store, i, level int) cacheKey {
	return cacheKey{owner: s, epoch: m.epoch, brick: i, off: m.bricks[i].off, level: level}
}

// cachedBrick returns brick i's decode at level when the cache holds it,
// counted and reported as one brick read and one cache hit, with the cache
// entry the caller holds a reference to: the samples stay valid until
// releaseBrick. A miss returns a nil entry.
func cachedBrick[N qoz.Float](s *Store, m *manifest, i, level int, obsv StageObserver) ([]N, *cacheEntry) {
	ent, ok := s.cache.get(m.cacheKey(s, i, level))
	if !ok {
		return nil, nil
	}
	s.read.Add(1)
	s.hits.Add(1)
	d := ent.data.([]N)
	if obsv != nil {
		obsv(StageCacheHit, 0, int64(len(d))*int64(kindSize(m.hdr.kind)))
	}
	return d, ent
}

// releaseBrick ends a reader's hold on a decoded brick: its reference to
// the cache entry, or — when the cache did not take the decode (ent nil)
// — the decode itself, which goes back to the slab pool.
func releaseBrick[N qoz.Float](data []N, ent *cacheEntry) {
	if ent != nil {
		ent.release()
		return
	}
	putSamples(data)
}

// decodeBrick is the one verify → decode body: it checks task t's payload
// bytes against the manifest, decodes them to the store's native kind N —
// the whole brick (level 0), or a level-L prefix to that level's
// compacted coarse grid — and hands a full decode to the cache when the
// cache admits it. Admission's verdict comes before the decode: a decode
// the cache will not keep, when the read needs only box of the brick
// (brick coordinates; nil for all of it), reconstructs just that box and
// the points it depends on, is counted in BricksClipped, and never enters
// the cache. The caller reads the samples — inside box, when it clipped —
// until it passes them and the returned entry (nil when the cache did not
// take them) to releaseBrick. payload is scratch: every decoder behind
// this path parses the container by copying section bytes out, so the
// caller may recycle it once decodeBrick returns.
func decodeBrick[N qoz.Float](ctx context.Context, s *Store, m *manifest, t *brickTask, box []qoz.Range, payload []byte, obsv StageObserver) ([]N, *cacheEntry, error) {
	i, level := t.brick, t.level
	if crc32.ChecksumIEEE(payload) != t.crc {
		return nil, nil, fmt.Errorf("store: brick %d: checksum mismatch: %w", i, ErrCorrupt)
	}
	bk := m.hdr.bricks()
	blo, bhi := bk.Box(i)
	bdims := grid.Sub(bhi[:], blo[:])
	want := bdims[:bk.Rank]
	if err := checkPayload[N](m, i, payload, want); err != nil {
		return nil, nil, err
	}
	stride := 1 << max(level-1, 0)
	points := 1 // of the stride-aligned grid over the brick
	for _, d := range want {
		points *= (d-1)/stride + 1
	}
	key, bytes := m.cacheKey(s, i, level), int64(points)*int64(kindSize(m.hdr.kind))
	admitted := s.cache.offer(key, bytes)
	if admitted {
		box = nil
	}
	var decodeStart time.Time
	if obsv != nil {
		decodeStart = time.Now()
	}
	var data []N
	var dims []int
	var err error
	got := 1
	if level > 0 {
		data, dims, got, err = qoz.DecodePayloadLevel[N](payload, level)
	} else {
		data, dims, err = qoz.DecodePayload[N](ctx, payload, box...)
	}
	if obsv != nil {
		obsv(StageDecode, time.Since(decodeStart), int64(len(data))*int64(kindSize(m.hdr.kind)))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("store: brick %d: %w", i, err)
	}
	if got != stride || !slices.Equal(dims, want) || len(data) != points {
		releaseBrick(data, nil)
		return nil, nil, fmt.Errorf("store: brick %d: decoded shape mismatch: %w", i, ErrCorrupt)
	}
	s.decoded.Add(1)
	if box != nil {
		s.clipped.Add(1)
	}
	if !admitted {
		return data, nil, nil
	}
	return data, s.cache.put(key, data, bytes), nil
}

// checkPayload validates brick i's payload framing against the manifest
// before the codec allocates anything from it: sample kind N, the store's
// codec, and the declared shape.
func checkPayload[N qoz.Float](m *manifest, i int, payload []byte, want []int) error {
	f64, id, dims, err := qoz.PeekPayload(payload)
	if err != nil || f64 != (elemBytes[N]() == 8) || id != m.hdr.codecID || !slices.Equal(dims, want) {
		return fmt.Errorf("store: brick %d: payload shape mismatch: %w", i, ErrCorrupt)
	}
	return nil
}

// elemBytes returns the byte width of a sample type.
func elemBytes[T qoz.Float]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// convertSamples converts between sample slices, returning the input
// unchanged when F and T are the same underlying type.
func convertSamples[F, T qoz.Float](v []F) []T {
	if out, ok := any(v).([]T); ok {
		return out
	}
	out := make([]T, len(v))
	for i, x := range v {
		out[i] = T(x)
	}
	return out
}
