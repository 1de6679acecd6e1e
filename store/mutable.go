package store

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"qoz"
	"qoz/internal/fsutil"
	"qoz/internal/grid"
	"qoz/internal/pool"
)

// Mutable is a read-write handle on a brick store (a generation journal).
// It embeds a *Store, so every read — ReadRegion, Stats, Dims — works
// exactly as on a read-only handle and always serves the latest committed
// generation, while AppendSteps, RewriteBricks, and Compact mutate the
// store journal-style: each mutation appends new brick payloads, a fresh
// manifest, and a generation footer, and the footer write is the commit
// point. A crash mid-commit leaves a torn tail that the next open simply
// ignores (the store reopens at the previous generation); old generations
// stay readable via Options.Generation until Compact reclaims them.
//
// Reads are safe concurrently with mutations: a region read captures one
// committed generation up front and is never served a mix. Mutations are
// serialized internally; the handle itself must not be used concurrently
// with Close. A store admits one Mutable at a time across all processes
// — see OpenMutable for the single-writer contract.
type Mutable struct {
	*Store
	opts qoz.Options // per-brick compression options (bound from the header)

	mu  sync.Mutex // serializes mutations; the embedded Store's file moves only under it
	end int64      // committed file end = next append offset
}

// CreateMutable creates a new mutable brick store at path. The store
// starts empty along the slowest (time) dimension: dims[0] must be 0, and
// AppendSteps grows it one or more steps at a time. The error bound in
// wo.Opts must be absolute (there is no data yet to resolve a relative
// bound against). The file is created exclusively — an existing path is
// an error, not an overwrite.
func CreateMutable(path string, dims []int, wo WriteOptions) (*Mutable, error) {
	if len(dims) == 0 || len(dims) > 8 {
		return nil, fmt.Errorf("store: need 1..8 dimensions, got %d", len(dims))
	}
	if dims[0] != 0 {
		return nil, fmt.Errorf("store: a mutable store starts with zero steps; dims[0] must be 0, got %d (append the initial field with AppendSteps)", dims[0])
	}
	if err := checkDimsV3(dims); err != nil {
		return nil, err
	}
	hdr, _, err := newHeader(dims, wo, wo.Float64)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Mutable, error) {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	// Header, then generation 1: an empty manifest and its footer. The
	// file is a complete, openable store from its first commit on.
	hb := appendHeader(nil, hdr)
	man, foot, _ := sealGeneration(hdr, 1, 0, nil, int64(len(hb)))
	if _, err := f.Write(append(append(hb, man...), foot...)); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	m, err := newMutable(f, path, Options{Workers: wo.Workers}, wo.Opts)
	if err != nil {
		return fail(err)
	}
	return m, nil
}

// OpenMutable opens an existing brick store at path for reading and
// mutation — any journal, whether CreateMutable started it empty or a
// Writer (Write, WriteFrom, qozc put) wrote it whole. A torn final commit
// (crash mid-append) is reclaimed here: the file is truncated back to its
// last committed generation. Legacy index stores (v1/v2/v4/v5) are refused
// — they predate the journal; rebuild them by reading the field and
// writing it again.
//
// Only the error bound persists in the file, so mutations through a
// reopened handle compress with the stored bound and default tuning;
// other qoz.Options set at CreateMutable (e.g. Metric) apply to that
// handle's lifetime only.
//
// A store must have at most one Mutable at a time, in one process:
// commits assume they own the committed end of the file, and there is no
// cross-process lock yet (see ROADMAP), so two concurrent writers would
// overwrite each other's commits. Any number of read-only handles
// (OpenFile/OpenURL + Refresh) are safe alongside the one writer.
func OpenMutable(path string, opts Options) (*Mutable, error) {
	if opts.Generation != 0 {
		return nil, errors.New("store: a mutable handle always tracks the latest generation; open old generations read-only via OpenFile with Options.Generation")
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	m, err := newMutable(f, path, opts, qoz.Options{})
	if err != nil {
		f.Close()
		return nil, err
	}
	return m, nil
}

// newMutable builds the Mutable over an already-open read-write file:
// locate the newest committed generation, drop any torn tail beyond it,
// and open the store state at the now-clean end. copts carries the
// caller's compression tuning; the bound always comes from the store
// header (it is part of the format's guarantee, not a per-handle knob).
func newMutable(f *os.File, path string, opts Options, copts qoz.Options) (*Mutable, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	hdr, headerLen, err := readHeaderAt(f, size)
	if err != nil {
		return nil, err
	}
	if hdr.version != formatVersion {
		return nil, fmt.Errorf("store: version %d store is a legacy write-once index; only v3 journals are mutable (rewrite it with Write or qozc put)", hdr.version)
	}
	footOff, err := findLatestFooter(f, size, headerLen)
	if err != nil {
		return nil, err
	}
	end := footOff + int64(genFooterSize)
	if end < size {
		// A torn commit's partial payloads/manifest past the last footer:
		// reclaim them now so the next commit appends at the committed end.
		if err := f.Truncate(end); err != nil {
			return nil, err
		}
	}
	s, err := Open(f, end, opts)
	if err != nil {
		return nil, err
	}
	s.file = f
	s.path = path
	s.mutable = true
	copts.ErrorBound, copts.RelBound = s.man.Load().hdr.bound, 0
	return &Mutable{Store: s, opts: copts, end: end}, nil
}

// AppendSteps is AppendStepsT for float32 rows.
func (m *Mutable) AppendSteps(ctx context.Context, rows []float32) error {
	return AppendStepsT(ctx, m, rows)
}

// AppendStepsT appends whole steps — slices along the slowest dimension —
// to a mutable store and commits them as one new generation. len(rows)
// must be a whole number of steps; float32 rows widen exactly into a
// float64 store, float64 rows into a float32 store are refused. Appending
// is brick-granular: when the committed step count is not a multiple of
// the time brick extent, the bricks of the final partial band are
// rewritten (their reconstruction is re-compressed together with the new
// rows under the same bound, so those points can drift up to twice the
// bound from the original field — append in multiples of BrickShape()[0]
// steps to avoid any recompression).
func AppendStepsT[T qoz.Float](ctx context.Context, m *Mutable, rows []T) error {
	// The sample kind is fixed for the store's life, so it is read (and the
	// append dispatched on it, here only) outside the mutation lock.
	kind := m.man.Load().hdr.kind
	if err := checkWiden(elemBytes[T](), kindSize(kind)); err != nil {
		return err
	}
	if kind == kindFloat64 {
		return appendSteps(ctx, m, convertSamples[T, float64](rows))
	}
	return appendSteps(ctx, m, convertSamples[T, float32](rows))
}

// appendSteps is the append path over the store's native kind N: cut the
// appended rows (plus the re-read rows of a trailing partial band) into
// bands, compress, and commit one new generation.
func appendSteps[N qoz.Float](ctx context.Context, m *Mutable, rows []N) error {
	if ctx == nil {
		ctx = context.Background()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	man := m.man.Load()
	hdr := man.hdr
	rowPoints := 1
	for _, d := range hdr.dims[1:] {
		rowPoints *= d
	}
	if len(rows) == 0 {
		return nil
	}
	if len(rows)%rowPoints != 0 {
		return fmt.Errorf("store: append of %d points is not whole steps of %d", len(rows), rowPoints)
	}
	steps := len(rows) / rowPoints
	oldT := hdr.dims[0]
	newDims := append([]int{oldT + steps}, hdr.dims[1:]...)
	if err := checkDimsV3(newDims); err != nil {
		return fmt.Errorf("store: appending %d steps: %w", steps, err)
	}

	b0 := hdr.brick[0]
	bandStart := oldT / b0
	combined := rows
	if partial := oldT % b0; partial != 0 {
		// The last committed band is partial: its bricks are about to be
		// rewritten, extended by the new rows, so read their reconstruction
		// back first.
		lo := make([]int, len(hdr.dims))
		lo[0] = bandStart * b0
		hi := append([]int{oldT}, hdr.dims[1:]...)
		old, err := readRegion[N](ctx, m.Store, man, lo, hi)
		if err != nil {
			return fmt.Errorf("store: re-reading partial band for append: %w", err)
		}
		combined = append(old, rows...)
	}

	newHdr := *hdr
	newHdr.dims = newDims
	newBricks := newHdr.bricks()
	newGrid0 := newBricks.Grid[0]
	nbPerBand := newBricks.Count() / newGrid0
	// Bricks below the (possibly partial, hence rewritten) last band keep
	// their entries — location, level table, statistics — as committed.
	bricks := make([]brickEntry, bandStart*nbPerBand, newGrid0*nbPerBand)
	copy(bricks, man.bricks)

	// Compress and append band by band, so peak memory holds one band's
	// payloads. Nothing is committed until the footer below: a failure
	// here leaves a garbage tail that the next commit overwrites.
	// Recompressed bricks (a rewritten partial band) get statistics over
	// the combined data actually compressed, so the "decoded within the
	// bound of [Min, Max]" guarantee holds per brick.
	cur := m.end
	for b := bandStart; b < newGrid0; b++ {
		bandRows := min(b0, newDims[0]-b*b0)
		start := (b - bandStart) * b0 * rowPoints
		band := combined[start : start+bandRows*rowPoints]
		payloads, entries, err := compressBand(ctx, &newHdr, m.codec, m.opts, m.workers, band, bandRows, b*nbPerBand)
		if err != nil {
			return err
		}
		if cur, err = m.place(payloads, entries, cur); err != nil {
			return err
		}
		bricks = append(bricks, entries...)
	}
	return m.commit(&newHdr, bricks, cur)
}

// place writes payloads back to back from offset cur, records where each
// landed in its entry, and returns the next free offset.
func (m *Mutable) place(payloads [][]byte, entries []brickEntry, cur int64) (int64, error) {
	for k, p := range payloads {
		if _, err := m.file.WriteAt(p, cur); err != nil {
			return 0, err
		}
		entries[k].off = cur
		cur += int64(len(p))
	}
	return cur, nil
}

// RewriteBricks is RewriteBricksT for float32 data.
func (m *Mutable) RewriteBricks(ctx context.Context, lo, hi []int, data []float32) error {
	return RewriteBricksT(ctx, m, lo, hi, data)
}

// RewriteBricksT replaces the data inside the brick-aligned box [lo, hi)
// of a mutable store and commits the change as one new generation. The
// box must be brick-aligned — every lo a multiple of the brick extent,
// every hi a multiple or the field edge — so the rewrite is exactly a set
// of whole bricks and no surrounding data is re-encoded. data is
// row-major with shape hi-lo, under AppendStepsT's sample-kind rule.
// Readers holding the previous generation (or any earlier one, via
// Options.Generation) still see the old bricks; Compact reclaims them.
func RewriteBricksT[T qoz.Float](ctx context.Context, m *Mutable, lo, hi []int, data []T) error {
	// Dispatched on the (immutable) sample kind here only; see AppendStepsT.
	kind := m.man.Load().hdr.kind
	if err := checkWiden(elemBytes[T](), kindSize(kind)); err != nil {
		return err
	}
	if kind == kindFloat64 {
		return rewriteBricks(ctx, m, lo, hi, convertSamples[T, float64](data))
	}
	return rewriteBricks(ctx, m, lo, hi, convertSamples[T, float32](data))
}

// rewriteBricks validates the brick-aligned box, compresses its bricks
// from data of the store's native kind N, and commits a generation whose
// manifest points the rewritten bricks at the appended payloads.
func rewriteBricks[N qoz.Float](ctx context.Context, m *Mutable, lo, hi []int, data []N) error {
	if ctx == nil {
		ctx = context.Background()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	man := m.man.Load()
	hdr := man.hdr
	dims := hdr.dims
	if err := checkBox(dims, lo, hi); err != nil {
		return err
	}
	for i := range dims {
		if lo[i]%hdr.brick[i] != 0 || (hi[i]%hdr.brick[i] != 0 && hi[i] != dims[i]) {
			return fmt.Errorf("store: rewrite box [%v,%v) is not aligned to bricks %v", lo, hi, hdr.brick)
		}
	}
	if want := boxPoints(lo, hi); len(data) != want {
		return fmt.Errorf("store: box %v..%v holds %d points, data has %d", lo, hi, want, len(data))
	}

	bk := hdr.bricks()
	nd, boxDims := bk.Rank, grid.Sub(hi, lo)
	var rewritten []int
	it := bk.Pieces(lo, hi)
	for it.Next() {
		rewritten = append(rewritten, it.Index)
	}
	payloads := make([][]byte, len(rewritten))
	entries := make([]brickEntry, len(rewritten))
	err := pool.RunErr(ctx, len(rewritten), m.workers, func(k int) error {
		// The box is brick-aligned, so each piece is its whole brick.
		p := bk.Piece(rewritten[k], lo, hi)
		srcLo, size := grid.Sub(p.Lo[:nd], lo), grid.Sub(p.Hi[:nd], p.Lo[:nd])
		var err error
		payloads[k], entries[k], err = compressBrick(ctx, m.codec, m.opts, data, boxDims[:nd], srcLo[:nd], size[:nd], rewritten[k])
		return err
	})
	if err != nil {
		return err
	}
	end, err := m.place(payloads, entries, m.end)
	if err != nil {
		return err
	}
	bricks := append([]brickEntry(nil), man.bricks...)
	for k, bi := range rewritten {
		bricks[bi] = entries[k]
	}
	newHdr := *hdr
	return m.commit(&newHdr, bricks, end)
}

// commit finishes a mutation: the generation manifest is appended at end
// (payloads already written below it), everything is synced, and only
// then is the footer — the commit point — written and synced. The
// in-memory snapshot swaps last, so concurrent readers move atomically
// from the old generation to the new.
func (m *Mutable) commit(newHdr *header, bricks []brickEntry, end int64) error {
	old := m.man.Load()
	man, foot, next := sealGeneration(newHdr, old.gen+1, old.footOff, bricks, end)
	if _, err := m.file.WriteAt(man, end); err != nil {
		return err
	}
	// First barrier: payloads and manifest must be durable before the
	// footer can declare them committed — otherwise a crash could persist
	// the footer but not the bytes it vouches for.
	if err := m.file.Sync(); err != nil {
		return err
	}
	if _, err := m.file.WriteAt(foot, next.footOff); err != nil {
		return err
	}
	if err := m.file.Sync(); err != nil {
		return err
	}
	next.ra, next.epoch = m.file, old.epoch
	m.man.Store(next)
	m.end = next.footOff + int64(genFooterSize)
	return nil
}

// Compact rewrites the store down to its single latest generation,
// reclaiming the space of superseded brick payloads, orphaned manifests,
// and the generation chain. Live payloads are copied verbatim (no
// re-compression, checksum-verified in transit) into a fresh file that
// atomically replaces the store via rename; the compacted store carries
// the next generation number, so pollers observe compaction as an
// ordinary generation advance. Earlier generations stop being readable —
// that is the point. Readers inside this process keep working across the
// swap; other processes keep their already-open file until they Refresh
// or reopen.
func (m *Mutable) Compact(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	man := m.man.Load()

	newHdr := *man.hdr // the compacted header carries the current extents
	hb := appendHeader(nil, &newHdr)
	// The temp file is about to replace a store that other processes (a
	// serving qozd, other readers) open by path: it takes over that
	// store's permissions.
	tmp, err := fsutil.CreateReplacement(m.path, ".compact*")
	if err != nil {
		return err
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if _, err := tmp.Write(hb); err != nil {
		return fail(err)
	}
	// Payloads are copied verbatim, so everything recorded about them —
	// checksum, level table, statistics — is too; only the offsets change.
	bricks := append([]brickEntry(nil), man.bricks...)
	cur := int64(len(hb))
	for i := range bricks {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		e := &bricks[i]
		p := make([]byte, e.len)
		if _, err := man.ra.ReadAt(p, e.off); err != nil {
			return fail(fmt.Errorf("store: brick %d: %w", i, err))
		}
		if crc32.ChecksumIEEE(p) != e.crc {
			return fail(fmt.Errorf("store: brick %d: checksum mismatch: %w", i, ErrCorrupt))
		}
		if _, err := tmp.Write(p); err != nil {
			return fail(err)
		}
		e.off = cur
		cur += e.len
	}
	manBytes, foot, next := sealGeneration(&newHdr, man.gen+1, 0, bricks, cur)
	if _, err := tmp.Write(append(manBytes, foot...)); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), m.path); err != nil {
		return fail(err)
	}
	// The rename is durable only once its directory is. m.path already
	// names the new file, so the swap below happens either way and a
	// failed directory sync is reported after it.
	syncErr := fsutil.SyncDir(m.path)

	// The swap is Refresh's: the old handle is retired (readers may be
	// mid-region on the old generation) and new reads move to the
	// compacted file. The epoch bump kills every cached brick wholesale:
	// the new file's offsets are a fresh space that could collide with
	// stale entries from the old one.
	next.ra, next.epoch = tmp, man.epoch+1
	m.end = next.footOff + int64(genFooterSize)
	m.refreshMu.Lock()
	m.adopt(next, tmp, m.end)
	m.refreshMu.Unlock()
	m.cache.evictOwner(m.Store)
	return syncErr
}
