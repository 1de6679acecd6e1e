package store

import (
	"context"
	"fmt"
	"os"
)

// Refresh re-checks the store's backing object for newer committed
// generations and atomically adopts the latest one found, reporting
// whether the manifest advanced. It is how a serving process tracks a
// store another process is appending to: in-flight region reads keep
// their generation; reads started after a successful Refresh see the new
// one. Every store this package writes is examined — a written-once file
// is a journal at generation 1 that may grow later.
//
//   - A legacy index store (v1/v2/v4/v5), or a store opened over a plain
//     io.ReaderAt, which has no authority to re-measure, never advances:
//     Refresh returns (false, nil). Neither does a store pinned to a
//     historical generation with Options.Generation — the pin is the
//     point.
//   - A file-backed store picks up appended generations in place, and
//     follows a compaction (the path now names a different file) by
//     re-opening it; the superseded handle stays open for in-flight reads
//     until Close. A path re-written from scratch (a second qozc put) is
//     not a later generation of the same store: Refresh reports
//     ErrRemoteChanged and the mount must be re-opened.
//   - A URL-backed store re-probes the origin's validator. A changed
//     object is adopted only if it is the same store advanced to a later
//     generation — same codec, kind, bricking, bound, and fixed extents —
//     otherwise Refresh returns ErrRemoteChanged and the mount must be
//     re-opened. In-flight reads racing the validator swap fail with
//     ErrRemoteChanged rather than mixing object versions.
//
// Refresh on the Store inside a Mutable is a no-op: its own commits
// advance the manifest directly.
func (s *Store) Refresh(ctx context.Context) (advanced bool, _ error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.mutable || s.pinned {
		return false, nil
	}
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	man := s.man.Load()
	if man.gen == 0 {
		return false, nil
	}
	if s.remote != nil {
		return s.refreshRemote(ctx, man)
	}
	if s.file == nil {
		return false, nil
	}
	return s.refreshFile(man)
}

// refreshFile picks up new generations from a local file: appended ones
// through the already-open handle, a compacted replacement by re-opening
// the path.
func (s *Store) refreshFile(man *manifest) (bool, error) {
	fst, err := s.file.Stat()
	if err != nil {
		return false, err
	}
	if pst, err := os.Stat(s.path); err == nil && !os.SameFile(fst, pst) {
		return s.refreshReopen(man)
	}
	size := fst.Size()
	if size <= s.size {
		return false, nil
	}
	hdr, headerLen, err := readHeaderAt(s.file, size)
	if err != nil {
		return false, err
	}
	newMan, err := loadGenManifest(s.file, size, hdr, headerLen, 0)
	if err != nil {
		return false, err
	}
	switch {
	case newMan.gen < man.gen:
		// An append-only file cannot regress; the object was tampered with.
		return false, ErrRemoteChanged
	case newMan.gen == man.gen:
		// Growth without a commit: a writer mid-append. Leave s.size so the
		// next Refresh re-examines the (by then longer) tail.
		return false, nil
	}
	newMan.epoch = man.epoch // same file: committed offsets stay authoritative
	s.size = size
	s.man.Store(newMan)
	return true, nil
}

// refreshReopen re-opens the store's path after the file behind it was
// replaced (a Compact in another process renames the rewritten store over
// the old one). The replacement must be the same store at a strictly
// later generation; Compact guarantees that by numbering the compacted
// file past the generations it swallowed.
func (s *Store) refreshReopen(man *manifest) (bool, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return false, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return false, err
	}
	size := st.Size()
	hdr, headerLen, err := readHeaderAt(f, size)
	if err != nil {
		f.Close()
		return false, err
	}
	if !sameStoreIdentity(hdr, man.hdr) {
		f.Close()
		return false, fmt.Errorf("%w: %s was replaced by a different store", ErrRemoteChanged, s.path)
	}
	newMan, err := loadGenManifest(f, size, hdr, headerLen, 0)
	if err != nil {
		f.Close()
		return false, err
	}
	if newMan.gen <= man.gen {
		f.Close()
		return false, fmt.Errorf("%w: %s regressed to generation %d (had %d)", ErrRemoteChanged, s.path, newMan.gen, man.gen)
	}
	// A different file is a fresh offset space: bump the epoch so no cache
	// entry from the old file can collide, and retire the old handle for
	// readers still mid-region on it.
	newMan.epoch = man.epoch + 1
	s.retired = append(s.retired, s.file)
	s.file = f
	s.closer = f
	s.size = size
	s.man.Store(newMan)
	return true, nil
}

// refreshRemote re-probes the origin and adopts a later generation of the
// same store, or reports ErrRemoteChanged. The candidate version is
// inspected through a validator-pinned reader and fully validated BEFORE
// any state is adopted: a rejected candidate leaves the reader's
// validator — and with it every in-flight and future read of the current
// generation — untouched.
func (s *Store) refreshRemote(ctx context.Context, man *manifest) (bool, error) {
	etag, size, err := s.remote.fetchMeta(ctx)
	if err != nil {
		return false, err
	}
	if curEtag, curSize := s.remote.state(); etag == curEtag && size == curSize {
		return false, nil
	}
	ra := versionReader{r: s.remote, ctx: ctx, etag: etag, size: size}
	hdr, headerLen, err := readHeaderAt(ra, size)
	if err != nil {
		return false, err
	}
	if !sameStoreIdentity(hdr, man.hdr) {
		return false, fmt.Errorf("%w: %s now serves a different store", ErrRemoteChanged, s.remote.url)
	}
	newMan, err := loadGenManifest(ra, size, hdr, headerLen, 0)
	if err != nil {
		return false, err
	}
	switch {
	case newMan.gen < man.gen,
		newMan.gen == man.gen && newMan.fp != man.fp:
		return false, fmt.Errorf("%w: %s regressed to generation %d (had %d)", ErrRemoteChanged, s.remote.url, newMan.gen, man.gen)
	case newMan.gen == man.gen:
		// The validator moved but the committed content did not (a bucket
		// copy, a metadata touch): nothing to adopt.
		return false, nil
	}
	// Validated: adopt the new version. setState clears the block cache
	// (its blocks belong to the old validator's bytes); the epoch bump
	// kills cached decoded bricks — identical in a well-behaved
	// append-only object, but a swapped object that passed the gen gate is
	// still a different byte space, so reads re-verify.
	s.remote.setState(etag, size)
	newMan.ra = s.remote // rebind off the refresh context
	newMan.epoch = man.epoch + 1
	s.size = size
	s.man.Store(newMan)
	return true, nil
}

// sameStoreIdentity reports whether two headers describe the same store:
// everything but the version byte and the growable time extent must
// match. (A compacted file re-declares current extents in its front
// header, so dims[0] is allowed to differ.)
func sameStoreIdentity(a, b *header) bool {
	if a.version != formatVersion || b.version != formatVersion ||
		a.codecID != b.codecID || a.kind != b.kind || a.bound != b.bound ||
		len(a.dims) != len(b.dims) || !equalInts(a.brick, b.brick) {
		return false
	}
	return equalInts(a.dims[1:], b.dims[1:])
}
