package store

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
)

// Refresh re-checks the store's backing object for newer committed
// generations and atomically adopts the latest one found, reporting
// whether the manifest advanced. It is how a serving process tracks a
// store another process is appending to: in-flight region reads keep
// their generation; reads started after a successful Refresh see the new
// one. Every store this package writes is examined — a written-once file
// is a journal at generation 1 that may grow later.
//
// A legacy index store (v1/v2/v4/v5), a store opened over a plain
// io.ReaderAt (which has no authority to re-measure) and a store pinned
// to a historical generation with Options.Generation never advance:
// Refresh returns (false, nil). Otherwise the candidate is the open file
// re-measured, the file the path now names (after a Compact, which
// renames a rewritten store over the old one, or a second qozc put), or
// the URL's object under its new validator, and one rule decides:
//
//   - The candidate must be the same store: same codec, kind, bricking,
//     bound and fixed extents.
//   - Its latest generation must be later than the served one. The same
//     generation with the same manifest fingerprint is nothing new (a
//     writer mid-append, a touched validator, a byte-identical copy):
//     Refresh reports no advance, but when the candidate is another object
//     — a new file at the path, the URL under a new validator — the store
//     rebinds to it, so the next poll compares against it instead of
//     opening it again. Anything else — a different store, a regressed or
//     rewritten generation, such as a path re-put from scratch — is
//     ErrRemoteChanged, the served generation stays, and the mount must
//     be re-opened.
//   - Decoded bricks stay cached only when the bytes under their offsets
//     are the ones they were decoded from: an ordinary append (the open
//     file still commits the served generation, unchanged, where it was),
//     or a rebind (equal fingerprints cover every brick's offset, length
//     and CRC). Any other adoption starts a new cache epoch, so no decode
//     of the old bytes is ever served for the new ones.
//
// A superseded file handle stays open for in-flight reads until Close.
// In-flight reads of a URL racing the validator swap fail with
// ErrRemoteChanged rather than mixing object versions. Refresh on the
// Store inside a Mutable is a no-op: its own commits advance the manifest
// directly.
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
	if man.gen == 0 || (s.remote == nil && s.file == nil) {
		return false, nil
	}
	ra, size, f, err := s.candidate(ctx)
	if ra == nil || err != nil {
		return false, err
	}
	next, err := nextManifest(ra, size, man, s.path)
	if next == nil {
		if f != nil {
			f.Close()
		}
		return false, err
	}
	if s.remote != nil {
		s.remote.setState(ra.(versionReader).etag, size)
		next.ra = s.remote // rebind off the refresh context
	}
	s.adopt(next, f, size)
	return next.gen != man.gen, nil
}

// candidate picks the bytes Refresh examines: the URL's object under its
// new validator, the file the path now names, or the open file
// re-measured. A nil reader means the backing object shows no change. A
// non-nil f is a newly opened file the caller owns until it adopts it.
func (s *Store) candidate(ctx context.Context) (ra io.ReaderAt, size int64, f *os.File, err error) {
	if s.remote != nil {
		etag, size, err := s.remote.fetchMeta(ctx)
		if curEtag, curSize := s.remote.state(); err != nil || etag == curEtag && size == curSize {
			return nil, 0, nil, err
		}
		return versionReader{r: s.remote, ctx: ctx, etag: etag, size: size}, size, nil, nil
	}
	st, err := s.file.Stat()
	if err != nil {
		return nil, 0, nil, err
	}
	if pst, err := os.Stat(s.path); err == nil && !os.SameFile(st, pst) {
		if f, err = os.Open(s.path); err != nil {
			return nil, 0, nil, err
		}
		if st, err = f.Stat(); err != nil {
			f.Close()
			return nil, 0, nil, err
		}
		return f, st.Size(), f, nil
	}
	if st.Size() == s.size {
		return nil, 0, nil, nil
	}
	return s.file, st.Size(), nil, nil
}

// nextManifest applies Refresh's rule to the candidate bytes ra (size
// long, named name in errors) against the served manifest man. It returns
// the manifest to adopt, its cache epoch set, or nil when the candidate
// commits nothing new or is refused.
func nextManifest(ra io.ReaderAt, size int64, man *manifest, name string) (*manifest, error) {
	hdr, headerLen, err := readHeaderAt(ra, size)
	if err != nil {
		return nil, err
	}
	if !sameStoreIdentity(hdr, man.hdr) {
		return nil, fmt.Errorf("%w: %s now holds a different store", ErrRemoteChanged, name)
	}
	next, err := loadGenManifest(ra, size, hdr, headerLen, 0)
	switch {
	case err != nil:
		return nil, err
	case next.gen == man.gen && next.fp == man.fp:
		if ra == man.ra {
			return nil, nil
		}
		next.epoch = man.epoch // a rebind: the same bricks where they were
		return next, nil
	case next.gen <= man.gen:
		return nil, fmt.Errorf("%w: %s regressed to generation %d (had %d)", ErrRemoteChanged, name, next.gen, man.gen)
	}
	// Cached decodes are keyed by payload offset within an epoch. They stay
	// authoritative only if the bytes under those offsets are the ones they
	// were decoded from: the same open file, still committing the served
	// manifest at its footer.
	next.epoch = man.epoch + 1
	if ra == man.ra {
		if old, err := loadManifestAt(ra, size, hdr, headerLen, man.footOff); err == nil && old.gen == man.gen && old.fp == man.fp {
			next.epoch = man.epoch
		}
	}
	return next, nil
}

// adopt swaps in next as the served manifest over a backing object size
// bytes long. A non-nil f replaces the backing file; the superseded
// handle is retired, open for reads still mid-region on it, until Close.
// The caller holds refreshMu.
func (s *Store) adopt(next *manifest, f *os.File, size int64) {
	if f != nil {
		s.retired = append(s.retired, s.file)
		s.file = f
	}
	s.size = size
	s.man.Store(next)
}

// sameStoreIdentity reports whether two headers describe the same store:
// everything but the version byte and the growable time extent must
// match. (A compacted file re-declares current extents in its front
// header, so dims[0] is allowed to differ.)
func sameStoreIdentity(a, b *header) bool {
	if a.version != formatVersion || b.version != formatVersion ||
		a.codecID != b.codecID || a.kind != b.kind || a.bound != b.bound ||
		len(a.dims) != len(b.dims) || !slices.Equal(a.brick, b.brick) {
		return false
	}
	return slices.Equal(a.dims[1:], b.dims[1:])
}
