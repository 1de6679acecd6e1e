// Package store implements a persistent, random-access compressed field
// store: a field is partitioned into fixed-shape N-d bricks, each brick
// independently compressed through the qoz.Codec registry, so that any
// region of interest can be decoded by touching only the bricks it
// intersects — the partial-read regime a multi-terabyte simulation
// archive needs, which the whole-field and streaming codecs cannot serve.
//
// # Building and reading stores
//
// [Write] builds a store from an in-memory field in one call; the
// incremental [Writer] appends whole rows and flushes brick bands as they
// complete, so peak memory is one band regardless of field size; and
// [WriteFrom] re-bricks a slab stream without materializing the field.
// Element type is a first-class axis: [WriteT] and [NewWriterT] are
// generic over float32 and float64, and float64 bricks carry the escape
// envelope so non-finite points round-trip exactly.
//
// [Open], [OpenFile], and [OpenURL] return a read handle. Region reads —
// the generic [ReadRegionT] and its float32 method [Store.ReadRegion],
// the coarse [ReadRegionLevelT], and [ReadBoxesIntoT], which the others
// are cases of — decode only the bricks the requested boxes intersect,
// through a byte-budgeted cache of decoded bricks that can be shared
// across stores ([Cache], Options.Cache). A decode that does not fit is
// admitted only when it has been read more often than every
// least-recently-used entry it would evict, so one-off decodes (a scan,
// the corner bricks of a box) do not push out the bricks most reads
// share; eviction among admitted entries is least-recently-used. All
// reads — region, multi-box, level and query — share that one cache.
// There is one read path for
// every level and every cache state (read.go): each box is walked once
// as its pieces, box ∩ brick; a piece whose brick is cached is copied out
// at once on the calling goroutine, the rest decode concurrently on one
// bounded worker pool. The geometry — pieces, level grids, the row-run
// walker that queries, brick cuts and the gateway's stitch also use — is
// internal/grid's, in fixed-size arrays, so a read the cache serves whole
// allocates nothing. OpenURL serves the same reads over HTTP range
// requests, fetching only the header, the manifest, and intersecting
// bricks.
//
// # One format: the generation journal
//
// Every store this package writes is a generation journal (format v3):
// header, brick payloads, a manifest — one entry per brick, followed by
// the optional statistics and level-table blocks — and a generation
// footer, the commit point. What Write/Writer produce is a journal of
// exactly one generation, streamed to a plain io.Writer. For in-situ
// workflows where a simulation emits time steps continuously,
// [CreateMutable] starts a store with zero committed steps and
// [OpenMutable] reopens any journal, a Writer-made one included;
// [Mutable.AppendSteps] grows it along the slowest dimension,
// [Mutable.RewriteBricks] replaces brick-aligned regions, and every
// mutation commits journal-style — new payloads, a fresh manifest, and a
// generation footer are appended; nothing already written is touched. A
// torn commit (crash mid-append) costs at most the uncommitted generation:
// the store re-opens at the previous one. Level tables and statistics are
// recorded by every one of these paths, so coarse (level) reads fetch
// only payload prefixes and queries prune bricks on growing stores exactly
// as on finished ones.
//
// Old generations remain readable (Options.Generation) until
// [Mutable.Compact] rewrites the store down to its latest generation and
// reclaims their space. Readers follow a growing store with
// [Store.Refresh], which atomically adopts a later generation of the same
// store — from the open file, the file its path now names, or a URL — and
// refuses anything else (ErrRemoteChanged).
//
// The index layouts earlier versions of this package wrote (v1, v2, v4,
// v5) stay readable through one loading shim; nothing writes them. The
// byte-level layout of every version is specified normatively in
// docs/FORMAT.md and pinned by the golden fixtures under testdata/.
package store
