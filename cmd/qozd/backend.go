// The seam between qozd's one request pipeline (main.go) and its two
// roles: a backend is where fields and their samples come from — stores
// mounted in this process (local, here) or a fleet of other qozd processes
// (fleet, gateway.go). It is not an extension point.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"maps"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qoz/internal/pool"
	"qoz/obs"
	"qoz/store"
)

// snapshot is one field pinned at one committed generation. A request
// resolves once and validates, mints its ETag and produces from the same
// snapshot, so all three describe the same generation.
type snapshot struct {
	name  string
	dims  []int
	dtype string  // "float32" or "float64"
	bound float64 // absolute point-wise error bound
	crc   uint32  // manifest fingerprint of the pinned generation
	gen   uint64
	// src is the backend's own handle on what it resolved (a mounted store,
	// a catalog entry), handed back to describe/region/query so they act on
	// exactly what was validated. Only the backend that set it reads it.
	src any
}

// backend is what differs between serving stores and serving a fleet.
type backend interface {
	// list resolves every served field, sorted by name.
	list() []snapshot
	// resolve pins one field at its current committed generation.
	resolve(name string) (snapshot, bool)
	// describe completes the field's manifest with what a snapshot does not
	// carry: the brick grid, the codec, and where the data lives.
	describe(f snapshot, fi *fieldInfo)
	// region produces the samples of the boxes on the level's grid, each
	// row-major and one after the other in list order, as a slab: decoded
	// float32 or float64 samples, or the same samples as the raw
	// little-endian bytes of the body (see writeRegion).
	region(ctx context.Context, f snapshot, boxes []store.Box, level int) (any, error)
	// query answers a pushdown query over the field.
	query(ctx context.Context, f snapshot, req store.QueryRequest) (*store.QueryResult, error)
	// failure says how a region or query error is answered (its text is the
	// message): the status, the Retry-After seconds ("" when retrying would
	// repeat the failure), and whether the backend's view of the field was
	// merely behind, so that one refresh and retry may still answer.
	failure(err error) (status int, retryAfter string, stale bool)
	// refresh brings the served generations up to date, returning one
	// error per thing that failed to (it keeps serving its previous one).
	refresh(ctx context.Context) []error
	// ready reports whether the process should receive traffic, with the
	// /readyz body saying why.
	ready(ctx context.Context) (bool, map[string]any)
	// nouns name, for the HELP text of the shared metric families, the
	// work one single-flight lead executes and what a refresh polls.
	nouns() (work, refreshes string)
	// families are the backend's own /metrics families.
	families() []family
	close()
}

// mount is one name=target pair.
type mount struct {
	name   string
	target string
}

// mountFlags collects repeated -mount flags.
type mountFlags []mount

func (m *mountFlags) String() string {
	parts := make([]string, len(*m))
	for i, mt := range *m {
		parts[i] = mt.name + "=" + mt.target
	}
	return strings.Join(parts, ",")
}

func (m *mountFlags) Set(v string) error {
	name, target, ok := strings.Cut(v, "=")
	if !ok || name == "" || target == "" {
		return fmt.Errorf("want name=path-or-url, got %q", v)
	}
	*m = append(*m, mount{name: name, target: target})
	return nil
}

// serverOptions configures a shard: the handler over a local backend.
type serverOptions struct {
	CacheBytes   int64
	Workers      int
	MaxInflight  int
	MaxPoints    int
	ReadAhead    int64         // largest gap a URL mount's fetch plan bridges; <=0 fetches exact spans
	MountTimeout time.Duration // per-mount open deadline; 0 = none
	Guard        guardOptions  // auth tenants and rate limits
	Ins          *instrument   // traces, histograms, request logs; nil builds a silent one
	Pprof        bool          // expose /debug/pprof/* on the mux
}

// field is one mounted store.
type field struct {
	target string
	store  *store.Store
}

// local is the backend of a shard: the mounted stores, the decoded-brick
// cache they share, and the admission semaphore in front of their decodes.
type local struct {
	fields    map[string]*field
	cache     *store.Cache
	stageHist *obs.HistogramVec // filled by the instrument's stage observer
	inflight  chan struct{}     // nil when unlimited
	rejected  atomic.Int64

	// refreshBad tracks mounts whose last generation-refresh poll failed,
	// for /readyz: a shard that cannot follow its stores should be rotated
	// out of a gateway's traffic before it serves stale generations.
	refreshMu  sync.Mutex
	refreshBad map[string]string // mount name → last refresh error
}

// newServer opens every mount (files via OpenFile, http(s) URLs via
// OpenURL) over one shared decoded-brick cache and serves them.
func newServer(mounts []mount, opts serverOptions) (*handler, error) {
	h, err := newHandler(opts.MaxPoints, opts.Guard, opts.Ins, opts.Pprof)
	if err != nil {
		return nil, err
	}
	l := &local{
		fields:     make(map[string]*field, len(mounts)),
		cache:      store.NewCache(opts.CacheBytes),
		stageHist:  h.ins.stageHist,
		refreshBad: make(map[string]string),
	}
	if opts.MaxInflight > 0 {
		l.inflight = make(chan struct{}, opts.MaxInflight)
	}
	// NewCache(<=0) is a disabled cache, so one Options literal covers the
	// -cache-bytes 0 case too.
	so := store.Options{Cache: l.cache, Workers: opts.Workers}
	so.Remote.ReadAhead = opts.ReadAhead
	for _, m := range mounts {
		if _, dup := l.fields[m.name]; dup {
			l.close()
			return nil, fmt.Errorf("duplicate mount name %q", m.name)
		}
		var st *store.Store
		if strings.HasPrefix(m.target, "http://") || strings.HasPrefix(m.target, "https://") {
			ctx, cancel := context.Background(), func() {}
			if opts.MountTimeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, opts.MountTimeout)
			}
			st, err = store.OpenURLContext(ctx, m.target, so)
			cancel()
		} else {
			st, err = store.OpenFile(m.target, so)
		}
		if err != nil {
			l.close()
			return nil, fmt.Errorf("mount %s: %w", m.name, err)
		}
		l.fields[m.name] = &field{target: m.target, store: st}
	}
	h.be = l
	return h, nil
}

func (l *local) close() {
	for _, f := range l.fields {
		f.store.Close()
	}
}

func (l *local) list() []snapshot {
	names := fieldNames(l.fields)
	out := make([]snapshot, len(names))
	for i, name := range names {
		out[i], _ = l.resolve(name)
	}
	return out
}

func (l *local) resolve(name string) (snapshot, bool) {
	f, ok := l.fields[name]
	if !ok {
		return snapshot{}, false
	}
	st := f.store
	crc, gen := st.ManifestVersion()
	return snapshot{name: name, dims: st.Dims(), dtype: st.DType(), bound: st.ErrorBound(),
		crc: crc, gen: gen, src: f}, true
}

func (l *local) describe(f snapshot, fi *fieldInfo) {
	src := f.src.(*field)
	stats := src.store.Stats()
	fi.Target = src.target
	fi.Brick = src.store.BrickShape()
	fi.Bricks = src.store.NumBricks()
	fi.Codec = src.store.Codec().Name()
	fi.Stats = &stats
}

// errShed marks a decode refused at -max-inflight capacity; it surfaces
// to every coalesced waiter as the same retryable 503.
var errShed = errors.New("server at -max-inflight capacity")

// admit takes a -max-inflight slot for one decode, or sheds it. Admission
// control bounds concurrent decodes rather than queueing unboundedly — a
// shed request is retryable, an OOM is not. It runs inside the
// single-flight (region and query are the flight's produce), so a
// coalesced herd of N requests consumes one slot, not N, and a shed leader
// sheds the whole herd.
func (l *local) admit() (release func(), err error) {
	if l.inflight == nil {
		return func() {}, nil
	}
	select {
	case l.inflight <- struct{}{}:
		return func() { <-l.inflight }, nil
	default:
		l.rejected.Add(1)
		return nil, errShed
	}
}

func (l *local) region(ctx context.Context, f snapshot, boxes []store.Box, level int) (any, error) {
	release, err := l.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	read := readBoxes[float32]
	if f.dtype == "float64" {
		read = readBoxes[float64]
	}
	data, err := read(ctx, f, boxes, level)
	if err != nil {
		return nil, fmt.Errorf("read region: %w", err)
	}
	return data, nil
}

// slab is a produced region: its samples, in memory that goes back to
// internal/pool when the single-flight that produced it has served its
// last waiter (cluster.Flight calls Release; see docs/PERFORMANCE.md, "Who
// owns a slab"). Both backends produce one — a shard decoded samples, a
// gateway the stitched raw body — so ownership is one mechanism, not one
// per role.
type slab[T byte | float32 | float64] struct{ data []T }

func (s *slab[T]) Release() { pool.PutSlab(s.data) }

// errStaleSnapshot marks a read that the store served from a later
// generation than the request resolved — a -poll refresh landed between
// the two. Its samples would go out under the resolved generation's ETag,
// so they are dropped and the request resolves again.
var errStaleSnapshot = errors.New("store advanced past the resolved generation")

// readBoxes reads the boxes' level grids in sample type T into one recycled
// buffer, through the store's multi-box read: a single generation for the
// whole list, and no allocation for a full-resolution box whose bricks are
// all cached.
func readBoxes[T float32 | float64](ctx context.Context, f snapshot, boxes []store.Box, level int) (any, error) {
	// ReadBoxesIntoT checks the boxes against the generation it reads before
	// it writes, and on success has written every sample of the buffer.
	data := pool.Slab[T](boxesPoints(boxes, level))
	crc, gen, err := store.ReadBoxesIntoT(ctx, f.src.(*field).store, data, boxes, level)
	if err == nil && (crc != f.crc || gen != f.gen) {
		err = errStaleSnapshot
	}
	if err != nil {
		pool.PutSlab(data)
		return nil, err
	}
	return &slab[T]{data}, nil
}

// query decodes bricks too (the ones the statistics index cannot
// resolve), so it takes the same -max-inflight slot a region decode would.
func (l *local) query(ctx context.Context, f snapshot, req store.QueryRequest) (*store.QueryResult, error) {
	release, err := l.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	res, err := f.src.(*field).store.Query(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	return res, nil
}

func (l *local) failure(err error) (int, string, bool) {
	if errors.Is(err, errShed) {
		return http.StatusServiceUnavailable, "1", false
	}
	if errors.Is(err, errStaleSnapshot) {
		return http.StatusServiceUnavailable, "1", true
	}
	return http.StatusInternalServerError, "", false
}

// refresh polls every mount for newly committed generations (every store
// written since PR 22 is a journal that may grow; legacy index files never
// advance). Region reads keep flowing during a poll: Refresh swaps
// manifests atomically, and the shared cache keys bricks by payload
// offset, so unchanged bricks stay hot across generations. A mount that
// fails keeps serving its previous generation — ErrRemoteChanged, though,
// will repeat until remount.
func (l *local) refresh(ctx context.Context) []error {
	var errs []error
	for _, name := range fieldNames(l.fields) {
		st := l.fields[name].store
		advanced, err := st.Refresh(ctx)
		l.refreshMu.Lock()
		if err != nil {
			l.refreshBad[name] = err.Error()
		} else {
			delete(l.refreshBad, name)
		}
		l.refreshMu.Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		} else if advanced {
			log.Printf("refresh %s: generation %d, dims %v", name, st.Generation(), st.Dims())
		}
	}
	return errs
}

// ready: every mount's last generation refresh succeeded (a store that
// cannot follow its origin is still serving, but should be rotated out of
// new traffic).
func (l *local) ready(context.Context) (bool, map[string]any) {
	l.refreshMu.Lock()
	bad := maps.Clone(l.refreshBad)
	l.refreshMu.Unlock()
	if len(bad) > 0 {
		return false, map[string]any{"status": "refresh failing", "mounts": bad}
	}
	return true, map[string]any{"status": "ok", "fields": len(l.fields)}
}

func (l *local) nouns() (work, refreshes string) {
	return "decode", "generation-refresh polls across all mounts"
}

// storeCounters are the per-field store.Stats counters a shard exports.
var storeCounters = []struct {
	name, help string
	value      func(store.Stats) int64
}{
	{"qozd_store_bricks_decoded_total", "brick decompressions (cache misses)", func(st store.Stats) int64 { return st.BricksDecoded }},
	{"qozd_store_bricks_pruned_total", "query bricks resolved from the statistics index without decoding", func(st store.Stats) int64 { return st.BricksPruned }},
	{"qozd_store_bricks_read_total", "bricks served to region reads", func(st store.Stats) int64 { return st.BricksRead }},
	{"qozd_store_cache_hits_total", "bricks served from the decoded-brick cache", func(st store.Stats) int64 { return st.CacheHits }},
	{"qozd_store_remote_ranges_total", "HTTP range requests issued to remote stores", func(st store.Stats) int64 { return st.RemoteRanges }},
	{"qozd_store_remote_bytes_total", "payload bytes fetched from remote stores", func(st store.Stats) int64 { return st.RemoteBytes }},
}

func (l *local) families() []family {
	names := fieldNames(l.fields)
	// One Stats snapshot per field, so the per-field lines of a scrape
	// reconcile with each other instead of racing active reads.
	snaps := make(map[string]store.Stats, len(names))
	for _, name := range names {
		snaps[name] = l.fields[name].store.Stats()
	}
	out := []family{
		scalar("qozd_requests_rejected_total", "region requests shed at -max-inflight capacity", "counter", l.rejected.Load()),
		scalar("qozd_cache_bytes", "decoded bytes held by the shared brick cache", "gauge", l.cache.Bytes()),
		labelled("qozd_store_generation", "committed generation served per field (0 = legacy index store)", "gauge", "field", names,
			func(name string) any { return l.fields[name].store.Generation() }),
	}
	for _, m := range storeCounters {
		out = append(out, labelled(m.name, m.help, "counter", "field", names,
			func(name string) any { return m.value(snaps[name]) }))
	}
	// Store stage timings (payload fetch, brick decode, stat prune) by {stage}.
	return append(out, family{hist: l.stageHist})
}
