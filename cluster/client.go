package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"qoz/internal/pool"
	"qoz/obs"
	"qoz/store"
)

// Field is one entry of a cluster catalog: everything a gateway needs to
// plan, verify, and stitch region reads for a field, learned from the
// shards' own manifest endpoints. Dims and Brick define the brick grid
// (the placement domain); ManifestCRC and Generation pin the exact store
// content every sub-read must come from.
type Field struct {
	Name        string
	Dims        []int
	Brick       []int
	DType       string // "float32" or "float64"
	Codec       string
	ErrorBound  float64
	ManifestCRC uint32
	Generation  uint64
	// Shards are the base URLs of the shards that report this field. The
	// placement spans exactly these, so fields mounted on a subset of the
	// fleet still route correctly.
	Shards []string
}

// ElemSize returns the field's element width in bytes.
func (f *Field) ElemSize() int {
	if f.DType == "float64" {
		return 8
	}
	return 4
}

// Points returns the field's total point count.
func (f *Field) Points() int {
	n := 1
	for _, d := range f.Dims {
		n *= d
	}
	return n
}

// ErrStale reports that a shard answered a sub-read from a different
// committed generation than the catalog expects. Stitching it in would
// mix two versions of the store into one response, so the sub-read is
// refused; the caller should refresh its catalog and retry.
var ErrStale = errors.New("cluster: shard serves a different store generation than the catalog")

// ErrNoShards reports a fan-out whose every candidate shard failed.
var ErrNoShards = errors.New("cluster: no shard could serve the sub-region")

// ShardError wraps a failure from one shard with its identity, so
// multi-node failures stay attributable in logs and error bodies.
type ShardError struct {
	Shard  string
	Status int // HTTP status when the shard answered; 0 on transport error
	Err    error
}

func (e *ShardError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("shard %s: status %d: %v", e.Shard, e.Status, e.Err)
	}
	return fmt.Sprintf("shard %s: %v", e.Shard, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// ShardTraffic is the per-shard slice of a fan-out's accounting.
type ShardTraffic struct {
	Reads   int64   // sub-reads answered successfully
	Errors  int64   // sub-read attempts that failed
	Seconds float64 // wall time spent in successful sub-reads
}

// FanoutStats accounts one ReadRegionRaw call.
type FanoutStats struct {
	SubReads int // sub-regions the request was split into
	Retries  int // failover attempts beyond each sub-region's first
	ByShard  map[string]*ShardTraffic
}

// Client is the gateway-side fan-out engine over a fleet of qozd shards.
// The zero value works; configure the fields before first use and treat
// the Client as immutable afterward (it is then safe for concurrent use).
type Client struct {
	// HTTP issues the shard requests; nil selects http.DefaultClient.
	// Give it a timeout or rely on per-request contexts.
	HTTP *http.Client
	// Token, when non-empty, is sent as a bearer token on every shard
	// request — the gateway's credential for a token-protected fleet.
	Token string
	// Attempts bounds how many distinct shards one sub-region is tried on
	// (1 = no failover); <= 0 selects 2.
	Attempts int
	// Workers bounds concurrent sub-reads per region request; <= 0 lets
	// every sub-read fly at once.
	Workers int
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) attempts() int {
	if c.Attempts <= 0 {
		return 2
	}
	return c.Attempts
}

// Catalog asks every shard for its field listing and merges the answers
// into one catalog. A field reported by several shards adopts the
// highest-generation report (the fleet mid-refresh converges there), and
// its placement spans every shard that reports it — shards still serving
// an older generation fail the per-sub-read generation check and are
// failed over, never stitched. Shards that cannot be reached are skipped;
// only a fleet with no reachable shard at all is an error.
func (c *Client) Catalog(ctx context.Context, shards []string) (map[string]*Field, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	type shardList struct {
		shard  string
		fields []shardFieldJSON
		err    error
	}
	lists := make([]shardList, len(shards))
	pool.Run(len(shards), 0, func(i int) {
		lists[i].shard = shards[i]
		lists[i].fields, lists[i].err = c.fetchFields(ctx, shards[i])
	})
	catalog := make(map[string]*Field)
	var errs []error
	reachable := 0
	for _, l := range lists {
		if l.err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", l.shard, l.err))
			continue
		}
		reachable++
		for _, fi := range l.fields {
			f, ok := catalog[fi.Name]
			if !ok || fi.Generation > f.Generation {
				nf := &Field{
					Name:        fi.Name,
					Dims:        fi.Dims,
					Brick:       fi.Brick,
					DType:       fi.DType,
					Codec:       fi.Codec,
					ErrorBound:  fi.ErrorBound,
					ManifestCRC: fi.ManifestCRC,
					Generation:  fi.Generation,
				}
				if ok {
					nf.Shards = f.Shards
				}
				catalog[fi.Name] = nf
				f = nf
			}
			f.Shards = append(f.Shards, l.shard)
		}
	}
	if reachable == 0 {
		return nil, fmt.Errorf("cluster: no shard reachable: %w", errors.Join(errs...))
	}
	return catalog, nil
}

// shardFieldJSON is the subset of qozd's field manifest JSON the catalog
// needs.
type shardFieldJSON struct {
	Name        string  `json:"name"`
	Dims        []int   `json:"dims"`
	Brick       []int   `json:"brick"`
	DType       string  `json:"dtype"`
	Codec       string  `json:"codec"`
	ErrorBound  float64 `json:"errorBound"`
	ManifestCRC uint32  `json:"manifestCRC"`
	Generation  uint64  `json:"generation"`
}

// fetchFields GETs one shard's /v1/fields.
func (c *Client) fetchFields(ctx context.Context, shard string) ([]shardFieldJSON, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, shard+"/v1/fields", nil)
	if err != nil {
		return nil, err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.CopyN(io.Discard, resp.Body, 4<<10)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("listing fields: status %s", resp.Status)
	}
	var out struct {
		Fields []shardFieldJSON `json:"fields"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("listing fields: %w", err)
	}
	return out.Fields, nil
}

// subRegion is one box of the fan-out plan: an axis-aligned run of
// same-owner bricks intersected with the requested region, plus the
// shard preference order its reads follow.
type subRegion struct {
	lo, hi []int
	rank   []int // indices into Field.Shards, owner first
}

// planSubRegions splits the box [lo, hi) along brick-ownership
// boundaries. Each intersecting brick is routed to its placement owner;
// consecutive bricks along the innermost axis with the same owner merge
// into one sub-region, so a request over a row of co-owned bricks costs
// one round trip, not one per brick. The plan is a partition: sub-regions
// are disjoint and cover [lo, hi) exactly, which is what makes the
// stitch a pure scatter with no overlap to reconcile.
func planSubRegions(f *Field, lo, hi []int) ([]subRegion, error) {
	place, err := NewPlacement(f.Shards)
	if err != nil {
		return nil, err
	}
	bricks, err := store.IntersectingBricksIn(f.Dims, f.Brick, lo, hi)
	if err != nil {
		return nil, err
	}
	var subs []subRegion
	for _, bi := range bricks {
		blo, bhi, err := store.BrickBoxIn(f.Dims, f.Brick, bi)
		if err != nil {
			return nil, err
		}
		clo := make([]int, len(lo))
		chi := make([]int, len(lo))
		for i := range lo {
			clo[i] = max(lo[i], blo[i])
			chi[i] = min(hi[i], bhi[i])
		}
		owner := place.Owner(f.Name, bi)
		n := len(subs)
		last := len(lo) - 1
		if n > 0 && subs[n-1].rank[0] == owner && mergeable(subs[n-1], clo, chi, last) {
			subs[n-1].hi[last] = chi[last]
			continue
		}
		subs = append(subs, subRegion{lo: clo, hi: chi, rank: place.Rank(f.Name, bi)})
	}
	return subs, nil
}

// mergeable reports whether the box [clo, chi) extends s contiguously
// along axis `last` with every other axis identical.
func mergeable(s subRegion, clo, chi []int, last int) bool {
	if s.hi[last] != clo[last] {
		return false
	}
	for i := 0; i < last; i++ {
		if s.lo[i] != clo[i] || s.hi[i] != chi[i] {
			return false
		}
	}
	return true
}

// ReadRegionRaw reads the box [lo, hi) of f by fanning sub-regions out to
// their owning shards and stitching the answers, returning raw
// little-endian samples (f.ElemSize() bytes per point, row-major, shape
// hi-lo) — byte-identical to what a single qozd holding the whole store
// would serve. Sub-reads run concurrently, observe ctx, fail over along
// each brick's preference order, and every sub-response is verified
// against the catalog's (manifest CRC, generation) pair before a byte of
// it is stitched — a response can never mix store generations. A
// correlation id attached with WithRequestID is propagated to every shard
// as X-Qoz-Request-Id.
//
// The returned body is a response slab (pool.Slab): a caller that is
// through with it may hand it to pool.PutSlab, after which it must not
// touch it again — qozd's gateway does, once the last client of a
// single-flight has been written. A caller that does not keeps an
// ordinary slice that the collector frees.
func (c *Client) ReadRegionRaw(ctx context.Context, f *Field, lo, hi []int) ([]byte, FanoutStats, error) {
	return c.readRegionRaw(ctx, f, lo, hi, 1)
}

// ReadRegionLevelRaw reads the level-L coarse grid of the box [lo, hi):
// the points whose global coordinates are all multiples of stride
// 2^(level-1), row-major, raw little-endian — byte-identical to a single
// qozd answering ?level=L for the same box. Sub-regions are planned on
// the full-resolution brick grid exactly like ReadRegionRaw, so ownership
// routing and failover behave identically; each shard answers only its
// sub-box's coarse points, and sub-boxes holding no coarse point are
// skipped without a round trip. level 1 is the full-resolution read.
func (c *Client) ReadRegionLevelRaw(ctx context.Context, f *Field, lo, hi []int, level int) ([]byte, FanoutStats, error) {
	if level < 1 || level > 30 {
		return nil, FanoutStats{ByShard: map[string]*ShardTraffic{}},
			fmt.Errorf("cluster: level %d outside 1..30", level)
	}
	return c.readRegionRaw(ctx, f, lo, hi, level)
}

func (c *Client) readRegionRaw(ctx context.Context, f *Field, lo, hi []int, level int) ([]byte, FanoutStats, error) {
	// When the caller's context carries a trace (obs.Recorder.StartTrace at
	// the serving layer), the whole fan-out records under a "fanout" span
	// with one "subread" child per sub-region and one "shard.get"
	// grandchild per attempt (so failovers stay visible). Without a trace
	// every span call is a nil-receiver no-op.
	ctx, fanSpan := obs.StartSpan(ctx, "fanout")
	defer fanSpan.End()
	fanSpan.Annotate("field", f.Name)
	if level > 1 {
		fanSpan.Annotate("level", strconv.Itoa(level))
	}
	stats := FanoutStats{ByShard: make(map[string]*ShardTraffic)}
	stride := 1 << (level - 1)
	outLo, outDims, ok := coarseBox(lo, hi, stride)
	if !ok {
		return nil, stats, fmt.Errorf("cluster: region [%v,%v) has no points on the level-%d grid", lo, hi, level)
	}
	planned, err := planSubRegions(f, lo, hi)
	if err != nil {
		return nil, stats, err
	}
	elem := f.ElemSize()
	size := boxBytes(outDims, elem)
	// Keep only sub-regions whose box holds at least one coarse point —
	// the rest would be answered with "no points" by their shards, and the
	// stitch owes them nothing. At level 1 every sub-region survives.
	subs := make([]subRegion, 0, len(planned))
	clos := make([][]int, 0, len(planned))
	cdims := make([][]int, 0, len(planned))
	covered := 0
	for _, sub := range planned {
		cl, cd, ok := coarseBox(sub.lo, sub.hi, stride)
		if !ok {
			continue
		}
		subs = append(subs, sub)
		clos = append(clos, cl)
		cdims = append(cdims, cd)
		covered += boxBytes(cd, elem)
	}
	// The output slab arrives holding some earlier response, so "every byte
	// is written" is no longer a nicety: disjoint sub-regions (the plan's
	// construction) whose sizes add up to the slab's leave no byte of it
	// unwritten.
	if covered != size {
		return nil, stats, fmt.Errorf("cluster: fan-out plan covers %d of the region's %d bytes", covered, size)
	}
	stats.SubReads = len(subs)
	fanSpan.Annotate("subreads", strconv.Itoa(len(subs)))
	gate := generationPrefix(f)
	out := pool.Slab[byte](size)
	var mu sync.Mutex // guards stats during the fan-out
	err = pool.RunErr(ctx, len(subs), c.Workers, func(k int) error {
		sub := subs[k]
		sctx, span := obs.StartSpan(ctx, "subread")
		span.Annotate("lo", corner(sub.lo))
		span.Annotate("hi", corner(sub.hi))
		want := boxBytes(cdims[k], elem)
		v, shard, retries, secs, err := c.trySub(sctx, f, sub, &mu, &stats,
			func(ctx context.Context, shard string) (any, error) {
				return c.fetchSub(ctx, shard, f, sub, level, gate, want)
			})
		if retries > 0 {
			span.Annotate("retries", strconv.Itoa(retries))
		}
		if err != nil {
			span.Annotate("error", err.Error())
		} else {
			span.Annotate("shard", shard)
		}
		span.End()
		mu.Lock()
		stats.Retries += retries
		if err == nil {
			t := stats.ByShard[shard]
			if t == nil {
				t = &ShardTraffic{}
				stats.ByShard[shard] = t
			}
			t.Reads++
			t.Seconds += secs
		}
		mu.Unlock()
		if err != nil {
			return err
		}
		// Scatter the sub-slab into the output on the coarse grid.
		// Sub-regions partition the box, and a global coarse point lies in
		// exactly one of them, so writers touch disjoint bytes — no
		// synchronization. At level 1 this is the plain full-resolution
		// scatter.
		var fixed [maxFixedRank]int
		dstLo := rankInts(&fixed, len(lo))
		for i := range lo {
			dstLo[i] = clos[k][i] - outLo[i]
		}
		body := v.([]byte)
		stitchBytes(out, outDims, dstLo, body, cdims[k], elem)
		pool.PutSlab(body)
		return nil
	})
	if err != nil {
		// RunErr has waited for every sub-read, so nothing writes to out now.
		pool.PutSlab(out)
		return nil, stats, err
	}
	return out, stats, nil
}

// maxFixedRank is the rank up to which the fan-out's per-sub-read
// coordinate scratch lives in stack arrays, as store's cached read path
// does; higher ranks (which no writer produces) allocate.
const maxFixedRank = 8

// rankInts returns n zeroed ints: a prefix of *fixed when it is long
// enough, a fresh slice otherwise.
func rankInts(fixed *[maxFixedRank]int, n int) []int {
	if n <= maxFixedRank {
		return fixed[:n]
	}
	return make([]int, n)
}

// boxBytes is the size of a row-major box of elem-byte points.
func boxBytes(dims []int, elem int) int {
	for _, d := range dims {
		elem *= d
	}
	return elem
}

// generationPrefix is what a shard's ETag begins with when it answers from
// the store content the catalog entry describes: the (manifest CRC,
// generation) pair. Rendered once per fan-out, compared once per attempt.
func generationPrefix(f *Field) string {
	return fmt.Sprintf(`"%08x-g%d-`, f.ManifestCRC, f.Generation)
}

// trySub runs one sub-request against the sub-region's preference order,
// failing over on shard faults: the shared attempt loop under every
// fan-out (region sub-reads and query sub-queries alike). It returns
// fetch's answer, the shard that served it, the failover attempts spent,
// and the successful attempt's wall time.
func (c *Client) trySub(ctx context.Context, f *Field, sub subRegion,
	mu *sync.Mutex, stats *FanoutStats,
	fetch func(ctx context.Context, shard string) (any, error)) (v any, shard string, retries int, secs float64, err error) {
	attempts := min(c.attempts(), len(sub.rank))
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return nil, "", retries, 0, err
		}
		shard = f.Shards[sub.rank[a]]
		if a > 0 {
			retries++
		}
		actx, att := obs.StartSpan(ctx, "shard.get")
		att.Annotate("shard", shard)
		t0 := time.Now()
		v, err := fetch(actx, shard)
		if err == nil {
			att.End()
			return v, shard, retries, time.Since(t0).Seconds(), nil
		}
		att.Annotate("error", err.Error())
		att.End()
		mu.Lock()
		t := stats.ByShard[shard]
		if t == nil {
			t = &ShardTraffic{}
			stats.ByShard[shard] = t
		}
		t.Errors++
		mu.Unlock()
		lastErr = err
		// Client-level mistakes (4xx) will repeat identically on every
		// shard; only shard faults and stale generations are worth retrying
		// elsewhere.
		var se *ShardError
		if errors.As(err, &se) && se.Status >= 400 && se.Status < 500 && se.Status != http.StatusTooManyRequests {
			break
		}
	}
	return nil, "", retries, 0, fmt.Errorf("%w: %w", ErrNoShards, lastErr)
}

// fetchSub issues one region sub-read against one shard and validates the
// answer: status, element type, exact body length (want bytes: the
// sub-box on the level's coarse grid), and the catalog's (manifest CRC,
// generation) pair via the shard's strong ETag prefix (gate). The body it
// returns is a response slab the caller owns; on every failure the slab it
// took is already back in the pool.
func (c *Client) fetchSub(ctx context.Context, shard string, f *Field, sub subRegion, level int, gate string, want int) ([]byte, error) {
	var ubuf [192]byte
	u := append(ubuf[:0], shard...)
	u = append(u, "/v1/fields/"...)
	u = append(u, url.PathEscape(f.Name)...)
	u = append(u, "/region?lo="...)
	u = appendCorner(u, sub.lo)
	u = append(u, "&hi="...)
	u = appendCorner(u, sub.hi)
	if level > 1 {
		u = append(u, "&level="...)
		u = strconv.AppendInt(u, int64(level), 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, string(u), nil)
	if err != nil {
		return nil, &ShardError{Shard: shard, Err: err}
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if id := requestIDFrom(ctx); id != "" {
		req.Header.Set("X-Qoz-Request-Id", id)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, &ShardError{Shard: shard, Err: err}
	}
	defer func() {
		io.CopyN(io.Discard, resp.Body, 4<<10)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, &ShardError{Shard: shard, Status: resp.StatusCode,
			Err: fmt.Errorf("region sub-read failed: %s", strings.TrimSpace(string(msg)))}
	}
	// The generation gate: the shard's region ETag begins with its store's
	// (manifest CRC, generation) pair. A shard mid-refresh (or serving a
	// different copy) fails here and the sub-read fails over, so a stitched
	// response is always one generation wholly.
	if et := resp.Header.Get("ETag"); !strings.HasPrefix(et, gate) {
		return nil, &ShardError{Shard: shard, Err: fmt.Errorf("%w (ETag %s, want prefix %s)", ErrStale, et, gate)}
	}
	if dt := resp.Header.Get("X-Qoz-Dtype"); dt != "" && dt != f.DType {
		return nil, &ShardError{Shard: shard, Err: fmt.Errorf("sub-read dtype %q, want %q", dt, f.DType)}
	}
	// Buffer, then stitch: one ReadFull into a recycled body costs less than
	// per-row reads through net/http's body wrappers.
	body := pool.Slab[byte](want)
	if _, err := io.ReadFull(resp.Body, body); err != nil {
		pool.PutSlab(body)
		return nil, &ShardError{Shard: shard, Err: fmt.Errorf("short sub-read body: %w", err)}
	}
	var extra [1]byte
	if n, _ := resp.Body.Read(extra[:]); n != 0 {
		pool.PutSlab(body)
		return nil, &ShardError{Shard: shard, Err: fmt.Errorf("sub-read body longer than its region")}
	}
	return body, nil
}

// coarseBox maps a full-resolution box [lo, hi) to its stride-aligned
// coarse sub-grid: clo is the coarse origin (global coordinates divided
// by stride, rounded up), cdims counts the stride-multiples inside the
// box per dimension. ok is false when some dimension holds none. Stride 1
// is the identity: clo = lo, cdims = hi-lo.
func coarseBox(lo, hi []int, stride int) (clo, cdims []int, ok bool) {
	clo = make([]int, len(lo))
	cdims = make([]int, len(lo))
	for d := range lo {
		clo[d] = (lo[d] + stride - 1) / stride
		cdims[d] = (hi[d]-1)/stride + 1 - clo[d]
		if cdims[d] <= 0 {
			return nil, nil, false
		}
	}
	return clo, cdims, true
}

// corner formats region coordinates as qozd's "a,b,c" query syntax.
func corner(v []int) string {
	var buf [64]byte
	return string(appendCorner(buf[:0], v))
}

// appendCorner appends corner(v) to b.
func appendCorner(b []byte, v []int) []byte {
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return b
}

// stitchBytes copies a row-major sub-slab (shape srcDims, elem bytes per
// point) into the row-major output (shape dstDims) at origin dstLo. The
// innermost axis is contiguous in both layouts, so the copy proceeds in
// whole-row byte runs.
func stitchBytes(dst []byte, dstDims, dstLo []int, src []byte, srcDims []int, elem int) {
	n := len(dstDims)
	run := srcDims[n-1] * elem
	if run == 0 {
		return
	}
	// Byte strides of each axis in dst and src.
	var fixed [3][maxFixedRank]int
	ds, ss, idx := rankInts(&fixed[0], n), rankInts(&fixed[1], n), rankInts(&fixed[2], n)
	acc := elem
	for i := n - 1; i >= 0; i-- {
		ds[i] = acc
		acc *= dstDims[i]
	}
	acc = elem
	for i := n - 1; i >= 0; i-- {
		ss[i] = acc
		acc *= srcDims[i]
	}
	do := 0
	for i := 0; i < n; i++ {
		do += dstLo[i] * ds[i]
	}
	if n == 1 {
		copy(dst[do:do+run], src[:run])
		return
	}
	so := 0
	for {
		copy(dst[do:do+run], src[so:so+run])
		k := n - 2
		for ; k >= 0; k-- {
			idx[k]++
			so += ss[k]
			do += ds[k]
			if idx[k] < srcDims[k] {
				break
			}
			so -= srcDims[k] * ss[k]
			do -= srcDims[k] * ds[k]
			idx[k] = 0
		}
		if k < 0 {
			return
		}
	}
}

// requestIDKey carries a request id through a context, so the fan-out
// engine tags shard sub-requests without threading an extra parameter
// through every call.
type requestIDKey struct{}

// WithRequestID returns ctx carrying a request correlation id; the
// fan-out engine forwards it to shards as X-Qoz-Request-Id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// requestIDFrom extracts the id WithRequestID stored, or "".
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}
