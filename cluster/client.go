package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"qoz/internal/grid"
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
	// place is the placement over Shards, built once by Catalog; a Field
	// assembled by hand has none and plans build one per call.
	place *Placement
}

// placement returns the rendezvous placement over f.Shards.
func (f *Field) placement() (*Placement, error) {
	if f.place != nil {
		return f.place, nil
	}
	return NewPlacement(f.Shards)
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

// ShardTraffic is the per-shard slice of a fan-out's accounting, counted
// in HTTP exchanges: a region round trip (however many boxes it carries)
// or a sub-query.
type ShardTraffic struct {
	Reads   int64   // exchanges answered successfully
	Errors  int64   // exchanges that failed
	Seconds float64 // wall time spent in successful exchanges
}

// FanoutStats accounts one fan-out in HTTP exchanges. A region read sends
// each owning shard one round trip for all of its sub-regions (more only
// past roundTripBytes / roundTripBoxes); a query sends one sub-query per
// sub-region.
type FanoutStats struct {
	SubReads int // exchanges of the first round: every sub-region on its owner
	Retries  int // exchanges of later rounds: failover to next-ranked shards
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
	// Workers bounds concurrent shard round trips per request; <= 0
	// selects one per core (GOMAXPROCS).
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
// only a fleet with no reachable shard at all is an error. A field whose
// reported dims and brick shape are not a brick grid (store.Grid: equal
// ranks within 1..8, positive brick extents) is left out of that shard's
// listing here, once, rather than failing every request planned over it.
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
			if _, err := store.Grid(fi.Dims, fi.Brick); err != nil {
				errs = append(errs, fmt.Errorf("%s: field %q: %w", l.shard, fi.Name, err))
				continue
			}
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
	for _, f := range catalog {
		// On a shard list no placement accepts, plans report the error.
		f.place, _ = NewPlacement(f.Shards)
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
// into one sub-region, so a row of co-owned bricks is one box on the wire
// (and one sub-query), not one per brick. The plan is a partition: sub-regions
// are disjoint and cover [lo, hi) exactly, which is what makes the
// stitch a pure scatter with no overlap to reconcile.
func planSubRegions(f *Field, lo, hi []int) ([]subRegion, error) {
	place, err := f.placement()
	if err != nil {
		return nil, err
	}
	bk, err := grid.NewBricks(f.Dims, f.Brick)
	if err != nil {
		return nil, fmt.Errorf("cluster: field %s: %w", f.Name, err)
	}
	if err := grid.CheckBox("cluster: region", f.Dims, lo, hi); err != nil {
		return nil, err
	}
	var subs []subRegion
	last := bk.Rank - 1
	it := bk.Pieces(lo, hi)
	for it.Next() {
		clo, chi := it.Lo[:bk.Rank], it.Hi[:bk.Rank]
		owner := place.Owner(f.Name, it.Index)
		n := len(subs)
		if n > 0 && subs[n-1].rank[0] == owner && mergeable(subs[n-1], clo, chi, last) {
			subs[n-1].hi[last] = chi[last]
			continue
		}
		subs = append(subs, subRegion{lo: slices.Clone(clo), hi: slices.Clone(chi), rank: place.Rank(f.Name, it.Index)})
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
// would serve. Each owning shard gets all of its sub-regions in one
// multi-box /region round trip (see roundTripBytes); round trips run
// concurrently, observe ctx, fail over along each brick's preference
// order, and every response is verified against the catalog's (manifest
// CRC, generation) pair before a byte of it is stitched — a response can
// never mix store generations. A correlation id attached with
// WithRequestID is propagated to every shard as X-Qoz-Request-Id.
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
// sub-boxes' coarse points, and sub-boxes holding no coarse point are
// left out of the round trip. level 1 is the full-resolution read.
func (c *Client) ReadRegionLevelRaw(ctx context.Context, f *Field, lo, hi []int, level int) ([]byte, FanoutStats, error) {
	if level < 1 || level > store.MaxReadLevel {
		return nil, FanoutStats{ByShard: map[string]*ShardTraffic{}},
			fmt.Errorf("cluster: level %d outside 1..%d", level, store.MaxReadLevel)
	}
	return c.readRegionRaw(ctx, f, lo, hi, level)
}

// A round trip carries at most roundTripBytes of body and roundTripBoxes
// boxes; a shard's share of a read above either goes in several round
// trips, and a single larger box travels alone. Constants, not settings,
// and measured: the byte bound is the slab pools' recycling bound, so both
// the body here and the sample buffer the shard fills for it come out of a
// pool (uncapped, reading an 8 MiB field whole made each shard produce one
// 4 MiB unpooled buffer and gateway_hot's peak RSS rose 12.9 %); the box
// bound keeps the URL short when a thin region crosses many bricks.
const (
	roundTripBytes = pool.MaxSlabBytes
	roundTripBoxes = 64
)

func (c *Client) readRegionRaw(ctx context.Context, f *Field, lo, hi []int, level int) ([]byte, FanoutStats, error) {
	// When the caller's context carries a trace (obs.Recorder.StartTrace at
	// the serving layer), the whole fan-out records under a "fanout" span
	// with one "subread" child per shard round trip and a "shard.get"
	// grandchild for its attempt (the boxes of a failed round trip show up
	// again under the next round's subreads). Without a trace every span
	// call is a nil-receiver no-op.
	ctx, fanSpan := obs.StartSpan(ctx, "fanout")
	defer fanSpan.End()
	fanSpan.Annotate("field", f.Name)
	if level > 1 {
		fanSpan.Annotate("level", strconv.Itoa(level))
	}
	stats := FanoutStats{ByShard: make(map[string]*ShardTraffic)}
	step := 1 << (level - 1)
	planned, err := planSubRegions(f, lo, hi) // validates the box
	if err != nil {
		return nil, stats, err
	}
	nd := len(lo)
	og, ok := grid.LevelOf(lo, hi, step)
	if !ok {
		return nil, stats, fmt.Errorf("cluster: region [%v,%v) has no points on the level-%d grid", lo, hi, level)
	}
	elem := f.ElemSize()
	size := og.N * elem
	// Keep only sub-regions whose box holds at least one coarse point —
	// the rest would be answered with "no points" by their shards, and the
	// stitch owes them nothing. At level 1 every sub-region survives.
	subs := make([]subRegion, 0, len(planned))
	grids := make([]grid.LevelGrid, 0, len(planned)) // each sub-region's level grid
	want := make([]int, 0, len(planned))             // and its body bytes
	covered := 0
	for _, sub := range planned {
		g, ok := grid.LevelOf(sub.lo, sub.hi, step)
		if !ok {
			continue
		}
		subs = append(subs, sub)
		grids = append(grids, g)
		want = append(want, g.N*elem)
		covered += g.N * elem
	}
	// The output slab arrives holding some earlier response, so "every byte
	// is written" is no longer a nicety: disjoint sub-regions (the plan's
	// construction) whose sizes add up to the slab's leave no byte of it
	// unwritten.
	if covered != size {
		return nil, stats, fmt.Errorf("cluster: fan-out plan covers %d of the region's %d bytes", covered, size)
	}
	gate := generationPrefix(f)
	out := pool.Slab[byte](size)
	// Rounds: in round a every pending sub-region goes to its a-th ranked
	// shard, all those bound for one shard in one round trip. The
	// sub-regions of a failed round trip are pending again and regroup by
	// their own next choice — with more than two shards one dead shard's
	// boxes fan out to different successors.
	pending := make([]int, len(subs))
	for k := range pending {
		pending[k] = k
	}
	attempts := min(c.attempts(), len(f.Shards))
	var lastErr error
	var mu sync.Mutex // guards stats during a round
	for a := 0; len(pending) > 0; a++ {
		if a == attempts {
			err = fmt.Errorf("%w: %w", ErrNoShards, lastErr)
			break
		}
		trips := groupTrips(subs, want, pending, a)
		if a == 0 {
			stats.SubReads = len(trips)
			fanSpan.Annotate("subreads", strconv.Itoa(len(trips)))
		} else {
			stats.Retries += len(trips)
		}
		failed := make([]error, len(trips))
		err = pool.RunErr(ctx, len(trips), c.Workers, func(t int) error {
			trip := trips[t]
			shard := f.Shards[subs[trip[0]].rank[a]]
			total := 0
			for _, k := range trip {
				total += want[k]
			}
			sctx, span := obs.StartSpan(ctx, "subread")
			defer span.End()
			if span != nil {
				span.Annotate("shard", shard)
				span.Annotate("boxes", strconv.Itoa(len(trip)))
				span.Annotate("bytes", strconv.Itoa(total))
				if len(trip) == 1 {
					span.Annotate("lo", corner(subs[trip[0]].lo))
					span.Annotate("hi", corner(subs[trip[0]].hi))
				}
				if a > 0 {
					span.Annotate("round", strconv.Itoa(a+1))
				}
			}
			body, secs, err := attempt(sctx, shard, &mu, &stats, func(ctx context.Context) ([]byte, error) {
				return c.fetchBoxes(ctx, shard, f, subs, trip, level, gate, total)
			})
			if err != nil {
				span.Annotate("error", err.Error())
				failed[t] = err
				if clientFault(err) {
					return fmt.Errorf("%w: %w", ErrNoShards, err)
				}
				return nil
			}
			mu.Lock()
			tr := stats.shard(shard)
			tr.Reads++
			tr.Seconds += secs
			mu.Unlock()
			// Scatter each box of the body into the output on the coarse grid.
			// Sub-regions partition the box, and a global coarse point lies in
			// exactly one of them, so writers touch disjoint bytes — no
			// synchronization. At level 1 this is the plain full-resolution
			// scatter.
			off := 0
			for _, k := range trip {
				stitch(out, &og, body[off:off+want[k]], &grids[k], nd, elem)
				off += want[k]
			}
			pool.PutSlab(body)
			return nil
		})
		if err != nil {
			break
		}
		pending = nil
		for t, ferr := range failed {
			if ferr != nil {
				pending = append(pending, trips[t]...)
				lastErr = ferr
			}
		}
	}
	if err != nil {
		// RunErr has waited for every round trip, so nothing writes to out now.
		pool.PutSlab(out)
		return nil, stats, err
	}
	if stats.Retries > 0 {
		fanSpan.Annotate("retries", strconv.Itoa(stats.Retries))
	}
	return out, stats, nil
}

// groupTrips cuts round a of a read into round trips: the pending
// sub-regions (indices into subs, reordered in place) grouped by the shard
// each goes to in this round, a shard's group split wherever the next box
// would take it past roundTripBytes of body (want is each sub-region's) or
// roundTripBoxes boxes.
func groupTrips(subs []subRegion, want, pending []int, a int) [][]int {
	slices.SortStableFunc(pending, func(x, y int) int { return subs[x].rank[a] - subs[y].rank[a] })
	var trips [][]int
	start, bytes := 0, 0
	for i, k := range pending {
		if i > start && (subs[k].rank[a] != subs[pending[start]].rank[a] ||
			bytes+want[k] > roundTripBytes || i-start == roundTripBoxes) {
			trips = append(trips, pending[start:i:i])
			start, bytes = i, 0
		}
		bytes += want[k]
	}
	return append(trips, pending[start:])
}

// generationPrefix is what a shard's ETag begins with when it answers from
// the store content the catalog entry describes: the (manifest CRC,
// generation) pair. Rendered once per fan-out, compared once per attempt.
func generationPrefix(f *Field) string {
	return fmt.Sprintf(`"%08x-g%d-`, f.ManifestCRC, f.Generation)
}

// shard returns the named shard's slice of the accounting, adding it on
// first use.
func (s *FanoutStats) shard(name string) *ShardTraffic {
	t := s.ByShard[name]
	if t == nil {
		t = &ShardTraffic{}
		s.ByShard[name] = t
	}
	return t
}

// clientFault reports a shard's 4xx answer other than 429: a client-level
// mistake that would repeat identically on every shard, so it ends the
// fan-out — only shard faults, rate limits and stale generations are worth
// retrying elsewhere.
func clientFault(err error) bool {
	var se *ShardError
	return errors.As(err, &se) && se.Status >= 400 && se.Status < 500 && se.Status != http.StatusTooManyRequests
}

// attempt runs one exchange with one shard under a "shard.get" span: it
// returns fetch's answer and the exchange's wall time, and charges a
// failure to the shard in stats (which mu guards). It is the step under
// every fan-out, region round trips and sub-queries alike.
func attempt[V any](ctx context.Context, shard string, mu *sync.Mutex, stats *FanoutStats,
	fetch func(ctx context.Context) (V, error)) (v V, secs float64, err error) {
	actx, att := obs.StartSpan(ctx, "shard.get")
	att.Annotate("shard", shard)
	t0 := time.Now()
	v, err = fetch(actx)
	secs = time.Since(t0).Seconds()
	if err != nil {
		att.Annotate("error", err.Error())
		mu.Lock()
		stats.shard(shard).Errors++
		mu.Unlock()
	}
	att.End()
	return v, secs, err
}

// fetchBoxes issues one region round trip against one shard — the boxes
// subs[k] for k in trip, one /region request naming them in that order —
// and validates the answer: status, element type, exact body length (want
// bytes: the boxes' grids on the level, concatenated), and the catalog's
// (manifest CRC, generation) pair via the shard's strong ETag prefix
// (gate). The body it returns is a response slab the caller owns; on every
// failure the slab it took is already back in the pool.
func (c *Client) fetchBoxes(ctx context.Context, shard string, f *Field, subs []subRegion, trip []int, level int, gate string, want int) ([]byte, error) {
	var ubuf [192]byte
	u := append(ubuf[:0], shard...)
	u = append(u, "/v1/fields/"...)
	u = append(u, url.PathEscape(f.Name)...)
	u = append(u, "/region"...)
	for i, k := range trip {
		u = append(u, "?&"[min(i, 1)])
		u = append(u, "lo="...)
		u = appendCorner(u, subs[k].lo)
		u = append(u, "&hi="...)
		u = appendCorner(u, subs[k].hi)
	}
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
	// different copy) fails here and the round trip fails over, so a
	// stitched response is always one generation wholly.
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

// stitch copies src — the level grid g of one sub-region, row-major, elem
// bytes per point — to its place in dst, which holds the region's level
// grid og the same way, in whole-row byte runs.
func stitch(dst []byte, og *grid.LevelGrid, src []byte, g *grid.LevelGrid, nd, elem int) {
	var origin grid.Coord
	dstLo := grid.Sub(g.Lo[:nd], og.Lo[:nd])
	w := grid.Walk(g.Dims[:nd], g.Dims[:nd], origin[:nd], 1, og.Dims[:nd], dstLo[:nd])
	for w.Next() {
		copy(dst[w.B*elem:(w.B+w.Run)*elem], src[w.A*elem:])
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
