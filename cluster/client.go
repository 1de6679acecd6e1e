package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
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
	Name        string  `json:"name"`
	Dims        []int   `json:"dims"`
	Brick       []int   `json:"brick"`
	DType       string  `json:"dtype"` // "float32" or "float64"
	Codec       string  `json:"codec"`
	ErrorBound  float64 `json:"errorBound"`
	ManifestCRC uint32  `json:"manifestCRC"`
	Generation  uint64  `json:"generation"`
	// Shards are the base URLs of the shards that report this field. The
	// placement spans exactly these, so fields mounted on a subset of the
	// fleet still route correctly. A shard's listing never sets them.
	Shards []string `json:"-"`
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
// report is unusable — dims and brick shape that are not a brick grid
// (store.Grid: equal ranks within 1..8, positive brick extents), a dtype
// other than float32 or float64, or an error bound that is not positive
// and finite — is left out of that shard's listing here, once, rather
// than failing or mis-sizing every request planned over it; CatalogReport
// says which were.
func (c *Client) Catalog(ctx context.Context, shards []string) (map[string]*Field, error) {
	catalog, _, err := c.CatalogReport(ctx, shards)
	return catalog, err
}

// CatalogReport is Catalog that also returns the field reports it left
// out: one error per report, naming the shard, the field and why, in shard
// order. A dropped report is not a failure: the catalog serves the rest.
func (c *Client) CatalogReport(ctx context.Context, shards []string) (catalog map[string]*Field, dropped []error, err error) {
	if len(shards) == 0 {
		return nil, nil, fmt.Errorf("cluster: no shards configured")
	}
	type shardList struct {
		shard  string
		fields []Field
		err    error
	}
	lists := make([]shardList, len(shards))
	pool.Run(len(shards), 0, func(i int) {
		lists[i].shard = shards[i]
		lists[i].fields, lists[i].err = c.fetchFields(ctx, shards[i])
	})
	catalog = make(map[string]*Field)
	var errs []error
	reachable := 0
	for _, l := range lists {
		if l.err != nil {
			errs = append(errs, l.err) // a *ShardError: it names the shard
			continue
		}
		reachable++
		for _, fi := range l.fields {
			if err := fi.check(); err != nil {
				dropped = append(dropped, fmt.Errorf("%s: field %q: %w", l.shard, fi.Name, err))
				continue
			}
			f, ok := catalog[fi.Name]
			if !ok || fi.Generation > f.Generation {
				if ok {
					fi.Shards = f.Shards
				}
				f = &fi
				catalog[fi.Name] = f
			}
			f.Shards = append(f.Shards, l.shard)
		}
	}
	if reachable == 0 {
		return nil, nil, fmt.Errorf("cluster: no shard reachable: %w", errors.Join(errs...))
	}
	for _, f := range catalog {
		// On a shard list no placement accepts, plans report the error.
		f.place, _ = NewPlacement(f.Shards)
	}
	return catalog, dropped, nil
}

// check reports why a shard's report of f cannot be planned over, or nil.
func (f *Field) check() error {
	if f.DType != "float32" && f.DType != "float64" {
		return fmt.Errorf("unsupported dtype %q", f.DType)
	}
	if !(f.ErrorBound > 0 && f.ErrorBound <= math.MaxFloat64) {
		return fmt.Errorf("error bound %v is not positive and finite", f.ErrorBound)
	}
	_, err := store.Grid(f.Dims, f.Brick)
	return err
}

// fetchFields GETs one shard's /v1/fields, the subset of qozd's field
// manifest JSON that Field names.
func (c *Client) fetchFields(ctx context.Context, shard string) ([]Field, error) {
	var out struct {
		Fields []Field `json:"fields"`
	}
	err := c.get(ctx, shard, shard+"/v1/fields", "", func(resp *http.Response) error {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return fmt.Errorf("listing fields: %w", err)
		}
		return nil
	})
	return out.Fields, err
}

// get is the one exchange the gateway has with a shard, whatever it asks
// for: a GET of u carrying the fleet's bearer token and the request's
// correlation id. A transport failure or a non-200 answer is a *ShardError
// naming the shard (with the shard's own message); so is, when gate is
// non-empty, an answer whose ETag does not begin with it — the generation
// gate — and an error from read, which takes the body of a good answer.
// Whatever read leaves unread is drained, within a bound, so the
// connection goes back to the pool.
func (c *Client) get(ctx context.Context, shard, u, gate string, read func(*http.Response) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return &ShardError{Shard: shard, Err: err}
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if id := requestIDFrom(ctx); id != "" {
		req.Header.Set("X-Qoz-Request-Id", id)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return &ShardError{Shard: shard, Err: err}
	}
	defer func() {
		io.CopyN(io.Discard, resp.Body, 4<<10)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &ShardError{Shard: shard, Status: resp.StatusCode,
			Err: fmt.Errorf("GET %s: %s", req.URL.Path, strings.TrimSpace(string(msg)))}
	}
	// A shard mid-refresh (or serving a different copy) fails the gate and
	// the exchange fails over, so a stitched or merged answer is always one
	// generation wholly.
	if et := resp.Header.Get("ETag"); gate != "" && !strings.HasPrefix(et, gate) {
		return &ShardError{Shard: shard, Err: fmt.Errorf("%w (ETag %s, want prefix %s)", ErrStale, et, gate)}
	}
	if err := read(resp); err != nil {
		return &ShardError{Shard: shard, Err: err}
	}
	return nil
}

// subRegion is one box of the fan-out plan: an axis-aligned run of
// same-owner bricks intersected with the requested region, plus the
// shard preference order its reads follow. A region read's sub-region
// also knows its body bytes and which of the read's boxes it belongs to;
// a sub-query's are zero.
type subRegion struct {
	lo, hi     []int
	rank       []int // indices into Field.Shards, owner first
	bytes, box int
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

// ReadRegionRaw reads the box [lo, hi) of f at full resolution: the
// one-box, level-1 case of ReadBoxesRaw.
func (c *Client) ReadRegionRaw(ctx context.Context, f *Field, lo, hi []int) ([]byte, FanoutStats, error) {
	return c.ReadBoxesRaw(ctx, f, []store.Box{{Lo: lo, Hi: hi}}, 1)
}

// ReadBoxesRaw reads boxes of f on the level's grid — the points whose
// global coordinates are all multiples of 2^(level-1); level 1 is full
// resolution — by fanning sub-regions out to their owning shards and
// stitching the answers. The body is raw little-endian samples
// (f.ElemSize() bytes per point), each box's grid row-major and one box
// after the other in list order: byte-identical to what a single qozd
// holding the whole store answers for the same multi-box /region request.
// Every box is planned on the full-resolution brick grid into one list of
// sub-regions, so a shard owning parts of several boxes gets all of them in
// one multi-box /region round trip (see roundTripBytes), whatever the box
// count; sub-regions holding no point on the level are left out. Round
// trips run concurrently, observe ctx, fail over along each brick's
// preference order, and every response is verified against the catalog's
// (manifest CRC, generation) pair before a byte of it is stitched — a
// response can never mix store generations. A correlation id attached with
// WithRequestID is propagated to every shard as X-Qoz-Request-Id.
//
// The returned body is a response slab (pool.Slab): a caller that is
// through with it may hand it to pool.PutSlab, after which it must not
// touch it again — qozd's gateway does, once the last client of a
// single-flight has been written. A caller that does not keeps an
// ordinary slice that the collector frees.
func (c *Client) ReadBoxesRaw(ctx context.Context, f *Field, boxes []store.Box, level int) ([]byte, FanoutStats, error) {
	// When the caller's context carries a trace (obs.Recorder.StartTrace at
	// the serving layer), the whole fan-out records under a "fanout" span;
	// see fanOut for its children. Without a trace every span call is a
	// nil-receiver no-op.
	ctx, fanSpan := obs.StartSpan(ctx, "fanout")
	defer fanSpan.End()
	fanSpan.Annotate("field", f.Name)
	stats := FanoutStats{ByShard: make(map[string]*ShardTraffic)}
	if level < 1 || level > store.MaxReadLevel {
		return nil, stats, fmt.Errorf("cluster: level %d outside 1..%d", level, store.MaxReadLevel)
	}
	if level > 1 {
		fanSpan.Annotate("level", strconv.Itoa(level))
	}
	step, elem, nd := 1<<(level-1), f.ElemSize(), len(f.Dims)
	slots := make([]struct {
		g   grid.LevelGrid // the box's grid on the level
		off int            // where its samples start in the body
	}, len(boxes))
	var subs []subRegion
	size := 0
	for i, b := range boxes {
		planned, err := planSubRegions(f, b.Lo, b.Hi) // validates the box
		if err != nil {
			return nil, stats, err
		}
		og, ok := grid.LevelOf(b.Lo, b.Hi, step)
		if !ok {
			return nil, stats, fmt.Errorf("cluster: region [%v,%v) has no points on the level-%d grid", b.Lo, b.Hi, level)
		}
		if i == 0 {
			subs = planned[:0] // filtered in place: the kept never overtake the read
		}
		// Keep only sub-regions holding a point on the level — the rest would
		// be answered with "no points" by their shards, and the stitch owes
		// them nothing. At level 1 every sub-region survives.
		covered := 0
		for _, sub := range planned {
			if g, ok := grid.LevelOf(sub.lo, sub.hi, step); ok {
				sub.bytes, sub.box = g.N*elem, i
				subs = append(subs, sub)
				covered += g.N
			}
		}
		// The output slab arrives holding some earlier response, so "every
		// byte is written" is no longer a nicety: disjoint sub-regions (the
		// plan's construction) whose sizes add up to each box's leave no byte
		// of it unwritten.
		if covered != og.N {
			return nil, stats, fmt.Errorf("cluster: fan-out plan covers %d of box %d's %d points", covered, i, og.N)
		}
		slots[i].g, slots[i].off = og, size
		size += og.N * elem
	}
	gate := GenerationPrefix(f.ManifestCRC, f.Generation)
	out := pool.Slab[byte](size)
	err := fanOut(ctx, c, f, &stats, subs, roundTripBoxes,
		func(ctx context.Context, shard string, trip []int) ([]byte, error) {
			return c.fetchBoxes(ctx, shard, f, subs, trip, level, gate)
		},
		func(trip []int, body []byte) {
			// Scatter each box of the body into its box's slot on the level's
			// grid. Sub-regions partition their box, a point of a box's grid
			// lies in exactly one of them, and boxes own disjoint slots, so
			// round trips write disjoint bytes — no synchronization.
			off := 0
			for _, k := range trip {
				s := &subs[k]
				g, _ := grid.LevelOf(s.lo, s.hi, step)
				slot := &slots[s.box]
				stitch(out[slot.off:], &slot.g, body[off:off+s.bytes], &g, nd, elem)
				off += s.bytes
			}
			pool.PutSlab(body)
		})
	if err != nil {
		// fanOut has waited for every round trip, so nothing writes to out now.
		pool.PutSlab(out)
		return nil, stats, err
	}
	return out, stats, nil
}

// A round trip carries at most roundTripBytes of body and roundTripBoxes
// boxes; a shard's share of a read above either goes in several round
// trips, and a single larger box travels alone. Constants, not settings,
// and measured: at 256 KiB the body here and the sample buffer the shard
// fills for it come out of a pool (uncapped, reading an 8 MiB field whole
// made each shard produce one 4 MiB unpooled buffer and gateway_hot's peak
// RSS rose 12.9 %). The byte bound is its own, as store's maxFetchRange
// is, rather than the slab pools' recycling bound: raising that one to
// pool a region answer must not lengthen the round trips. The box bound
// keeps the URL short when a thin region crosses many bricks.
const (
	roundTripBytes = 256 << 10
	roundTripBoxes = 64
)

// fanOut is the one fan-out engine: region reads and queries both run on
// it, so there is one failover loop, one accounting path and one span
// vocabulary. Round a sends every pending sub-region of subs to its a-th
// ranked shard, those bound for one shard grouped into round trips of at
// most maxBoxes sub-regions (groupTrips). fetch runs one round trip —
// trip names its sub-regions, in request order — and consume takes a good
// answer on the round trip's own goroutine: round trips run concurrently,
// so consume touches only what its trip owns. The sub-regions of a failed
// round trip are pending again and regroup by their own next choice — with
// more than two shards one dead shard's boxes fan out to different
// successors. A client fault ends the fan-out at once; a sub-region left
// with no shard ends it with ErrNoShards. Either way fanOut returns only
// once every round trip has.
//
// The "fanout" span in ctx (if any) gets the first round's round-trip
// count as "subreads" and the later rounds' as "retries"; each round trip
// is a "subread" span with a "shard.get" child, and stats counts every
// exchange.
func fanOut[V any](ctx context.Context, c *Client, f *Field, stats *FanoutStats, subs []subRegion, maxBoxes int,
	fetch func(ctx context.Context, shard string, trip []int) (V, error), consume func(trip []int, v V)) error {
	fanSpan := obs.FromContext(ctx)
	pending := make([]int, len(subs))
	for k := range pending {
		pending[k] = k
	}
	attempts := min(c.attempts(), len(f.Shards))
	var lastErr error
	var mu sync.Mutex // guards stats during a round
	for a := 0; len(pending) > 0; a++ {
		if a == attempts {
			return fmt.Errorf("%w: %w", ErrNoShards, lastErr)
		}
		trips := groupTrips(subs, pending, a, maxBoxes)
		if a == 0 {
			stats.SubReads = len(trips)
			fanSpan.Annotate("subreads", strconv.Itoa(len(trips)))
		} else {
			stats.Retries += len(trips)
		}
		failed := make([]error, len(trips))
		err := pool.RunErr(ctx, len(trips), c.Workers, func(t int) error {
			trip := trips[t]
			shard := f.Shards[subs[trip[0]].rank[a]]
			sctx, span := obs.StartSpan(ctx, "subread")
			defer span.End()
			if span != nil {
				span.Annotate("shard", shard)
				span.Annotate("boxes", strconv.Itoa(len(trip)))
				total := 0
				for _, k := range trip {
					total += subs[k].bytes
				}
				if total > 0 { // a read's body; a sub-query has none
					span.Annotate("bytes", strconv.Itoa(total))
				}
				if len(trip) == 1 {
					span.Annotate("lo", corner(subs[trip[0]].lo))
					span.Annotate("hi", corner(subs[trip[0]].hi))
				}
				if a > 0 {
					span.Annotate("round", strconv.Itoa(a+1))
				}
			}
			actx, att := obs.StartSpan(sctx, "shard.get")
			att.Annotate("shard", shard)
			t0 := time.Now()
			v, err := fetch(actx, shard, trip)
			secs := time.Since(t0).Seconds()
			if err != nil {
				att.Annotate("error", err.Error())
				span.Annotate("error", err.Error())
			}
			att.End()
			mu.Lock()
			if tr := stats.shard(shard); err != nil {
				tr.Errors++
			} else {
				tr.Reads++
				tr.Seconds += secs
			}
			mu.Unlock()
			if err != nil {
				failed[t] = err
				if clientFault(err) {
					return fmt.Errorf("%w: %w", ErrNoShards, err)
				}
				return nil
			}
			consume(trip, v)
			return nil
		})
		if err != nil {
			return err
		}
		pending = nil
		for t, ferr := range failed {
			if ferr != nil {
				pending = append(pending, trips[t]...)
				lastErr = ferr
			}
		}
	}
	if stats.Retries > 0 {
		fanSpan.Annotate("retries", strconv.Itoa(stats.Retries))
	}
	return nil
}

// groupTrips cuts round a of a fan-out into round trips: the pending
// sub-regions (indices into subs, reordered in place) grouped by the shard
// each goes to in this round, a shard's group split wherever the next box
// would take it past roundTripBytes of body or maxBoxes boxes.
func groupTrips(subs []subRegion, pending []int, a, maxBoxes int) [][]int {
	slices.SortStableFunc(pending, func(x, y int) int { return subs[x].rank[a] - subs[y].rank[a] })
	var trips [][]int
	start, bytes := 0, 0
	for i, k := range pending {
		if i > start && (subs[k].rank[a] != subs[pending[start]].rank[a] ||
			bytes+subs[k].bytes > roundTripBytes || i-start == maxBoxes) {
			trips = append(trips, pending[start:i:i])
			start, bytes = i, 0
		}
		bytes += subs[k].bytes
	}
	return append(trips, pending[start:])
}

// GenerationPrefix is what a region or query ETag begins with: the store
// content it was served from, as the (manifest CRC, generation) pair. A
// shard mints its ETags on it, and the gateway gates every exchange on the
// prefix of its catalog entry — rendered once per fan-out, compared once
// per exchange.
func GenerationPrefix(crc uint32, gen uint64) string {
	return string(AppendGenerationPrefix(nil, crc, gen))
}

// AppendGenerationPrefix appends GenerationPrefix(crc, gen) to dst: a
// quote, the CRC as eight hex digits, "-g", the generation and a dash.
func AppendGenerationPrefix(dst []byte, crc uint32, gen uint64) []byte {
	dst = append(dst, '"')
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, "0123456789abcdef"[crc>>uint(shift)&15])
	}
	return append(strconv.AppendUint(append(dst, "-g"...), gen, 10), '-')
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

// fetchBoxes is one region round trip against one shard: the boxes
// subs[k] for k in trip, one /region request naming them in that order,
// through get (status, generation gate) and then checked for element type
// and exact body length (the boxes' grids on the level, concatenated). The
// body it returns is a response slab the caller owns; on every failure the
// slab it took is already back in the pool.
func (c *Client) fetchBoxes(ctx context.Context, shard string, f *Field, subs []subRegion, trip []int, level int, gate string) ([]byte, error) {
	var ubuf [192]byte
	u := append(ubuf[:0], shard...)
	u = append(u, "/v1/fields/"...)
	u = append(u, url.PathEscape(f.Name)...)
	u = append(u, "/region"...)
	total := 0
	for i, k := range trip {
		u = append(u, "?&"[min(i, 1)])
		u = append(u, "lo="...)
		u = appendCorner(u, subs[k].lo)
		u = append(u, "&hi="...)
		u = appendCorner(u, subs[k].hi)
		total += subs[k].bytes
	}
	if level > 1 {
		u = append(u, "&level="...)
		u = strconv.AppendInt(u, int64(level), 10)
	}
	var body []byte
	err := c.get(ctx, shard, string(u), gate, func(resp *http.Response) error {
		if dt := resp.Header.Get("X-Qoz-Dtype"); dt != "" && dt != f.DType {
			return fmt.Errorf("sub-read dtype %q, want %q", dt, f.DType)
		}
		// Buffer, then stitch: one ReadFull into a recycled body costs less
		// than per-row reads through net/http's body wrappers.
		body = pool.Slab[byte](total)
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			return fmt.Errorf("short sub-read body: %w", err)
		}
		var extra [1]byte
		if n, _ := resp.Body.Read(extra[:]); n != 0 {
			return fmt.Errorf("sub-read body longer than its region")
		}
		return nil
	})
	if err != nil {
		pool.PutSlab(body)
		return nil, err
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
