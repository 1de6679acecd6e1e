// The gateway role of qozd: the same handler as a shard, over a backend
// that answers by fanning reads out over a fleet of ordinary qozd shards
// and stitching the sub-region slabs back together (qoz/cluster does the
// planning, routing, and stitching). The gateway holds no store — its only
// state is the catalog it learns from the shards' own manifest endpoints —
// so gateways are stateless, horizontally scalable, and restartable at
// will.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qoz/cluster"
	"qoz/internal/pool"
	"qoz/store"
)

// gatewayOptions configures a gateway: the handler over a fleet backend.
type gatewayOptions struct {
	Shards     []string // shard base URLs; also the placement domain
	ShardToken string   // bearer token presented to shards
	Attempts   int      // distinct shards tried per sub-region (1 = no failover)
	Workers    int      // concurrent shard round trips per request (<=0 = one per core)
	MaxPoints  int      // largest region served, in points (<=0 = unlimited)
	Guard      guardOptions
	Ins        *instrument // traces, histograms, request logs; nil builds a silent one
	Pprof      bool        // expose /debug/pprof/* on the mux
	// HTTP overrides the shard-facing client (tests inject a
	// httptest-backed transport); nil selects a timeoutful default.
	HTTP *http.Client
}

// fleet is the backend of a gateway. The catalog pointer swaps atomically
// on refresh, so requests racing a refresh see either the old or the new
// catalog wholly — and the per-sub-read generation gate in qoz/cluster
// guarantees the stitched bytes match whichever one they saw.
type fleet struct {
	shards  []string
	client  *cluster.Client
	catalog atomic.Pointer[map[string]*cluster.Field]

	subReads atomic.Int64
	retries  atomic.Int64

	trafficMu sync.Mutex
	traffic   map[string]*cluster.ShardTraffic // lifetime per-shard totals

	droppedMu  sync.Mutex
	droppedSet string       // the last refresh's dropped reports, sorted and joined
	dropped    atomic.Int64 // how many there were
}

// newGateway builds the fan-out engine and learns the initial catalog
// from the shards; with no shard reachable at startup there is nothing to
// serve and construction fails.
func newGateway(opts gatewayOptions) (*handler, error) {
	h, err := newHandler(opts.MaxPoints, opts.Guard, opts.Ins, opts.Pprof)
	if err != nil {
		return nil, err
	}
	hc := opts.HTTP
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Minute}
	}
	g := &fleet{
		shards: opts.Shards,
		client: &cluster.Client{
			HTTP:     hc,
			Token:    opts.ShardToken,
			Attempts: opts.Attempts,
			Workers:  opts.Workers,
		},
		traffic: make(map[string]*cluster.ShardTraffic),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if errs := g.refresh(ctx); errs != nil {
		return nil, fmt.Errorf("gateway: initial %w", errs[0]) // "... initial catalog: <cause>"
	}
	h.be = g
	return h, nil
}

func (g *fleet) close() { g.client.HTTP.CloseIdleConnections() }

// fields returns the current catalog (never nil after construction).
func (g *fleet) fields() map[string]*cluster.Field { return *g.catalog.Load() }

// refresh re-learns the fleet's fields. A failed refresh keeps the
// previous catalog serving — a gateway would rather serve a slightly old
// generation (failing over stale shards per sub-read) than nothing. A
// field report the catalog left out as unusable is not a failure: the
// rest of the catalog serves, and noteDropped says which were left out.
func (g *fleet) refresh(ctx context.Context) []error {
	cat, dropped, err := g.client.CatalogReport(ctx, g.shards)
	if err != nil {
		return []error{fmt.Errorf("catalog: %w", err)}
	}
	g.catalog.Store(&cat)
	g.noteDropped(dropped)
	return nil
}

// noteDropped records the field reports a refresh left out: their count
// for qozd_gateway_fields_dropped, and, whenever the set differs from the
// previous refresh's, one log line per report — so a field that answers
// 404 here although a shard lists it says why once, not on every poll.
func (g *fleet) noteDropped(dropped []error) {
	msgs := make([]string, len(dropped))
	for i, err := range dropped {
		msgs[i] = err.Error()
	}
	sort.Strings(msgs)
	set := strings.Join(msgs, "\n")
	g.droppedMu.Lock()
	defer g.droppedMu.Unlock()
	g.dropped.Store(int64(len(msgs)))
	if set == g.droppedSet {
		return
	}
	g.droppedSet = set
	for _, msg := range msgs {
		log.Printf("catalog: dropped unusable field report %s", msg)
	}
	if len(msgs) == 0 {
		log.Printf("catalog: no field report dropped")
	}
}

func (g *fleet) list() []snapshot {
	cat := g.fields()
	names := fieldNames(cat)
	out := make([]snapshot, len(names))
	for i, name := range names {
		out[i] = fleetSnapshot(cat[name])
	}
	return out
}

func (g *fleet) resolve(name string) (snapshot, bool) {
	f, ok := g.fields()[name]
	if !ok {
		return snapshot{}, false
	}
	return fleetSnapshot(f), true
}

func fleetSnapshot(f *cluster.Field) snapshot {
	return snapshot{name: f.Name, dims: f.Dims, dtype: f.DType, bound: f.ErrorBound,
		crc: f.ManifestCRC, gen: f.Generation, src: f}
}

func (g *fleet) describe(s snapshot, fi *fieldInfo) {
	f := s.src.(*cluster.Field)
	fi.Brick = f.Brick
	fi.Bricks, _ = store.NumBricksIn(f.Dims, f.Brick)
	fi.Codec = f.Codec
	fi.Shards = f.Shards
}

// account folds one fan-out's traffic stats into the gateway's process
// counters: sub-request and retry totals, plus per-shard read/error/time
// accounting. Region and query fan-outs account identically.
func (g *fleet) account(stats cluster.FanoutStats) {
	g.subReads.Add(int64(stats.SubReads))
	g.retries.Add(int64(stats.Retries))
	g.trafficMu.Lock()
	for shard, t := range stats.ByShard {
		acc := g.traffic[shard]
		if acc == nil {
			acc = &cluster.ShardTraffic{}
			g.traffic[shard] = acc
		}
		acc.Reads += t.Reads
		acc.Errors += t.Errors
		acc.Seconds += t.Seconds
	}
	g.trafficMu.Unlock()
}

// region answers by one fan-out, whatever the box count: plan every box's
// sub-regions along brick-ownership boundaries, read each owning shard's
// share in one round trip (failing over along the placement's preference
// order), and stitch the raw slabs into one body byte-identical to a single
// qozd holding the whole store.
func (g *fleet) region(ctx context.Context, s snapshot, boxes []store.Box, level int) (any, error) {
	body, stats, err := g.client.ReadBoxesRaw(ctx, s.src.(*cluster.Field), boxes, level)
	g.account(stats)
	if err != nil {
		return nil, fmt.Errorf("fan-out failed: %w", err)
	}
	return &slab[byte]{body}, nil
}

// query fans sub-queries out along the same boundaries; each owning shard
// prunes from its own statistics index, and the partial aggregates merge
// into the answer a single qozd holding the whole store would give.
func (g *fleet) query(ctx context.Context, s snapshot, req store.QueryRequest) (*store.QueryResult, error) {
	res, stats, err := g.client.Query(ctx, s.src.(*cluster.Field), req)
	g.account(stats)
	if err != nil {
		return nil, fmt.Errorf("query fan-out failed: %w", err)
	}
	return res, nil
}

// failure: every candidate shard for some sub-region is down, erroring, or
// stale. The request is retryable the moment a shard recovers, so it is a
// 502 + Retry-After, never a hang or a partially-stitched body — unless
// the shards merely advanced past the catalog (ErrStale), which a refresh
// cures.
func (g *fleet) failure(err error) (int, string, bool) {
	return http.StatusBadGateway, "1", errors.Is(err, cluster.ErrStale)
}

// ready: a non-empty catalog and every configured shard answering its
// field listing — the exchange the catalog is learned from, with the
// gateway's shard credential — within 2s. A gateway in front of an
// unreachable fleet stays alive (healthz) but not ready, so a balancer
// drains it instead of feeding it requests that will all 502.
func (g *fleet) ready(ctx context.Context) (bool, map[string]any) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	down := make([]bool, len(g.shards))
	pool.Run(len(g.shards), len(g.shards), func(i int) {
		_, err := g.client.Catalog(ctx, g.shards[i:i+1])
		down[i] = err != nil
	})
	var unreachable []string
	for i, shard := range g.shards {
		if down[i] {
			unreachable = append(unreachable, shard)
		}
	}
	sort.Strings(unreachable)
	fields := len(g.fields())
	if fields == 0 || len(unreachable) > 0 {
		return false, map[string]any{"status": "not ready", "fields": fields, "unreachableShards": unreachable}
	}
	return true, map[string]any{"status": "ok", "fields": fields, "shards": len(g.shards)}
}

func (g *fleet) nouns() (work, refreshes string) { return "fan-out", "shard-catalog refreshes" }

// families include per-shard fan-out traffic, so a hot or flapping shard
// shows up in one scrape.
func (g *fleet) families() []family {
	g.trafficMu.Lock()
	snap := make(map[string]cluster.ShardTraffic, len(g.traffic))
	for shard, t := range g.traffic {
		snap[shard] = *t
	}
	g.trafficMu.Unlock()
	shards := fieldNames(snap)
	return []family{
		scalar("qozd_gateway_subreads_total", "shard round trips planned across all fan-outs (one per owning shard of a region read, one per sub-region of a query)", "counter", g.subReads.Load()),
		scalar("qozd_gateway_retries_total", "failover round trips to shards other than the owner", "counter", g.retries.Load()),
		scalar("qozd_gateway_fields", "fields in the shard catalog", "gauge", len(g.fields())),
		scalar("qozd_gateway_fields_dropped", "shard field reports the last catalog refresh left out as unusable (bad grid, dtype or bound), one per shard and field", "gauge", g.dropped.Load()),
		labelled("qozd_gateway_shard_reads_total", "successful round trips by shard", "counter", "shard", shards,
			func(s string) any { return snap[s].Reads }),
		labelled("qozd_gateway_shard_errors_total", "failed round trips by shard", "counter", "shard", shards,
			func(s string) any { return snap[s].Errors }),
		labelled("qozd_gateway_shard_seconds_total", "wall time in successful round trips by shard", "counter", "shard", shards,
			func(s string) any { return snap[s].Seconds }),
	}
}
