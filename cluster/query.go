// Query fan-out: the gateway-side half of predicate pushdown. A pushdown
// query over a sharded field is planned on the same brick-ownership
// boundaries as a region read, each sub-box is answered by its owning
// shard (which prunes locally from its statistics index), and the partial
// results — counts, histograms, extrema, matching locations — merge into
// one answer identical to a single qozd holding the whole store.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"

	"qoz/internal/pool"
	"qoz/obs"
	"qoz/store"
)

// Query fans one pushdown query out over the fleet and merges the
// per-shard partial results. The request's box (nil Lo/Hi = the whole
// field) is split along brick-ownership boundaries exactly like
// ReadRegionRaw — same routing, failover, and per-sub-response generation
// gate — and each shard answers its sub-box from its own statistics
// index, so pruning happens where the bricks live and only small JSON
// aggregates cross the network. The merged result is identical to one
// store.Query over the whole box, except that extremum queries cannot
// branch-and-bound across shards: every sub-box resolves independently,
// and the pruning counters sum what each shard did locally.
func (c *Client) Query(ctx context.Context, f *Field, req store.QueryRequest) (*store.QueryResult, FanoutStats, error) {
	ctx, fanSpan := obs.StartSpan(ctx, "queryfan")
	defer fanSpan.End()
	fanSpan.Annotate("field", f.Name)
	fanSpan.Annotate("op", req.Op)
	stats := FanoutStats{ByShard: make(map[string]*ShardTraffic)}
	lo, hi := req.Lo, req.Hi
	if lo == nil && hi == nil {
		lo = make([]int, len(f.Dims))
		hi = f.Dims
	}
	subs, err := planSubRegions(f, lo, hi)
	if err != nil {
		return nil, stats, err
	}
	stats.SubReads = len(subs)
	fanSpan.Annotate("subqueries", strconv.Itoa(len(subs)))
	partials := make([]*store.QueryResult, len(subs))
	gate := generationPrefix(f)
	var mu sync.Mutex // guards stats during the fan-out
	err = pool.RunErr(ctx, len(subs), c.Workers, func(k int) error {
		sub := subs[k]
		sctx, span := obs.StartSpan(ctx, "subquery")
		defer span.End()
		span.Annotate("lo", corner(sub.lo))
		span.Annotate("hi", corner(sub.hi))
		// One sub-query per sub-region, failing over along its preference
		// order on shard faults.
		var lastErr error
		for a := 0; a < min(c.attempts(), len(sub.rank)); a++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			shard := f.Shards[sub.rank[a]]
			res, secs, err := attempt(sctx, shard, &mu, &stats, func(ctx context.Context) (*store.QueryResult, error) {
				return c.fetchQuery(ctx, shard, f, sub, req, gate)
			})
			mu.Lock()
			if a > 0 {
				stats.Retries++
			}
			if err == nil {
				t := stats.shard(shard)
				t.Reads++
				t.Seconds += secs
			}
			mu.Unlock()
			if err == nil {
				if a > 0 {
					span.Annotate("retries", strconv.Itoa(a))
				}
				span.Annotate("shard", shard)
				partials[k] = res
				return nil
			}
			lastErr = err
			if clientFault(err) {
				break
			}
		}
		span.Annotate("error", lastErr.Error())
		return fmt.Errorf("%w: %w", ErrNoShards, lastErr)
	})
	if err != nil {
		return nil, stats, err
	}
	return mergeQueryResults(req, partials), stats, nil
}

// fetchQuery issues one sub-query against one shard and validates the
// answer: status, and the catalog's (manifest CRC, generation) pair via
// the shard's strong ETag prefix (gate) — the same generation gate region
// sub-reads pass through, so a merged query never mixes generations.
func (c *Client) fetchQuery(ctx context.Context, shard string, f *Field, sub subRegion, req store.QueryRequest, gate string) (*store.QueryResult, error) {
	g := func(v float64) string {
		return url.QueryEscape(strconv.FormatFloat(v, 'g', -1, 64))
	}
	u := fmt.Sprintf("%s/v1/fields/%s/query?op=%s&lo=%s&hi=%s",
		shard, url.PathEscape(f.Name), url.QueryEscape(req.Op), corner(sub.lo), corner(sub.hi))
	switch req.Op {
	case store.QueryGT, store.QueryLT:
		u += "&value=" + g(req.Value)
	case store.QueryRange:
		u += "&low=" + g(req.Low) + "&high=" + g(req.High)
	case store.QueryHist:
		u += fmt.Sprintf("&low=%s&high=%s&bins=%d", g(req.Low), g(req.High), req.Bins)
	}
	if req.MaxLocations > 0 {
		u += fmt.Sprintf("&maxloc=%d", req.MaxLocations)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, &ShardError{Shard: shard, Err: err}
	}
	if c.Token != "" {
		hreq.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if id := requestIDFrom(ctx); id != "" {
		hreq.Header.Set("X-Qoz-Request-Id", id)
	}
	resp, err := c.http().Do(hreq)
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
			Err: fmt.Errorf("sub-query failed: %s", strings.TrimSpace(string(msg)))}
	}
	if et := resp.Header.Get("ETag"); !strings.HasPrefix(et, gate) {
		return nil, &ShardError{Shard: shard, Err: fmt.Errorf("%w (ETag %s, want prefix %s)", ErrStale, et, gate)}
	}
	var res store.QueryResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, &ShardError{Shard: shard, Err: fmt.Errorf("sub-query body: %w", err)}
	}
	return &res, nil
}

// mergeQueryResults folds per-shard partial answers into the fleet-wide
// result. Sub-boxes partition the query box, so counts, histogram bins,
// and the below/above/NaN tallies sum; the extremum is the best partial
// value, ties resolved to the row-major-smallest (lexicographically
// smallest) coordinates, matching single-node tie-breaking; and each
// partial's locations are its row-major-first matches within its own
// sub-box, so the global first-k are within their union — sort
// lexicographically and cut, exactly like the store merges per-brick
// matches.
func mergeQueryResults(req store.QueryRequest, partials []*store.QueryResult) *store.QueryResult {
	out := &store.QueryResult{Op: req.Op}
	if req.Op == store.QueryHist {
		out.Bins = make([]int64, req.Bins)
	}
	for _, p := range partials {
		out.Count += p.Count
		out.Below += p.Below
		out.Above += p.Above
		out.NaNCount += p.NaNCount
		out.BricksTotal += p.BricksTotal
		out.BricksPruned += p.BricksPruned
		out.BricksDecoded += p.BricksDecoded
		for i := range p.Bins {
			out.Bins[i] += p.Bins[i]
		}
		out.Locations = append(out.Locations, p.Locations...)
		if p.Found && (!out.Found || betterExtremum(req.Op, p, out)) {
			out.Found, out.Value, out.Arg = true, p.Value, p.Arg
		}
	}
	if req.MaxLocations > 0 && len(out.Locations) > 0 {
		sort.Slice(out.Locations, func(i, j int) bool {
			return lexLess(out.Locations[i], out.Locations[j])
		})
		if len(out.Locations) > req.MaxLocations {
			out.Locations = out.Locations[:req.MaxLocations]
		}
		out.Truncated = out.Count > int64(len(out.Locations))
	}
	return out
}

// betterExtremum reports whether partial p beats the current best for the
// given extremum op: strictly better value, or an equal value at a
// row-major-smaller position.
func betterExtremum(op string, p, best *store.QueryResult) bool {
	if p.Value != best.Value {
		if op == store.QueryMin {
			return p.Value < best.Value
		}
		return p.Value > best.Value
	}
	return lexLess(p.Arg, best.Arg)
}

// lexLess orders coordinates lexicographically, which for same-rank
// coordinates in one field is exactly row-major order.
func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
