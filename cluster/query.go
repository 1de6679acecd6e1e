// Query fan-out: the gateway-side half of predicate pushdown. A pushdown
// query over a sharded field is planned on the same brick-ownership
// boundaries as a region read and fanned out on the same engine (fanOut),
// each sub-box is answered by its owning shard (which prunes locally from
// its statistics index), and the partial results — counts, histograms,
// extrema, matching locations — are checked and merge into one answer
// identical to a single qozd holding the whole store.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"

	"qoz/obs"
	"qoz/store"
)

// Query fans one pushdown query out over the fleet and merges the
// per-shard partial results. The request's box (nil Lo/Hi = the whole
// field) is split along brick-ownership boundaries exactly like a region
// read and runs on the same engine — routing, rounds of failover,
// accounting, spans and the per-exchange generation gate — except that a
// round trip carries one sub-box, because /query answers one box. Each
// shard answers its sub-box from its own statistics index, so pruning
// happens where the bricks live and only small JSON aggregates cross the
// network; every answer is checked against its request and sub-box
// (checkPartial) before it is merged. The merged result is identical to
// one store.Query over the whole box, except that extremum queries cannot
// branch-and-bound across shards: every sub-box resolves independently,
// and the pruning counters sum what each shard did locally.
func (c *Client) Query(ctx context.Context, f *Field, req store.QueryRequest) (*store.QueryResult, FanoutStats, error) {
	ctx, fanSpan := obs.StartSpan(ctx, "fanout")
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
	gate := generationPrefix(f)
	partials := make([]*store.QueryResult, len(subs))
	err = fanOut(ctx, c, f, &stats, subs, 1,
		func(ctx context.Context, shard string, trip []int) (*store.QueryResult, error) {
			sub := &subs[trip[0]]
			res := new(store.QueryResult)
			return res, c.get(ctx, shard, queryURL(shard, f, sub, req), gate, func(resp *http.Response) error {
				if err := json.NewDecoder(resp.Body).Decode(res); err != nil {
					return fmt.Errorf("sub-query body: %w", err)
				}
				return checkPartial(req, res, sub)
			})
		},
		func(trip []int, res *store.QueryResult) { partials[trip[0]] = res })
	if err != nil {
		return nil, stats, err
	}
	return mergeQueryResults(req, partials), stats, nil
}

// queryURL is the sub-query of req for the sub-box s on one shard.
func queryURL(shard string, f *Field, s *subRegion, req store.QueryRequest) string {
	g := func(v float64) string {
		return url.QueryEscape(strconv.FormatFloat(v, 'g', -1, 64))
	}
	u := fmt.Sprintf("%s/v1/fields/%s/query?op=%s&lo=%s&hi=%s",
		shard, url.PathEscape(f.Name), url.QueryEscape(req.Op), corner(s.lo), corner(s.hi))
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
	return u
}

// checkPartial refuses a sub-query answer that cannot be the answer to req
// over the sub-box s: another op, a histogram of another bin count (bins
// on any other op included), more locations than asked for, or a location
// or an extremum's argument that is not a point of s (another rank
// included). Merged, the first two would index past the merged bins and
// the rest would fold into a wrong answer; refused, the sub-query fails
// over like a short region body.
func checkPartial(req store.QueryRequest, res *store.QueryResult, s *subRegion) error {
	bins := 0
	if req.Op == store.QueryHist {
		bins = req.Bins
	}
	switch {
	case res.Op != req.Op:
		return fmt.Errorf("sub-query answered op %q, want %q", res.Op, req.Op)
	case len(res.Bins) != bins:
		return fmt.Errorf("sub-query answered %d bins, want %d", len(res.Bins), bins)
	case len(res.Locations) > req.MaxLocations:
		return fmt.Errorf("sub-query answered %d locations, want at most %d", len(res.Locations), req.MaxLocations)
	case res.Found && !s.holds(res.Arg):
		return fmt.Errorf("sub-query extremum at %v, outside its box [%v,%v)", res.Arg, s.lo, s.hi)
	}
	for _, p := range res.Locations {
		if !s.holds(p) {
			return fmt.Errorf("sub-query location %v outside its box [%v,%v)", p, s.lo, s.hi)
		}
	}
	return nil
}

// holds reports whether p is a point of the box [s.lo, s.hi).
func (s *subRegion) holds(p []int) bool {
	if len(p) != len(s.lo) {
		return false
	}
	for i, x := range p {
		if x < s.lo[i] || x >= s.hi[i] {
			return false
		}
	}
	return true
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
