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
// network. The request is normalised by store.CheckQuery, as Store.Query
// does; every answer is checked against it and its sub-box (checkPartial)
// before store.MergeQueryResults, the fold Store.Query runs over bricks,
// merges it. The merged result is identical to one store.Query over the
// whole box, except that extremum queries cannot branch-and-bound across
// shards: every sub-box resolves independently, and the pruning counters
// sum what each shard did locally.
func (c *Client) Query(ctx context.Context, f *Field, req store.QueryRequest) (*store.QueryResult, FanoutStats, error) {
	ctx, fanSpan := obs.StartSpan(ctx, "fanout")
	defer fanSpan.End()
	fanSpan.Annotate("field", f.Name)
	fanSpan.Annotate("op", req.Op)
	stats := FanoutStats{ByShard: make(map[string]*ShardTraffic)}
	req, err := store.CheckQuery(req)
	if err != nil {
		return nil, stats, err
	}
	lo, hi := req.Lo, req.Hi
	if lo == nil && hi == nil {
		lo = make([]int, len(f.Dims))
		hi = f.Dims
	}
	subs, err := planSubRegions(f, lo, hi)
	if err != nil {
		return nil, stats, err
	}
	gate := GenerationPrefix(f.ManifestCRC, f.Generation)
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
	return store.MergeQueryResults(req, partials), stats, nil
}

// queryURL is the sub-query of req for the sub-box s on one shard. Every
// parameter is spelled out: the shard's store.CheckQuery keeps the ones
// req's op takes.
func queryURL(shard string, f *Field, s *subRegion, req store.QueryRequest) string {
	g := func(v float64) string {
		return url.QueryEscape(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return fmt.Sprintf("%s/v1/fields/%s/query?op=%s&lo=%s&hi=%s&value=%s&low=%s&high=%s&bins=%d&maxloc=%d",
		shard, url.PathEscape(f.Name), url.QueryEscape(req.Op), corner(s.lo), corner(s.hi),
		g(req.Value), g(req.Low), g(req.High), req.Bins, req.MaxLocations)
}

// checkPartial refuses a sub-query answer that cannot be the answer to req
// over the sub-box s: another op, a histogram of another bin count (bins
// on any other op included), more locations than asked for, a location or
// an extremum's argument that is not a point of s (another rank included),
// a tally (count, below, above, NaN or bin) below zero or above the
// sub-box's points, or a histogram that does not classify every point of
// the sub-box exactly once. Merged, the first two would index past the merged bins and the
// rest would fold into a wrong answer; refused, the sub-query fails over
// like a short region body.
func checkPartial(req store.QueryRequest, res *store.QueryResult, s *subRegion) error {
	bins := 0
	if req.Op == store.QueryHist {
		bins = req.Bins
	}
	points := int64(1)
	for i := range s.lo {
		points *= int64(s.hi[i] - s.lo[i])
	}
	// Every tally lies in [0, points], which also keeps the sums below
	// from wrapping.
	binned, tally := int64(0), int64(0)
	for i, n := range append([]int64{res.Count, res.Below, res.Above, res.NaNCount}, res.Bins...) {
		if n < 0 || n > points {
			tally = n
		}
		if i >= 4 {
			binned += n
		}
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
	case tally != 0:
		return fmt.Errorf("sub-query answered a tally of %d for a %d-point box", tally, points)
	case bins > 0 && res.Count != binned:
		return fmt.Errorf("sub-query histogram counted %d binned points, its bins sum to %d", res.Count, binned)
	case bins > 0 && res.Count+res.Below+res.Above+res.NaNCount != points:
		return fmt.Errorf("sub-query histogram classified %d points of a %d-point box",
			res.Count+res.Below+res.Above+res.NaNCount, points)
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
