package store

// Predicate pushdown over the per-brick statistics index. A query scans
// the manifest's recorded min/max (a journal manifest's statistics
// extension, or a legacy v5 index's) and decodes only the bricks whose
// value range straddles the predicate. Pruning is error-bound aware:
// decoded values lie within the store's absolute bound eb of the originals
// the statistics summarize, so a brick is conclusively out of "v > X" only
// when Max+eb <= X, conclusively all-in only when Min-eb > X — anything
// in between is decoded. Bricks holding any non-finite sample, and bricks
// without a (valid) statistics record, are always decoded, so a query's
// result is bit-identical to a brute-force full-decode scan no matter how
// much was pruned. That identity is pinned by the differential property
// test in query_test.go.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"qoz"
	"qoz/internal/grid"
	"qoz/internal/pool"
)

// Query operation names (QueryRequest.Op).
const (
	// QueryGT counts the points with v > Value.
	QueryGT = "gt"
	// QueryLT counts the points with v < Value.
	QueryLT = "lt"
	// QueryRange counts the points with Low <= v < High.
	QueryRange = "range"
	// QueryMin and QueryMax locate the extremum over the box (NaN samples
	// are skipped; ±Inf are candidates).
	QueryMin = "min"
	QueryMax = "max"
	// QueryHist histograms the box into Bins equal-width bins over
	// [Low, High); points below, at-or-above, and NaN are counted apart.
	QueryHist = "hist"
)

// MaxQueryBins bounds a histogram request's bin count.
const MaxQueryBins = 1 << 16

// QueryRequest describes one pushdown query.
type QueryRequest struct {
	// Lo, Hi bound the half-open query box; both nil selects the whole
	// field.
	Lo []int `json:"lo,omitempty"`
	Hi []int `json:"hi,omitempty"`
	// Op is one of the Query* operation names.
	Op string `json:"op"`
	// Value is the threshold for QueryGT / QueryLT.
	Value float64 `json:"value,omitempty"`
	// Low and High bound QueryRange and QueryHist (half-open: a point
	// matches when Low <= v < High).
	Low  float64 `json:"low,omitempty"`
	High float64 `json:"high,omitempty"`
	// Bins is the QueryHist bin count (1..MaxQueryBins).
	Bins int `json:"bins,omitempty"`
	// MaxLocations caps the matching coordinates a threshold query
	// returns: the result holds the MaxLocations matches with the
	// smallest row-major position. 0 collects none.
	MaxLocations int `json:"maxLocations,omitempty"`
}

// QueryResult is the answer to one QueryRequest. Which fields are
// populated depends on the operation; the pruning counters are always
// set. Counting and histogram results are exact — identical to a
// brute-force scan of the decoded values — not estimates from the index.
type QueryResult struct {
	Op string `json:"op"`
	// Count is the number of matching points (thresholds), or the number
	// of binned points (histograms).
	Count int64 `json:"count"`
	// Locations holds the first min(Count, MaxLocations) matching
	// coordinates in row-major order; Truncated reports matches beyond
	// them.
	Locations [][]int `json:"locations,omitempty"`
	Truncated bool    `json:"truncated,omitempty"`
	// Found, Value, and Arg report an extremum: its value and the
	// row-major-first coordinates attaining it. Found is false when the
	// box holds no non-NaN point. Value crosses JSON as a string (see
	// MarshalJSON) so ±Inf extrema survive the trip.
	Found bool    `json:"found,omitempty"`
	Value float64 `json:"-"`
	Arg   []int   `json:"arg,omitempty"`
	// Bins, Below, Above, and NaNCount report a histogram.
	Bins     []int64 `json:"bins,omitempty"`
	Below    int64   `json:"below,omitempty"`
	Above    int64   `json:"above,omitempty"`
	NaNCount int64   `json:"nan,omitempty"`
	// BricksTotal is the bricks the box intersects; BricksPruned of them
	// were resolved from the statistics index alone, BricksDecoded were
	// fetched and decoded. Pruned + decoded may fall short of the total
	// only for extremum queries, where bricks skipped by the
	// branch-and-bound cutoff count as pruned too.
	BricksTotal   int `json:"bricksTotal"`
	BricksPruned  int `json:"bricksPruned"`
	BricksDecoded int `json:"bricksDecoded"`
}

// queryResultWire is QueryResult with the extremum value as a string:
// encoding/json rejects NaN and ±Inf, and an extremum over a field
// holding infinities must survive the serving layers exactly.
type queryResultWire struct {
	Op            string  `json:"op"`
	Count         int64   `json:"count"`
	Locations     [][]int `json:"locations,omitempty"`
	Truncated     bool    `json:"truncated,omitempty"`
	Found         bool    `json:"found,omitempty"`
	Value         string  `json:"value,omitempty"`
	Arg           []int   `json:"arg,omitempty"`
	Bins          []int64 `json:"bins,omitempty"`
	Below         int64   `json:"below,omitempty"`
	Above         int64   `json:"above,omitempty"`
	NaNCount      int64   `json:"nan,omitempty"`
	BricksTotal   int     `json:"bricksTotal"`
	BricksPruned  int     `json:"bricksPruned"`
	BricksDecoded int     `json:"bricksDecoded"`
}

// MarshalJSON encodes the result with Value as a shortest-round-trip
// string ("1.25", "+Inf"), present only when Found.
func (r QueryResult) MarshalJSON() ([]byte, error) {
	w := queryResultWire{
		Op: r.Op, Count: r.Count, Locations: r.Locations, Truncated: r.Truncated,
		Found: r.Found, Arg: r.Arg,
		Bins: r.Bins, Below: r.Below, Above: r.Above, NaNCount: r.NaNCount,
		BricksTotal: r.BricksTotal, BricksPruned: r.BricksPruned, BricksDecoded: r.BricksDecoded,
	}
	if r.Found {
		w.Value = strconv.FormatFloat(r.Value, 'g', -1, 64)
	}
	return json.Marshal(w)
}

// UnmarshalJSON reverses MarshalJSON bit-exactly.
func (r *QueryResult) UnmarshalJSON(b []byte) error {
	var w queryResultWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = QueryResult{
		Op: w.Op, Count: w.Count, Locations: w.Locations, Truncated: w.Truncated,
		Found: w.Found, Arg: w.Arg,
		Bins: w.Bins, Below: w.Below, Above: w.Above, NaNCount: w.NaNCount,
		BricksTotal: w.BricksTotal, BricksPruned: w.BricksPruned, BricksDecoded: w.BricksDecoded,
	}
	if w.Value != "" {
		v, err := strconv.ParseFloat(w.Value, 64)
		if err != nil {
			return fmt.Errorf("store: query result value %q: %w", w.Value, err)
		}
		r.Value = v
	}
	return nil
}

// Query answers a pushdown query over the current generation, decoding
// only the bricks the statistics index cannot resolve. Thresholds and
// results are float64 regardless of the store's element type (float32
// samples widen losslessly), so Query serves both sample kinds. Results
// are exact: identical to evaluating the predicate over a full
// decode of the box. A store without statistics (a legacy v1/v2/v4 file,
// a journal from before the extension, a corrupt statistics block) is
// handled by decoding every intersecting brick.
func (s *Store) Query(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	return queryManifest(ctx, s, s.man.Load(), req)
}

// queryManifest validates the request against one manifest snapshot and
// dispatches by operation. The whole query is served from that snapshot:
// a commit landing mid-query is never mixed in.
func queryManifest(ctx context.Context, s *Store, m *manifest, req QueryRequest) (*QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	dims := m.hdr.dims
	lo, hi := req.Lo, req.Hi
	if lo == nil && hi == nil {
		lo = make([]int, len(dims))
		hi = dims
	}
	if err := grid.CheckBox("store: query box", dims, lo, hi); err != nil {
		return nil, err
	}
	if req.MaxLocations < 0 {
		req.MaxLocations = 0
	}
	switch req.Op {
	case QueryGT, QueryLT:
		if math.IsNaN(req.Value) || math.IsInf(req.Value, 0) {
			return nil, fmt.Errorf("store: query op %q needs a finite value", req.Op)
		}
		return queryThreshold(ctx, s, m, req, lo, hi)
	case QueryRange:
		if err := checkQueryRange(req.Low, req.High); err != nil {
			return nil, err
		}
		return queryThreshold(ctx, s, m, req, lo, hi)
	case QueryMin, QueryMax:
		return queryExtremum(ctx, s, m, req, lo, hi)
	case QueryHist:
		if err := checkQueryRange(req.Low, req.High); err != nil {
			return nil, err
		}
		if req.Bins < 1 || req.Bins > MaxQueryBins {
			return nil, fmt.Errorf("store: histogram needs 1..%d bins, got %d", MaxQueryBins, req.Bins)
		}
		return queryHist(ctx, s, m, req, lo, hi)
	}
	return nil, fmt.Errorf("store: unknown query op %q", req.Op)
}

func checkQueryRange(low, high float64) error {
	if math.IsNaN(low) || math.IsInf(low, 0) || math.IsNaN(high) || math.IsInf(high, 0) || low >= high {
		return fmt.Errorf("store: query needs finite low < high, got [%g, %g)", low, high)
	}
	return nil
}

// prunable reports whether a record can support any pruning decision at
// all: it must be valid and the brick all-finite. Bricks holding NaN or
// ±Inf are always decoded — the flags record presence, not count or
// position, and exactness beats a marginally better prune rate.
func prunable(st brickStat) bool {
	return st.valid && !st.HasNaN && !st.HasPosInf && !st.HasNegInf && st.Finite == st.Count
}

// notePrune records one brick resolved without decoding: the result and
// store counters, and the stage observer (bytes = the payload size NOT
// read).
func notePrune(s *Store, m *manifest, res *QueryResult, obsv StageObserver, bi int) {
	res.BricksPruned++
	s.pruned.Add(1)
	if obsv != nil {
		obsv(StageStatPrune, 0, m.bricks[bi].len)
	}
}

// pruneClass is a threshold query's per-brick disposition.
type pruneClass int

const (
	pruneScan   pruneClass = iota // stats inconclusive: decode the brick
	pruneAllOut                   // no point can match
	pruneAllIn                    // every point matches
)

// queryThreshold evaluates gt/lt/range: per brick, the statistics decide
// all-out (skip), all-in (count geometrically), or scan (decode). Scanned
// bricks run concurrently on the worker pool; matching locations are
// collected per brick (each brick's points visit in ascending global
// row-major order) and merged by a final sort, so the returned Locations
// are exactly the row-major-first matches regardless of decode order.
func queryThreshold(ctx context.Context, s *Store, m *manifest, req QueryRequest, lo, hi []int) (*QueryResult, error) {
	eb := m.hdr.bound
	var match func(float64) bool
	var decide func(bLo, bHi float64) pruneClass
	switch req.Op {
	case QueryGT:
		x := req.Value
		match = func(v float64) bool { return v > x }
		decide = func(bLo, bHi float64) pruneClass {
			switch {
			case bLo > x:
				return pruneAllIn
			case bHi <= x:
				return pruneAllOut
			}
			return pruneScan
		}
	case QueryLT:
		x := req.Value
		match = func(v float64) bool { return v < x }
		decide = func(bLo, bHi float64) pruneClass {
			switch {
			case bHi < x:
				return pruneAllIn
			case bLo >= x:
				return pruneAllOut
			}
			return pruneScan
		}
	default: // QueryRange
		l, h := req.Low, req.High
		match = func(v float64) bool { return v >= l && v < h }
		decide = func(bLo, bHi float64) pruneClass {
			switch {
			case bLo >= l && bHi < h:
				return pruneAllIn
			case bHi < l || bLo >= h:
				return pruneAllOut
			}
			return pruneScan
		}
	}

	dims := m.hdr.dims
	bk := m.hdr.bricks()
	nd := bk.Rank
	res := &QueryResult{Op: req.Op}
	obsv := stageObserverFrom(ctx)
	k := req.MaxLocations
	var locs []int // global row-major linear indices of collected matches
	var scan []int // brick indices: a piece is rebuilt where it is scanned
	it := bk.Pieces(lo, hi)
	for it.Next() {
		res.BricksTotal++
		bi := it.Index
		st := m.bricks[bi].stat
		cls := pruneScan
		if prunable(st) {
			// Decoded values lie in [Min-eb, Max+eb]: the brick is decided
			// only when that whole interval clears the predicate.
			cls = decide(st.Min-eb, st.Max+eb)
		}
		switch cls {
		case pruneAllOut:
			notePrune(s, m, res, obsv, bi)
		case pruneAllIn:
			res.Count += int64(boxPoints(it.Lo[:nd], it.Hi[:nd]))
			if k > 0 {
				// Every point of the intersection matches: its locations
				// come from geometry alone, no decode needed.
				locs = appendBoxIndices(locs, dims, it.Lo[:nd], it.Hi[:nd], k)
			}
			notePrune(s, m, res, obsv, bi)
		default:
			scan = append(scan, bi)
		}
	}

	counts := make([]int64, len(scan))
	brickLocs := make([][]int, len(scan))
	err := pool.RunErr(ctx, len(scan), s.workers, func(j int) error {
		var cnt int64
		var lcs []int
		err := scanBrick(ctx, s, m, bk.Piece(scan[j], lo, hi), func(g int, v float64) {
			if match(v) {
				cnt++
				if k > 0 && len(lcs) < k {
					lcs = append(lcs, g)
				}
			}
		})
		counts[j] = cnt
		brickLocs[j] = lcs
		return err
	})
	if err != nil {
		return nil, err
	}
	for j := range scan {
		res.Count += counts[j]
		locs = append(locs, brickLocs[j]...)
	}
	res.BricksDecoded = len(scan)
	if k > 0 {
		// Each brick contributed its first-k matches in ascending global
		// order, so the global first-k are within the union: sort and cut.
		sort.Ints(locs)
		if len(locs) > k {
			locs = locs[:k]
		}
		res.Locations = make([][]int, len(locs))
		for i, g := range locs {
			res.Locations[i] = coordsOf(g, dims)
		}
		res.Truncated = res.Count > int64(len(locs))
	}
	return res, nil
}

// queryExtremum evaluates min/max by branch and bound: bricks sort by the
// best value their statistics allow (max+eb for a max query), and decode
// in that order until the next bound cannot beat — or tie, which matters
// for the row-major-first Arg — the best value found. Bricks with any
// non-finite flag or no statistics bound at +Inf and decode first. NaN
// samples are never candidates; ±Inf are.
func queryExtremum(ctx context.Context, s *Store, m *manifest, req QueryRequest, lo, hi []int) (*QueryResult, error) {
	eb := m.hdr.bound
	sgn := 1.0
	if req.Op == QueryMin {
		sgn = -1
	}
	bk := m.hdr.bricks()
	res := &QueryResult{Op: req.Op}
	obsv := stageObserverFrom(ctx)
	type cand struct {
		bi    int
		bound float64 // upper bound on sgn*v over the brick's decoded values
	}
	var cands []cand
	it := bk.Pieces(lo, hi)
	for it.Next() {
		st := m.bricks[it.Index].stat
		b := math.Inf(1) // unknown: must decode
		if prunable(st) {
			if sgn > 0 {
				b = st.Max + eb
			} else {
				b = eb - st.Min // == sgn*(Min-eb)
			}
		}
		cands = append(cands, cand{bi: it.Index, bound: b})
	}
	res.BricksTotal = len(cands)
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].bound != cands[j].bound {
			return cands[i].bound > cands[j].bound
		}
		return cands[i].bi < cands[j].bi
	})

	found := false
	var bestS, bestV float64 // bestS = sgn*bestV
	bestIdx := -1
	for i, c := range cands {
		if found && c.bound < bestS {
			// No remaining brick can reach bestS (bounds are sorted), and a
			// strictly smaller bound cannot even tie, so the row-major-first
			// Arg is settled too. Equal bounds keep decoding: a tie at a
			// smaller row-major position must win.
			for _, rest := range cands[i:] {
				notePrune(s, m, res, obsv, rest.bi)
			}
			break
		}
		err := scanBrick(ctx, s, m, bk.Piece(c.bi, lo, hi), func(g int, v float64) {
			if math.IsNaN(v) {
				return
			}
			sv := sgn * v
			if !found || sv > bestS || (sv == bestS && g < bestIdx) {
				found, bestS, bestV, bestIdx = true, sv, v, g
			}
		})
		if err != nil {
			return nil, err
		}
		res.BricksDecoded++
	}
	if found {
		res.Found = true
		res.Value = bestV
		res.Arg = coordsOf(bestIdx, m.hdr.dims)
	}
	return res, nil
}

// queryHist evaluates a histogram. The per-value binning function is
// monotone in v, so an all-finite brick whose whole decoded interval
// [Min-eb, Max+eb] classifies to one bin (or wholly below/above the
// range) is counted geometrically; every other brick is decoded with the
// same function the pruned path's endpoints went through — pruned and
// scanned bricks can never disagree on a bin edge.
func queryHist(ctx context.Context, s *Store, m *manifest, req QueryRequest, lo, hi []int) (*QueryResult, error) {
	eb := m.hdr.bound
	l, h, nbins := req.Low, req.High, req.Bins
	width := (h - l) / float64(nbins)
	// classify maps a non-NaN value to -1 (below), 0..nbins-1 (bin), or
	// nbins (at or above High). Monotone nondecreasing in v.
	classify := func(v float64) int {
		if v < l {
			return -1
		}
		if v >= h {
			return nbins
		}
		f := (v - l) / width
		if math.IsNaN(f) || f >= float64(nbins) {
			// Degenerate width (High-Low underflows against nbins) or edge
			// rounding: clamp into the top bin, consistently for every path.
			return nbins - 1
		}
		return int(f)
	}

	bk := m.hdr.bricks()
	nd := bk.Rank
	res := &QueryResult{Op: req.Op, Bins: make([]int64, nbins)}
	obsv := stageObserverFrom(ctx)
	var scan []int
	it := bk.Pieces(lo, hi)
	for it.Next() {
		res.BricksTotal++
		bi := it.Index
		st := m.bricks[bi].stat
		if prunable(st) {
			cLo, cHi := classify(st.Min-eb), classify(st.Max+eb)
			if cLo == cHi {
				n := int64(boxPoints(it.Lo[:nd], it.Hi[:nd]))
				switch {
				case cLo < 0:
					res.Below += n
				case cLo >= nbins:
					res.Above += n
				default:
					res.Bins[cLo] += n
				}
				notePrune(s, m, res, obsv, bi)
				continue
			}
		}
		scan = append(scan, bi)
	}

	var mu sync.Mutex
	err := pool.RunErr(ctx, len(scan), s.workers, func(j int) error {
		bins := make([]int64, nbins)
		var below, above, nan int64
		err := scanBrick(ctx, s, m, bk.Piece(scan[j], lo, hi), func(_ int, v float64) {
			if math.IsNaN(v) {
				nan++
				return
			}
			switch c := classify(v); {
			case c < 0:
				below++
			case c >= nbins:
				above++
			default:
				bins[c]++
			}
		})
		if err != nil {
			return err
		}
		mu.Lock()
		for i, n := range bins {
			res.Bins[i] += n
		}
		res.Below += below
		res.Above += above
		res.NaNCount += nan
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.BricksDecoded = len(scan)
	for _, n := range res.Bins {
		res.Count += n
	}
	return res, nil
}

// scanBrick decodes piece p's brick (through the cache) and calls point
// for every sample of the piece, in ascending global row-major order, with
// the sample's global row-major linear index. This is the one place a
// query dispatches on the store's sample kind; float32 samples widen
// losslessly.
func scanBrick(ctx context.Context, s *Store, m *manifest, p grid.Piece, point func(g int, v float64)) error {
	if m.hdr.kind == kindFloat64 {
		return scanBrickOf[float64](ctx, s, m, &p, point)
	}
	return scanBrickOf[float32](ctx, s, m, &p, point)
}

func scanBrickOf[N qoz.Float](ctx context.Context, s *Store, m *manifest, p *grid.Piece, point func(g int, v float64)) error {
	data, err := brick[N](ctx, s, m, p.Index, 0)
	if err != nil {
		return err
	}
	nd := len(m.hdr.dims)
	size, bdims, inBrick := grid.Sub(p.Hi[:], p.Lo[:]), grid.Sub(p.BHi[:], p.BLo[:]), grid.Sub(p.Lo[:], p.BLo[:])
	w := grid.Walk(size[:nd], bdims[:nd], inBrick[:nd], 1, m.hdr.dims, p.Lo[:nd])
	for w.Next() {
		for j := 0; j < w.Run; j++ {
			point(w.B+j, float64(data[w.A+j]))
		}
	}
	return nil
}

// appendBoxIndices appends the global row-major linear indices of the
// first `limit` points of box [ilo, ihi), ascending. Used for the
// locations of all-in pruned bricks, whose matches are pure geometry.
func appendBoxIndices(dst []int, dims, ilo, ihi []int, limit int) []int {
	size := grid.Sub(ihi, ilo)
	taken := 0
	w := grid.Walk(size[:len(dims)], dims, ilo, 1, dims, ilo)
	for taken < limit && w.Next() {
		for j := 0; j < w.Run && taken < limit; j++ {
			dst = append(dst, w.B+j)
			taken++
		}
	}
	return dst
}

// coordsOf converts a global row-major linear index back to coordinates.
func coordsOf(idx int, dims []int) []int {
	c := make([]int, len(dims))
	for k := len(dims) - 1; k >= 0; k-- {
		c[k] = idx % dims[k]
		idx /= dims[k]
	}
	return c
}
