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
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"qoz"
	"qoz/internal/grid"
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

// CheckQuery is the one statement of which parameters each op takes:
// Value for gt and lt; Low < High for range and hist; Bins for hist;
// MaxLocations (non-negative) for the thresholds. It returns req with its
// box and only its op's parameters kept, the others zeroed, or an error
// naming the parameter that is missing or invalid — a missing value
// arrives as NaN. The box is checked against the field by Query.
func CheckQuery(req QueryRequest) (QueryRequest, error) {
	out := QueryRequest{Lo: req.Lo, Hi: req.Hi, Op: req.Op}
	if req.MaxLocations < 0 {
		return out, fmt.Errorf("store: query maxloc must be non-negative, got %d", req.MaxLocations)
	}
	finite := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("store: query op %q needs a finite %s, got %g", req.Op, name, v)
		}
		return nil
	}
	span := func() error {
		if err := cmp.Or(finite("low", req.Low), finite("high", req.High)); err != nil || req.Low < req.High {
			return err
		}
		return fmt.Errorf("store: query needs low < high, got [%g, %g)", req.Low, req.High)
	}
	var err error
	switch req.Op {
	case QueryGT, QueryLT:
		out.Value, out.MaxLocations = req.Value, req.MaxLocations
		err = finite("value", req.Value)
	case QueryRange:
		out.Low, out.High, out.MaxLocations = req.Low, req.High, req.MaxLocations
		err = span()
	case QueryHist:
		out.Low, out.High, out.Bins = req.Low, req.High, req.Bins
		if err = span(); err == nil && (req.Bins < 1 || req.Bins > MaxQueryBins) {
			err = fmt.Errorf("store: histogram needs 1..%d bins, got %d", MaxQueryBins, req.Bins)
		}
	case QueryMin, QueryMax:
	default:
		err = fmt.Errorf("store: unknown query op %q (want gt, lt, range, min, max, or hist)", req.Op)
	}
	return out, err
}

// Query answers a pushdown query over the current generation, decoding
// only the bricks the statistics index cannot resolve. Thresholds and
// results are float64 regardless of the store's element type (float32
// samples widen losslessly), so Query serves both sample kinds. Results
// are exact: identical to evaluating the predicate over a full
// decode of the box. A store without statistics (a legacy v1/v2/v4 file,
// a journal from before the extension, a corrupt statistics block) is
// handled by decoding every intersecting brick. The whole query is served
// from one manifest snapshot: a commit landing mid-query is never mixed
// in.
func (s *Store) Query(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	req, err := CheckQuery(req)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m := s.man.Load()
	lo, hi := req.Lo, req.Hi
	if lo == nil && hi == nil {
		lo, hi = make([]int, len(m.hdr.dims)), m.hdr.dims
	}
	if err := grid.CheckBox("store: query box", m.hdr.dims, lo, hi); err != nil {
		return nil, err
	}
	if req.Op == QueryMin || req.Op == QueryMax {
		return queryExtremum(ctx, s, m, req, lo, hi)
	}
	return queryCount(ctx, s, m, req, lo, hi)
}

// prunable reports whether a record can support any pruning decision at
// all: it must be valid and the brick all-finite. Bricks holding NaN or
// ±Inf are always decoded — the flags record presence, not count or
// position, and exactness beats a marginally better prune rate.
func prunable(st brickStat) bool {
	return st.valid && !st.HasNaN && !st.HasPosInf && !st.HasNegInf && st.Finite == st.Count
}

// notePrune records one brick resolved without decoding: the store
// counter, and the stage observer (bytes = the payload size NOT read).
func notePrune(s *Store, m *manifest, obsv StageObserver, bi int) {
	s.pruned.Add(1)
	if obsv != nil {
		obsv(StageStatPrune, 0, m.bricks[bi].len)
	}
}

// counter is a count query's classifier: classify maps a non-NaN value to
// a class in 0..classes-1, nondecreasing in v, and match is the class a
// threshold counts and locates (-1 for a histogram, which reports every
// class: below, the bins, above).
type counter struct {
	classes, match int
	classify       func(v float64) int
}

func newCounter(req QueryRequest) counter {
	x, l, h := req.Value, req.Low, req.High
	switch req.Op {
	case QueryGT: // no match, match
		return counter{2, 1, func(v float64) int { return b2i(v > x) }}
	case QueryLT: // match, no match
		return counter{2, 0, func(v float64) int { return b2i(v >= x) }}
	case QueryRange: // below, in, above
		return counter{3, 1, func(v float64) int { return b2i(v >= l) + b2i(v >= h) }}
	}
	nbins := req.Bins
	width := (h - l) / float64(nbins)
	return counter{nbins + 2, -1, func(v float64) int {
		if v < l {
			return 0
		}
		if v >= h {
			return nbins + 1
		}
		f := (v - l) / width
		if math.IsNaN(f) || f >= float64(nbins) {
			// Degenerate width (High-Low underflows against nbins) or edge
			// rounding: clamp into the top bin, consistently for every path.
			return nbins
		}
		return 1 + int(f)
	}}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// result is the partial answer of one tally: per-class counts, NaN
// samples, and the match class's first locations as ascending global
// row-major indices.
func (c counter) result(req QueryRequest, dims []int, cls []int64, nan int64, locs []int) *QueryResult {
	res := &QueryResult{Op: req.Op}
	if c.match >= 0 {
		res.Count = cls[c.match]
		for _, g := range locs {
			res.Locations = append(res.Locations, coordsOf(g, dims))
		}
		return res
	}
	res.Below, res.Bins, res.Above, res.NaNCount = cls[0], cls[1:c.classes-1], cls[c.classes-1], nan
	for _, n := range res.Bins {
		res.Count += n
	}
	return res
}

// queryCount is the one pruned count scan behind gt, lt, range, and hist.
// The classifier is monotone, and decoded values lie within eb of the
// originals the statistics summarize, so an all-finite brick whose whole
// decoded interval [Min-eb, Max+eb] classifies to one class is counted
// from geometry (its match-class locations too); every other brick is
// decoded, concurrently on the worker pool, with the same classifier — a
// pruned and a scanned brick can never disagree on an edge. Decoded bricks
// fold into per-worker tallies, so a fine histogram costs workers × bins,
// not decoded bricks × bins; the pruned tally and each worker's fold
// through MergeQueryResults.
func queryCount(ctx context.Context, s *Store, m *manifest, req QueryRequest, lo, hi []int) (*QueryResult, error) {
	eb, dims, k := m.hdr.bound, m.hdr.dims, req.MaxLocations
	bk := m.hdr.bricks()
	nd := bk.Rank
	c := newCounter(req)
	obsv := stageObserverFrom(ctx)
	cls := make([]int64, c.classes) // the pruned bricks' tally
	var locs, scan []int            // a piece is rebuilt where it is scanned
	pruned := 0
	it := bk.Pieces(lo, hi)
	for it.Next() {
		bi := it.Index
		if st := m.bricks[bi].stat; prunable(st) {
			if cl := c.classify(st.Min - eb); cl == c.classify(st.Max+eb) {
				cls[cl] += int64(boxPoints(it.Lo[:nd], it.Hi[:nd]))
				if cl == c.match {
					// Each brick's first k: the merge sorts and cuts.
					locs = appendBoxIndices(locs, dims, it.Lo[:nd], it.Hi[:nd], k)
				}
				pruned++
				notePrune(s, m, obsv, bi)
				continue
			}
		}
		scan = append(scan, bi)
	}
	partials := []*QueryResult{c.result(req, dims, cls, 0, locs)}
	partials[0].BricksPruned = pruned
	// A brick takes a free tally, or makes one when every tally is in use,
	// and hands it back: no more tallies exist than bricks scan at once.
	var mu sync.Mutex
	var free, all []*tally
	err := scanBricks(ctx, s, m, scan, lo, hi, func(_ int, points iter.Seq2[int, float64]) {
		mu.Lock()
		var t *tally
		if n := len(free); n > 0 {
			t, free = free[n-1], free[:n-1]
		} else {
			t = &tally{cls: make([]int64, c.classes)}
			all = append(all, t)
		}
		mu.Unlock()
		first := len(t.locs)
		for g, v := range points {
			if math.IsNaN(v) {
				t.nan++
				continue
			}
			cl := c.classify(v)
			t.cls[cl]++
			if cl == c.match && len(t.locs)-first < k {
				t.locs = append(t.locs, g)
			}
		}
		if len(t.locs) > k {
			// The first k of its bricks' matches, as each brick's are.
			slices.Sort(t.locs)
			t.locs = t.locs[:k]
		}
		t.bricks++
		mu.Lock()
		free = append(free, t)
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	for _, t := range all {
		p := c.result(req, dims, t.cls, t.nan, t.locs)
		p.BricksDecoded = t.bricks
		partials = append(partials, p)
	}
	res := MergeQueryResults(req, partials)
	res.BricksTotal = res.BricksPruned + res.BricksDecoded
	return res, nil
}

// tally is a running count over the decoded bricks of a count scan: per
// class, NaN samples, and the match class's first locations as global
// row-major indices (at most MaxLocations, unordered; the merge sorts).
type tally struct {
	cls    []int64
	nan    int64
	locs   []int
	bricks int
}

// queryExtremum evaluates min/max by branch and bound: bricks sort by the
// best value their statistics allow (max+eb for a max query), and decode
// in that order until the next bound cannot beat — or tie, which matters
// for the row-major-first Arg — the best value found. Each decoded brick's
// best folds into the answer through MergeQueryResults. Bricks with any
// non-finite flag or no statistics bound at +Inf and decode first. NaN
// samples are never candidates; ±Inf are.
func queryExtremum(ctx context.Context, s *Store, m *manifest, req QueryRequest, lo, hi []int) (*QueryResult, error) {
	eb := m.hdr.bound
	sgn := 1.0
	if req.Op == QueryMin {
		sgn = -1
	}
	bk := m.hdr.bricks()
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
			b = max(sgn*(st.Min-eb), sgn*(st.Max+eb))
		}
		cands = append(cands, cand{bi: it.Index, bound: b})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].bound != cands[j].bound {
			return cands[i].bound > cands[j].bound
		}
		return cands[i].bi < cands[j].bi
	})

	res := &QueryResult{Op: req.Op, BricksTotal: len(cands)}
	for i, c := range cands {
		if res.Found && c.bound < sgn*res.Value {
			// No remaining brick can reach the best (bounds are sorted), and
			// a strictly smaller bound cannot even tie, so the
			// row-major-first Arg is settled too. Equal bounds keep
			// decoding: a tie at a smaller row-major position must win.
			for _, rest := range cands[i:] {
				notePrune(s, m, obsv, rest.bi)
			}
			res.BricksPruned += len(cands) - i
			break
		}
		// One brick per step: the early exit above is the point. A brick's
		// points visit in ascending row-major order, so its first best
		// sample is its row-major-first one.
		p := &QueryResult{Op: req.Op, BricksDecoded: 1}
		best := 0
		err := scanBricks(ctx, s, m, []int{c.bi}, lo, hi, func(_ int, points iter.Seq2[int, float64]) {
			for g, v := range points {
				if !math.IsNaN(v) && (!p.Found || sgn*v > sgn*p.Value) {
					p.Found, p.Value, best = true, v, g
				}
			}
		})
		if err != nil {
			return nil, err
		}
		if p.Found {
			p.Arg = coordsOf(best, m.hdr.dims)
		}
		res = MergeQueryResults(req, []*QueryResult{res, p})
	}
	return res, nil
}

// MergeQueryResults folds partial answers to req over disjoint parts of
// its box into the answer over their union: it merges a store's per-brick
// partials and a gateway's per-shard ones alike. Counts, histogram bins,
// the below/above/NaN tallies and the brick counters sum; the extremum is
// the best partial value, ties resolved to the row-major-smallest
// (lexicographically smallest) coordinates; and each partial's locations
// are its row-major-first matches within its own part, so the first
// MaxLocations of the union are within their union — sort
// lexicographically and cut. Partials must hold req's bin count.
func MergeQueryResults(req QueryRequest, partials []*QueryResult) *QueryResult {
	out := &QueryResult{Op: req.Op}
	if req.Op == QueryHist {
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
func betterExtremum(op string, p, best *QueryResult) bool {
	if p.Value != best.Value {
		if op == QueryMin {
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

// scanBricks decodes the given bricks whole through one fetch plan and
// hands scan, once per brick, the samples of its piece of the box [lo, hi)
// in ascending global row-major order, each with its global row-major
// linear index. Bricks run concurrently on the worker pool. This is the
// one place a query dispatches on the store's sample kind; float32
// samples widen losslessly.
func scanBricks(ctx context.Context, s *Store, m *manifest, bricks, lo, hi []int, scan func(j int, points iter.Seq2[int, float64])) error {
	if m.hdr.kind == kindFloat64 {
		return scanBricksOf[float64](ctx, s, m, bricks, lo, hi, scan)
	}
	return scanBricksOf[float32](ctx, s, m, bricks, lo, hi, scan)
}

func scanBricksOf[N qoz.Float](ctx context.Context, s *Store, m *manifest, bricks, lo, hi []int, scan func(j int, points iter.Seq2[int, float64])) error {
	bk := m.hdr.bricks()
	nd := bk.Rank
	refs := make([]brickRef, len(bricks))
	for j, bi := range bricks {
		refs[j] = brickRef{brick: bi}
	}
	boxOf := func(int) ([]int, []int) { return lo, hi }
	return decodeBricks(ctx, s, m, refs, boxOf, func(j int, p grid.Piece, data []N) {
		size, bdims, inBrick := grid.Sub(p.Hi[:], p.Lo[:]), grid.Sub(p.BHi[:], p.BLo[:]), grid.Sub(p.Lo[:], p.BLo[:])
		scan(j, func(yield func(int, float64) bool) {
			w := grid.Walk(size[:nd], bdims[:nd], inBrick[:nd], 1, m.hdr.dims, p.Lo[:nd])
			for w.Next() {
				for i := 0; i < w.Run; i++ {
					if !yield(w.B+i, float64(data[w.A+i])) {
						return
					}
				}
			}
		})
	})
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
