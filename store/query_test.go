package store

// Differential harness for predicate pushdown: every Store.Query answer
// must be bit-identical to a brute-force scan of the fully decoded box —
// the oracle here reimplements the query semantics over a plain []float64
// with none of the pruning machinery, so an index that prunes one brick
// too many cannot hide. The property runs across dtypes, ranks, mutable
// generations (append, rewrite, compact, time travel), and remote stores,
// with NaN/±Inf injected and thresholds placed exactly on the error-bound
// boundaries the pruning rules compare against.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"qoz"
)

// qOracle answers req by brute force over the decoded field, sharing no
// code with Store.Query beyond the QueryRequest/QueryResult types.
func qOracle(vals []float64, dims []int, req QueryRequest) *QueryResult {
	lo, hi := req.Lo, req.Hi
	if lo == nil && hi == nil {
		lo = make([]int, len(dims))
		hi = dims
	}
	k := req.MaxLocations
	if k < 0 {
		k = 0
	}
	res := &QueryResult{Op: req.Op}
	sgn := 1.0
	if req.Op == QueryMin {
		sgn = -1
	}
	var match func(float64) bool
	switch req.Op {
	case QueryGT:
		match = func(v float64) bool { return v > req.Value }
	case QueryLT:
		match = func(v float64) bool { return v < req.Value }
	case QueryRange:
		match = func(v float64) bool { return v >= req.Low && v < req.High }
	case QueryHist:
		res.Bins = make([]int64, req.Bins)
	}
	width := (req.High - req.Low) / float64(req.Bins)
	classify := func(v float64) int {
		if v < req.Low {
			return -1
		}
		if v >= req.High {
			return req.Bins
		}
		f := (v - req.Low) / width
		if math.IsNaN(f) || f >= float64(req.Bins) {
			return req.Bins - 1
		}
		return int(f)
	}

	var locs [][]int
	found := false
	var bestS float64
	st := strides(dims)
	cur := append([]int(nil), lo...)
	for {
		g := 0
		for i, c := range cur {
			g += c * st[i]
		}
		v := vals[g]
		switch req.Op {
		case QueryGT, QueryLT, QueryRange:
			if match(v) {
				res.Count++
				if len(locs) < k {
					locs = append(locs, append([]int(nil), cur...))
				}
			}
		case QueryMin, QueryMax:
			if !math.IsNaN(v) {
				if sv := sgn * v; !found || sv > bestS {
					found, bestS = true, sv
					res.Found, res.Value = true, v
					res.Arg = append([]int(nil), cur...)
				}
			}
		case QueryHist:
			switch {
			case math.IsNaN(v):
				res.NaNCount++
			default:
				switch c := classify(v); {
				case c < 0:
					res.Below++
				case c >= req.Bins:
					res.Above++
				default:
					res.Bins[c]++
					res.Count++
				}
			}
		}
		i := len(cur) - 1
		for ; i >= 0; i-- {
			cur[i]++
			if cur[i] < hi[i] {
				break
			}
			cur[i] = lo[i]
		}
		if i < 0 {
			break
		}
	}
	if k > 0 {
		res.Locations = locs
		res.Truncated = res.Count > int64(len(locs))
	}
	return res
}

// qDiff fails unless got and want agree on every semantic field. The
// pruning counters are excluded — they are exactly what may differ — but
// are sanity-checked against the box.
func qDiff(t *testing.T, label string, got, want *QueryResult) {
	t.Helper()
	if got.Op != want.Op || got.Count != want.Count || got.Truncated != want.Truncated ||
		got.Found != want.Found || got.Below != want.Below || got.Above != want.Above ||
		got.NaNCount != want.NaNCount {
		t.Fatalf("%s: query disagrees with the full-decode oracle:\ngot  %+v\nwant %+v", label, got, want)
	}
	if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
		t.Fatalf("%s: extremum %v (bits %016x), oracle %v (bits %016x)",
			label, got.Value, math.Float64bits(got.Value), want.Value, math.Float64bits(want.Value))
	}
	if !slices.Equal(got.Arg, want.Arg) {
		t.Fatalf("%s: extremum at %v, oracle at %v", label, got.Arg, want.Arg)
	}
	if len(got.Locations) != len(want.Locations) {
		t.Fatalf("%s: %d locations, oracle %d", label, len(got.Locations), len(want.Locations))
	}
	for i := range got.Locations {
		if !slices.Equal(got.Locations[i], want.Locations[i]) {
			t.Fatalf("%s: location %d = %v, oracle %v", label, i, got.Locations[i], want.Locations[i])
		}
	}
	if len(got.Bins) != len(want.Bins) {
		t.Fatalf("%s: %d bins, oracle %d", label, len(got.Bins), len(want.Bins))
	}
	for i := range got.Bins {
		if got.Bins[i] != want.Bins[i] {
			t.Fatalf("%s: bin %d = %d, oracle %d", label, i, got.Bins[i], want.Bins[i])
		}
	}
	if got.BricksPruned < 0 || got.BricksDecoded < 0 || got.BricksPruned+got.BricksDecoded > got.BricksTotal {
		t.Fatalf("%s: impossible pruning accounting %d+%d of %d", label, got.BricksPruned, got.BricksDecoded, got.BricksTotal)
	}
}

// qSynth builds a field with deliberate pruning structure: a smooth base,
// a stepped offset so distinct bricks occupy distinct value bands, and —
// when nonFinite > 0 — that many NaN/+Inf/-Inf points scattered in.
func qSynth(rng *rand.Rand, n, nonFinite int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Sin(float64(i)/9)*0.4 + 3*math.Floor(8*float64(i)/float64(n))
	}
	for j := 0; j < nonFinite; j++ {
		v := math.NaN()
		switch j % 3 {
		case 1:
			v = math.Inf(1)
		case 2:
			v = math.Inf(-1)
		}
		vals[rng.Intn(n)] = v
	}
	return vals
}

// qRandBox picks a random non-empty sub-box, or the whole field.
func qRandBox(rng *rand.Rand, dims []int) (lo, hi []int) {
	if rng.Intn(3) == 0 {
		return nil, nil
	}
	lo = make([]int, len(dims))
	hi = make([]int, len(dims))
	for i, d := range dims {
		a, b := rng.Intn(d), rng.Intn(d)
		if a > b {
			a, b = b, a
		}
		lo[i], hi[i] = a, b+1
	}
	return lo, hi
}

// qRandRequests draws nreq randomized requests whose thresholds mix
// sampled field values with exact error-bound boundaries of random brick
// statistics — the values the pruning comparisons are written against.
func qRandRequests(rng *rand.Rand, s *Store, vals []float64, dims []int, eb float64, nreq int) []QueryRequest {
	var pool []float64
	for len(pool) < 24 {
		v := vals[rng.Intn(len(vals))]
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			pool = append(pool, v+rng.NormFloat64()*0.1)
		}
	}
	if s.HasBrickStats() {
		for b := 0; b < s.NumBricks(); b++ {
			st, ok := s.BrickStats(b)
			if !ok || rng.Intn(4) != 0 {
				continue
			}
			pool = append(pool, st.Min, st.Max, st.Min-eb, st.Max+eb, st.Min+eb, st.Max-eb)
		}
	}
	pick := func() float64 { return pool[rng.Intn(len(pool))] }
	reqs := make([]QueryRequest, 0, nreq)
	for len(reqs) < nreq {
		lo, hi := qRandBox(rng, dims)
		var q QueryRequest
		switch rng.Intn(6) {
		case 0:
			q = QueryRequest{Op: QueryGT, Value: pick(), MaxLocations: []int{0, 3, 1 << 20}[rng.Intn(3)]}
		case 1:
			q = QueryRequest{Op: QueryLT, Value: pick(), MaxLocations: rng.Intn(5)}
		case 2:
			a, b := pick(), pick()
			if a == b {
				b = a + 1
			}
			if a > b {
				a, b = b, a
			}
			q = QueryRequest{Op: QueryRange, Low: a, High: b, MaxLocations: rng.Intn(8)}
		case 3:
			q = QueryRequest{Op: QueryMin}
		case 4:
			q = QueryRequest{Op: QueryMax}
		default:
			a, b := pick(), pick()
			if a == b {
				b = a + 1
			}
			if a > b {
				a, b = b, a
			}
			q = QueryRequest{Op: QueryHist, Low: a, High: b, Bins: 1 + rng.Intn(16)}
		}
		q.Lo, q.Hi = lo, hi
		reqs = append(reqs, q)
	}
	return reqs
}

// qRunDiff decodes the store's full field as the oracle input, then runs
// every request both ways and compares. Returns the bricks pruned across
// the batch so callers can assert the index actually worked.
func qRunDiff(t *testing.T, label string, s *Store, rng *rand.Rand, nreq int) int {
	t.Helper()
	ctx := context.Background()
	vals, err := ReadFieldT[float64](ctx, s)
	if err != nil {
		t.Fatalf("%s: full decode: %v", label, err)
	}
	dims := s.Dims()
	eb := s.bound()
	pruned := 0
	for i, req := range qRandRequests(rng, s, vals, dims, eb, nreq) {
		got, err := s.Query(ctx, req)
		if err != nil {
			t.Fatalf("%s: request %d (%+v): %v", label, i, req, err)
		}
		qDiff(t, label, got, qOracle(vals, dims, req))
		pruned += got.BricksPruned
	}
	return pruned
}

// bound exposes the resolved absolute error bound to the harness.
func (s *Store) bound() float64 { return s.man.Load().hdr.bound }

// TestQueryDifferential is the acceptance property: across dtypes, ranks,
// non-finite payloads, and store variants, Query == oracle. The write-once
// f32 store must also demonstrate nonzero pruning, or the index under test
// was never exercised.
func TestQueryDifferential(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name      string
		dims      []int
		brick     []int
		nonFinite int
		codec     string // "" selects the default, which stops at rank 4
	}{
		{"1d-f32", []int{97}, []int{16}, 0, ""},
		{"2d-f32-nonfinite", []int{23, 17}, []int{8, 8}, 9, ""},
		{"3d-f32", []int{12, 12, 12}, []int{8, 8, 8}, 0, ""},
		{"3d-f32-nonfinite", []int{16, 12, 12}, []int{4, 8, 8}, 24, ""},
		{"8d-f32-nonfinite", rank8Dims, rank8Brick, 12, "sz3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			n := 1
			for _, d := range tc.dims {
				n *= d
			}
			data := make([]float32, n)
			for i, v := range qSynth(rng, n, tc.nonFinite) {
				data[i] = float32(v)
			}
			wo := WriteOptions{Opts: qoz.Options{ErrorBound: 1e-3}, Brick: tc.brick}
			if tc.codec != "" {
				wo.Codec = qoz.MustLookup(tc.codec)
			}
			var buf bytes.Buffer
			if err := Write(ctx, &buf, data, tc.dims, wo); err != nil {
				t.Fatal(err)
			}
			s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if pruned := qRunDiff(t, tc.name, s, rng, 60); pruned == 0 {
				t.Fatal("no brick was ever pruned: the statistics index was not exercised")
			}
		})
	}

	t.Run("3d-f64-nonfinite", func(t *testing.T) {
		rng := rand.New(rand.NewSource(64))
		dims := []int{16, 12, 12}
		data := qSynth(rng, 16*12*12, 30)
		var buf bytes.Buffer
		if err := WriteT(ctx, &buf, data, dims, WriteOptions{
			Opts: qoz.Options{ErrorBound: 1e-3}, Brick: []int{8, 8, 8},
		}); err != nil {
			t.Fatal(err)
		}
		s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if pruned := qRunDiff(t, "3d-f64", s, rng, 60); pruned == 0 {
			t.Fatal("no brick was ever pruned: the statistics index was not exercised")
		}
	})
}

// TestQueryDifferentialMutable holds the property through a mutable
// store's life: after every append, a rewrite, a compact, and back in
// time through Options.Generation.
func TestQueryDifferentialMutable(t *testing.T) {
	const ny, nx = 16, 24
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	m, path := newTestMutable(t, 4, ny, nx)
	for step := 0; step < 3; step++ {
		rows := make([]float32, 2*ny*nx)
		for i, v := range qSynth(rng, len(rows), 4) {
			rows[i] = float32(v)
		}
		if err := AppendStepsT(ctx, m, rows); err != nil {
			t.Fatalf("append %d: %v", step, err)
		}
		qRunDiff(t, "after-append", m.Store, rng, 25)
	}
	re := make([]float32, 4*ny*nx)
	for i, v := range qSynth(rng, len(re), 0) {
		re[i] = float32(v)
	}
	if err := m.RewriteBricks(ctx, []int{0, 0, 0}, []int{4, ny, nx}, re); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	qRunDiff(t, "after-rewrite", m.Store, rng, 25)
	if err := m.Compact(ctx); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if pruned := qRunDiff(t, "after-compact", m.Store, rng, 25); pruned == 0 {
		t.Fatal("compacted store pruned nothing: statistics were lost in the copy")
	}
	gen := m.Generation()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	old, err := OpenFile(path, Options{Generation: gen})
	if err != nil {
		t.Fatalf("time travel to generation %d: %v", gen, err)
	}
	defer old.Close()
	qRunDiff(t, "time-travel", old, rng, 25)
}

// TestQueryDifferentialRemote holds the property over OpenURL: pruning
// decisions come from the ranged-fetched manifest, decodes fetch brick
// ranges on demand.
func TestQueryDifferentialRemote(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	dims := []int{16, 12, 12}
	data := make([]float32, 16*12*12)
	for i, v := range qSynth(rng, len(data), 6) {
		data[i] = float32(v)
	}
	var buf bytes.Buffer
	if err := Write(ctx, &buf, data, dims, WriteOptions{
		Opts: qoz.Options{ErrorBound: 1e-3}, Brick: []int{8, 8, 8},
	}); err != nil {
		t.Fatal(err)
	}
	content := buf.Bytes()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("ETag", `"q1"`)
		http.ServeContent(w, req, "field.qozb", time.Unix(1700000000, 0), bytes.NewReader(content))
	}))
	defer srv.Close()
	s, err := OpenURL(srv.URL, Options{})
	if err != nil {
		t.Fatalf("OpenURL: %v", err)
	}
	defer s.Close()
	if pruned := qRunDiff(t, "remote", s, rng, 40); pruned == 0 {
		t.Fatal("remote store pruned nothing: statistics index unavailable over HTTP")
	}
}

var updateQueryGolden = flag.Bool("update-query-golden", false,
	"rewrite testdata/query_golden.txt from the current Store.Query")

// qGoldenField is the deterministic input of TestQueryGolden: qSynth's
// banded field without the random draws, with NaN, +Inf and -Inf planted
// in three bricks so some bricks are never prunable.
func qGoldenField(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Sin(float64(i)/9)*0.4 + 3*math.Floor(8*float64(i)/float64(n))
	}
	vals[5], vals[n/3], vals[n/2+7] = math.NaN(), math.Inf(1), math.Inf(-1)
	vals[n-1] = math.NaN()
	return vals
}

// TestQueryGolden pins every Store.Query answer on a fixed float32 and
// float64 store — every op, the whole field and two boxes, no and five
// locations — as the result's JSON, pruning counters included, so a
// change to the scan can alter neither an answer nor which bricks it
// decodes. Regenerate with -update-query-golden only when a pruning
// decision is meant to change.
func TestQueryGolden(t *testing.T) {
	ctx := context.Background()
	dims := []int{16, 12, 12}
	field := qGoldenField(16 * 12 * 12)
	var out bytes.Buffer
	for _, kind := range []string{"f32", "f64"} {
		wo := WriteOptions{Opts: qoz.Options{ErrorBound: 1e-3}, Brick: []int{4, 8, 8}}
		var buf bytes.Buffer
		var err error
		if kind == "f32" {
			data := make([]float32, len(field))
			for i, v := range field {
				data[i] = float32(v)
			}
			err = Write(ctx, &buf, data, dims, wo)
		} else {
			err = WriteT(ctx, &buf, field, dims, wo)
		}
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{CacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		st, ok := s.BrickStats(1)
		if !ok {
			t.Fatal("brick 1 carries no statistics")
		}
		eb := s.bound()
		ops := []QueryRequest{
			{Op: QueryGT, Value: 10},
			{Op: QueryGT, Value: st.Max + eb},
			{Op: QueryGT, Value: st.Min - eb},
			{Op: QueryLT, Value: 4.5},
			{Op: QueryLT, Value: st.Min - eb},
			{Op: QueryLT, Value: st.Max + eb},
			{Op: QueryRange, Low: 2.8, High: 9.1},
			{Op: QueryRange, Low: st.Min - eb, High: st.Max + eb},
			{Op: QueryMin},
			{Op: QueryMax},
			{Op: QueryHist, Low: 0, High: 24, Bins: 6},
			{Op: QueryHist, Low: 1.3, High: 7.7, Bins: 5},
			{Op: QueryHist, Low: st.Min - eb, High: st.Max + eb, Bins: 1},
		}
		boxes := []struct {
			name   string
			lo, hi []int
		}{
			{"whole", nil, nil},
			{"a", []int{1, 2, 3}, []int{15, 11, 10}},
			{"b", []int{4, 0, 0}, []int{12, 12, 8}},
		}
		for _, op := range ops {
			for _, b := range boxes {
				for _, k := range []int{0, 5} {
					req := op
					req.Lo, req.Hi, req.MaxLocations = b.lo, b.hi, k
					res, err := s.Query(ctx, req)
					if err != nil {
						t.Fatalf("%s %+v: %v", kind, req, err)
					}
					js, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&out, "%s %s value=%g low=%g high=%g bins=%d box=%s maxloc=%d\t%s\n",
						kind, req.Op, req.Value, req.Low, req.High, req.Bins, b.name, k, js)
				}
			}
		}
		s.Close()
	}
	path := filepath.Join("testdata", "query_golden.txt")
	if *updateQueryGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("query golden missing (record it with -update-query-golden): %v", err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("query golden line %d:\ngot  %s\nwant %s", i+1, g, w)
		}
	}
}

// qFuzzStore is one store of FuzzQuery's table with its decoded field,
// the oracle's input.
type qFuzzStore struct {
	s    *Store
	vals []float64
	dims []int
}

// qFuzzStores builds TestQueryDifferential's stores: its write-once cases
// (ranks 1 to 8, NaN and ±Inf injected) and its float64 one.
func qFuzzStores(f *testing.F) []qFuzzStore {
	ctx := context.Background()
	cases := []struct {
		dims, brick []int
		nonFinite   int
		codec       string
		f64         bool
	}{
		{[]int{97}, []int{16}, 0, "", false},
		{[]int{23, 17}, []int{8, 8}, 9, "", false},
		{[]int{12, 12, 12}, []int{8, 8, 8}, 0, "", false},
		{[]int{16, 12, 12}, []int{4, 8, 8}, 24, "", false},
		{rank8Dims, rank8Brick, 12, "sz3", false},
		{[]int{16, 12, 12}, []int{8, 8, 8}, 30, "", true},
	}
	var out []qFuzzStore
	for i, tc := range cases {
		rng := rand.New(rand.NewSource(int64(i)))
		n := 1
		for _, d := range tc.dims {
			n *= d
		}
		field := qSynth(rng, n, tc.nonFinite)
		wo := WriteOptions{Opts: qoz.Options{ErrorBound: 1e-3}, Brick: tc.brick}
		if tc.codec != "" {
			wo.Codec = qoz.MustLookup(tc.codec)
		}
		var buf bytes.Buffer
		var err error
		if tc.f64 {
			err = WriteT(ctx, &buf, field, tc.dims, wo)
		} else {
			data := make([]float32, n)
			for j, v := range field {
				data[j] = float32(v)
			}
			err = Write(ctx, &buf, data, tc.dims, wo)
		}
		if err != nil {
			f.Fatal(err)
		}
		s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { s.Close() })
		vals, err := ReadFieldT[float64](ctx, s)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, qFuzzStore{s: s, vals: vals, dims: tc.dims})
	}
	return out
}

// FuzzQuery holds Store.Query to the brute-force oracle of
// TestQueryDifferential over a random op, box, value, range and bin
// count on every store of that test. Requests CheckQuery refuses must
// fail in Query too. Seeds put thresholds on the error-bound edges
// of brick statistics, where the pruning comparisons are written.
func FuzzQuery(f *testing.F) {
	stores := qFuzzStores(f)
	ops := []string{QueryGT, QueryLT, QueryRange, QueryMin, QueryMax, QueryHist}
	for i, fx := range stores {
		st, _ := fx.s.BrickStats(0)
		eb := fx.s.bound()
		for j := range ops {
			f.Add(uint8(i), uint8(j), int64(i+j), st.Max+eb, st.Min-eb, st.Max+eb, uint8(1+j), uint8(j))
			f.Add(uint8(i), uint8(j), int64(-i-j), 9.5, 2.0, 14.0, uint8(7), uint8(0))
		}
	}
	f.Fuzz(func(t *testing.T, store, op uint8, box int64, value, low, high float64, bins, maxloc uint8) {
		fx := stores[int(store)%len(stores)]
		req := QueryRequest{Op: ops[int(op)%len(ops)], Value: value, Low: low, High: high, Bins: int(bins), MaxLocations: int(maxloc)}
		req.Lo, req.Hi = qRandBox(rand.New(rand.NewSource(box)), fx.dims)
		got, err := fx.s.Query(context.Background(), req)
		norm, cerr := CheckQuery(req)
		if cerr != nil {
			if err == nil {
				t.Fatalf("Query answered %+v, which CheckQuery refuses: %v", req, cerr)
			}
			return
		}
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		// The oracle reads the request as CheckQuery keeps it: locations
		// only for thresholds.
		qDiff(t, fmt.Sprintf("%+v", req), got, qOracle(fx.vals, fx.dims, norm))
	})
}
