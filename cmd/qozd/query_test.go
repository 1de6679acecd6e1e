package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"qoz/cluster"
	"qoz/store"
)

// queryGet fetches one /query URL and decodes the JSON aggregate.
func queryGet(t *testing.T, u string) (*http.Response, *store.QueryResult) {
	t.Helper()
	resp, body := get(t, u)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", u, resp.Status, body)
	}
	var res store.QueryResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("GET %s: decode: %v (%s)", u, err, body)
	}
	return resp, &res
}

// TestServerQueryEndpoint is the shard-side differential test: every
// query answered over HTTP must match the same store.Query run directly
// against the archive, the selective ones must actually prune, and the
// endpoint must keep the region path's validator and error contracts.
func TestServerQueryEndpoint(t *testing.T) {
	path, _ := buildStoreFile(t, t.TempDir())
	srv, err := newServer([]mount{{name: "nyx", target: path}}, serverOptions{
		CacheBytes: 32 << 20,
		MaxPoints:  1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	local, err := store.OpenFile(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	// A selective threshold straight from the statistics index: the
	// 4th-largest per-brick maximum, so only a few of the 64 bricks can
	// match and the rest must prune.
	maxes := make([]float64, 0, local.NumBricks())
	for i := 0; i < local.NumBricks(); i++ {
		st, ok := local.BrickStats(i)
		if !ok {
			t.Fatalf("brick %d: fresh store carries no statistics", i)
		}
		maxes = append(maxes, st.Max)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(maxes)))
	threshold := maxes[3]
	gv := url.QueryEscape(strconv.FormatFloat(threshold, 'g', -1, 64))

	for _, tc := range []struct {
		name  string
		query string
		req   store.QueryRequest
	}{
		{"gt whole field", "op=gt&value=" + gv,
			store.QueryRequest{Op: store.QueryGT, Value: threshold}},
		{"gt with locations", "op=gt&value=" + gv + "&maxloc=5",
			store.QueryRequest{Op: store.QueryGT, Value: threshold, MaxLocations: 5}},
		{"range in a box", "op=range&low=0.2&high=0.8&lo=4,4,4&hi=28,28,28",
			store.QueryRequest{Op: store.QueryRange, Low: 0.2, High: 0.8, Lo: []int{4, 4, 4}, Hi: []int{28, 28, 28}}},
		{"min", "op=min",
			store.QueryRequest{Op: store.QueryMin}},
		{"max in a box", "op=max&lo=8,0,8&hi=32,32,24",
			store.QueryRequest{Op: store.QueryMax, Lo: []int{8, 0, 8}, Hi: []int{32, 32, 24}}},
		{"hist", "op=hist&low=0&high=1&bins=16",
			store.QueryRequest{Op: store.QueryHist, Low: 0, High: 1, Bins: 16}},
	} {
		_, got := queryGet(t, ts.URL+"/v1/fields/nyx/query?"+tc.query)
		want, err := local.Query(context.Background(), tc.req)
		if err != nil {
			t.Fatalf("%s: direct query: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: served %+v, direct store.Query %+v", tc.name, got, want)
		}
	}

	// The selective threshold pruned on the serving store too.
	if pruned := localOf(srv).fields["nyx"].store.Stats().BricksPruned; pruned == 0 {
		t.Error("serving store pruned no bricks across the selective queries")
	}

	// Validator contract: strong ETag, stable, parameter-sensitive, and a
	// 304 revalidation decodes nothing.
	qurl := ts.URL + "/v1/fields/nyx/query?op=gt&value=" + gv
	resp, _ := queryGet(t, qurl)
	etag := resp.Header.Get("ETag")
	if etag == "" || etag[0] != '"' {
		t.Fatalf("query ETag %q is not a strong quoted validator", etag)
	}
	if resp2, _ := queryGet(t, qurl); resp2.Header.Get("ETag") != etag {
		t.Fatalf("ETag unstable across identical queries")
	}
	if respOther, _ := queryGet(t, qurl+"&maxloc=3"); respOther.Header.Get("ETag") == etag {
		t.Fatal("different query parameters share an ETag")
	}
	decodedBefore := localOf(srv).fields["nyx"].store.Stats().BricksDecoded
	req, _ := http.NewRequest(http.MethodGet, qurl, nil)
	req.Header.Set("If-None-Match", etag)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match revalidation answered %d, want 304", resp3.StatusCode)
	}
	if after := localOf(srv).fields["nyx"].store.Stats().BricksDecoded; after != decodedBefore {
		t.Fatalf("revalidation decoded %d bricks; 304 must not decode", after-decodedBefore)
	}

	// Error contract: the 400s of a malformed query, 404 for unknown
	// fields, and the maxloc response limit.
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/v1/fields/none/query?op=gt&value=1", http.StatusNotFound},
		{"/v1/fields/nyx/query", http.StatusBadRequest},
		{"/v1/fields/nyx/query?op=between", http.StatusBadRequest},
		{"/v1/fields/nyx/query?op=gt", http.StatusBadRequest},
		{"/v1/fields/nyx/query?op=gt&value=NaN", http.StatusBadRequest},
		{"/v1/fields/nyx/query?op=gt&value=1&lo=0,0,0", http.StatusBadRequest},
		{"/v1/fields/nyx/query?op=gt&value=1&lo=0,0&hi=1,1,1", http.StatusBadRequest},
		{"/v1/fields/nyx/query?op=gt&value=1&lo=0,0,0&hi=64,1,1", http.StatusBadRequest},
		{"/v1/fields/nyx/query?op=range&low=2&high=1", http.StatusBadRequest},
		{"/v1/fields/nyx/query?op=hist&low=0&high=1", http.StatusBadRequest},
		{"/v1/fields/nyx/query?op=hist&low=0&high=1&bins=0", http.StatusBadRequest},
		{"/v1/fields/nyx/query?op=gt&value=1&maxloc=-1", http.StatusBadRequest},
		{"/v1/fields/nyx/query?op=gt&value=1&lo=0,0,0&hi=4,4,4&lo=4,4,4&hi=8,8,8", http.StatusBadRequest},
	} {
		if resp, body := get(t, ts.URL+tc.url); resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.url, resp.StatusCode, tc.code, body)
		}
	}
	small, err := newServer([]mount{{name: "nyx", target: path}}, serverOptions{MaxPoints: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	tsSmall := httptest.NewServer(small)
	defer tsSmall.Close()
	if resp, _ := get(t, tsSmall.URL+"/v1/fields/nyx/query?op=gt&value=0&maxloc=100"); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized maxloc: status %d, want 413", resp.StatusCode)
	}

	// The pruning counter surfaces on /metrics.
	_, body := get(t, ts.URL+"/metrics")
	if want := `qozd_store_bricks_pruned_total{field="nyx"}`; !strings.Contains(string(body), want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// TestClusterMalformedQueryAnswer: a shard's sub-query answer is outside
// input. One that cannot be the answer to its request over its sub-box —
// another op, a bin too many, a location of another rank or outside the
// sub-box, more locations than asked for, an extremum without its
// argument, a negative count, more matches than points, a histogram whose
// count is not its bins' sum or whose tallies miss or double a point —
// fails its sub-query by name and fails over like a short region body.
// Merged, the bin would index past the merged histogram and panic the
// gateway; the rest would merge into a wrong answer.
func TestClusterMalformedQueryAnswer(t *testing.T) {
	p32, _ := buildStoreFile(t, t.TempDir())
	var mode atomic.Value // "" or one of the table's modes
	mode.Store("")
	shards, _ := startShards(t, []mount{{name: "nyx", target: p32}}, 2, serverOptions{CacheBytes: 32 << 20},
		func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				m := mode.Load().(string)
				if i != 1 || m == "" || filepath.Base(r.URL.Path) != "query" {
					h.ServeHTTP(w, r)
					return
				}
				r.Header.Del("Accept-Encoding") // rewrite plain JSON
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				var ans map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
					t.Errorf("shard 1 answered %s: %v", rec.Body, err)
				}
				locs, _ := ans["locations"].([]any)
				switch m {
				case "op":
					ans["op"] = store.QueryLT
				case "bins":
					ans["bins"] = append(ans["bins"].([]any), 0)
				case "rank":
					locs[0] = locs[0].([]any)[:1]
				case "outside":
					locs[0], _ = parseCorner(r.URL.Query().Get("hi"))
				case "toomany":
					ans["locations"] = append(locs, locs[0])
				case "noarg":
					delete(ans, "arg")
				case "negcount":
					ans["count"] = -ans["count"].(float64)
				case "bigcount", "histcount":
					ans["count"] = ans["count"].(float64) + 1
				case "histsum":
					below, _ := ans["below"].(float64)
					ans["below"] = below + 1
				}
				for k, v := range rec.Header() {
					if k != "Content-Length" {
						w.Header()[k] = v
					}
				}
				w.WriteHeader(rec.Code)
				json.NewEncoder(w).Encode(ans)
			})
		})
	names, hc := namedFleet(t, shards)
	ctx := context.Background()
	cl, cl1 := &cluster.Client{HTTP: hc}, &cluster.Client{HTTP: hc, Attempts: 1}
	cat, err := cl.Catalog(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	every := store.QueryRequest{Op: store.QueryGT, Value: -1e30, MaxLocations: 3} // every sub-box has 3 matches
	hist4 := store.QueryRequest{Op: store.QueryHist, Low: 0, High: 1, Bins: 4}
	for _, tc := range []struct {
		mode, query string
		req         store.QueryRequest
		text        string
	}{
		{"op", "op=gt&value=-1e30&maxloc=3", every, `answered op "lt", want "gt"`},
		{"bins", "op=hist&low=0&high=1&bins=4", store.QueryRequest{Op: store.QueryHist, Low: 0, High: 1, Bins: 4}, "answered 5 bins, want 4"},
		{"rank", "op=gt&value=-1e30&maxloc=3", every, "location"},
		{"outside", "op=gt&value=-1e30&maxloc=3", every, "outside its box"},
		{"toomany", "op=gt&value=-1e30&maxloc=3", every, "answered 4 locations, want at most 3"},
		{"noarg", "op=max", store.QueryRequest{Op: store.QueryMax}, "extremum at [], outside its box"},
		{"negcount", "op=gt&value=-1e30&maxloc=3", every, "a tally of -"},
		{"bigcount", "op=gt&value=-1e30&maxloc=3", every, "a tally of"},
		{"histcount", "op=hist&low=0&high=1&bins=4", hist4, "its bins sum to"},
		{"histsum", "op=hist&low=0&high=1&bins=4", hist4, "histogram classified"},
	} {
		_, want := queryGet(t, shards[0].URL+"/v1/fields/nyx/query?"+tc.query)
		mode.Store(tc.mode)
		if res, _, err := cl1.Query(ctx, cat["nyx"], tc.req); res != nil || !errors.Is(err, cluster.ErrNoShards) || !strings.Contains(err.Error(), tc.text) {
			t.Errorf("%s, one attempt: (%v, %v), want ErrNoShards naming %q", tc.mode, res, err, tc.text)
		}
		res, stats, err := cl.Query(ctx, cat["nyx"], tc.req)
		mode.Store("")
		if err != nil {
			t.Fatalf("%s, failover: %v", tc.mode, err)
		}
		if tc.req.Op == store.QueryMax {
			res.BricksTotal, res.BricksPruned, res.BricksDecoded = want.BricksTotal, want.BricksPruned, want.BricksDecoded
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("%s, failover: merged %+v, single-node %+v", tc.mode, res, want)
		}
		if tr := stats.ByShard[names[1]]; tr == nil || tr.Errors == 0 || tr.Reads != 0 || int64(stats.Retries) != tr.Errors {
			t.Errorf("%s: %d retries, shard 1 traffic %+v; want every sub-query it answered failed and re-sent", tc.mode, stats.Retries, tr)
		}
	}
}

// TestClusterGatewayQuery is the cluster-side differential test: a query
// fanned out over shards and merged at the gateway must answer exactly
// what a single qozd holding the whole store answers — counts, bins,
// locations, extremum, and the pruning tallies — with the same ETag, and
// the fan-out must have used more than one shard.
func TestClusterGatewayQuery(t *testing.T) {
	dir := t.TempDir()
	p32, ds := buildStoreFile(t, dir)
	p64, _, _ := buildStoreFile64(t, dir)
	mounts := []mount{{name: "nyx", target: p32}, {name: "wave", target: p64}}
	shards, _ := startShards(t, mounts, 2, serverOptions{CacheBytes: 32 << 20}, nil)
	gw, gts := startGateway(t, gatewayOptions{Shards: shardURLs(shards)})

	// A threshold in the field's upper quartile: matches exist, most
	// bricks prune.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range ds.Data {
		lo, hi = math.Min(lo, float64(v)), math.Max(hi, float64(v))
	}
	threshold := lo + 0.95*(hi-lo)
	gv := url.QueryEscape(strconv.FormatFloat(threshold, 'g', -1, 64))

	for _, tc := range []struct {
		field, query string
		extremum     bool
	}{
		{"nyx", "op=gt&value=" + gv, false},
		{"nyx", "op=gt&value=" + gv + "&maxloc=7", false},
		{"nyx", "op=range&low=0.2&high=0.8&lo=1,2,3&hi=31,30,29", false},
		{"nyx", "op=hist&low=0&high=1&bins=32", false},
		// wave holds a NaN in brick 0: the NaN tally must survive the merge.
		{"wave", "op=hist&low=-2&high=2&bins=8", false},
		{"nyx", "op=min", true},
		{"nyx", "op=max&lo=1,2,3&hi=31,30,29", true},
		{"wave", "op=max", true},
	} {
		u := "/v1/fields/" + tc.field + "/query?" + tc.query
		wantResp, want := queryGet(t, shards[0].URL+u)
		gotResp, got := queryGet(t, gts.URL+u)
		if tc.extremum {
			// The per-brick branch-and-bound sees different candidate orders
			// on gateway sub-boxes than on the whole field, so the brick
			// tallies legitimately differ; the answer must not.
			if got.Found != want.Found || got.Value != want.Value || !reflect.DeepEqual(got.Arg, want.Arg) {
				t.Errorf("%s: gateway extremum (%v, %v, %v), single-node (%v, %v, %v)",
					u, got.Found, got.Value, got.Arg, want.Found, want.Value, want.Arg)
			}
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: gateway merged %+v, single-node %+v", u, got, want)
		}
		if ge, se := gotResp.Header.Get("ETag"), wantResp.Header.Get("ETag"); ge != se {
			t.Errorf("%s: gateway ETag %s, single-node ETag %s", u, ge, se)
		}
	}

	// The queries fanned out: both shards answered sub-queries.
	fleetOf(gw).trafficMu.Lock()
	served := 0
	for _, tr := range fleetOf(gw).traffic {
		if tr.Reads > 0 {
			served++
		}
	}
	fleetOf(gw).trafficMu.Unlock()
	if served != 2 {
		t.Errorf("%d shards answered sub-queries, want 2", served)
	}

	// Conditional GET through the gateway.
	qurl := gts.URL + "/v1/fields/nyx/query?op=gt&value=" + gv
	resp, _ := queryGet(t, qurl)
	req, _ := http.NewRequest(http.MethodGet, qurl, nil)
	req.Header.Set("If-None-Match", resp.Header.Get("ETag"))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("gateway revalidation answered %d, want 304", resp2.StatusCode)
	}

	// Unknown fields and malformed parameters fail identically at either
	// role, before any shard is bothered.
	for _, u := range []string{
		"/v1/fields/none/query?op=gt&value=1",
		"/v1/fields/nyx/query?op=hist&low=0&high=1&bins=" + fmt.Sprint(store.MaxQueryBins+1),
	} {
		gr, _ := get(t, gts.URL+u)
		sr, _ := get(t, shards[0].URL+u)
		if gr.StatusCode != sr.StatusCode {
			t.Errorf("%s: gateway %d, shard %d", u, gr.StatusCode, sr.StatusCode)
		}
	}
}
