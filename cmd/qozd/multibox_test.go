package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qoz"
	"qoz/cluster"
	"qoz/internal/pool"
	"qoz/store"
)

// boxQuery renders a box list as the repeated lo=/hi= pairs of a /region
// request.
func boxQuery(boxes []store.Box) string {
	parts := make([]string, len(boxes))
	for i, b := range boxes {
		parts[i] = "lo=" + joinInts(b.Lo, ",") + "&hi=" + joinInts(b.Hi, ",")
	}
	return strings.Join(parts, "&")
}

// TestRegionMultiBox is the differential test of the multi-box /region
// form on a shard: the body of an N-box request is the N single-box bodies
// one after the other — float32 and float64 mounts, full resolution and a
// coarse level, for a list no fan-out plan would produce (out of row-major
// order, overlapping, one box twice) — with the shapes listed in
// X-Qoz-Dims; and the form's own faults are answered before anything is
// read.
func TestRegionMultiBox(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	p64, _, _ := buildStoreFile64(t, dir)
	const maxPoints = 20000
	srv, err := newServer([]mount{{name: "nyx", target: p32}, {name: "wave", target: p64}},
		serverOptions{CacheBytes: 32 << 20, MaxPoints: maxPoints})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	lists := map[string][]store.Box{
		"nyx": {
			{Lo: []int{16, 8, 0}, Hi: []int{32, 24, 9}},
			{Lo: []int{0, 0, 0}, Hi: []int{8, 8, 8}},
			{Lo: []int{4, 6, 2}, Hi: []int{20, 19, 23}}, // overlaps both
			{Lo: []int{0, 0, 0}, Hi: []int{8, 8, 8}},    // again
			{Lo: []int{28, 28, 28}, Hi: []int{29, 29, 29}},
		},
		"wave": {
			{Lo: []int{8, 0, 0}, Hi: []int{16, 16, 5}},
			{Lo: []int{0, 1, 2}, Hi: []int{15, 16, 14}},
			{Lo: []int{8, 0, 0}, Hi: []int{16, 16, 5}},
		},
	}
	for field, boxes := range lists {
		for _, level := range []string{"", "&level=2"} {
			var want []byte
			var dims []string
			for _, b := range boxes {
				resp, body := get(t, ts.URL+"/v1/fields/"+field+"/region?"+boxQuery([]store.Box{b})+level)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %v%s: %s: %s", field, b, level, resp.Status, body)
				}
				want = append(want, body...)
				dims = append(dims, resp.Header.Get("X-Qoz-Dims"))
			}
			url := ts.URL + "/v1/fields/" + field + "/region?" + boxQuery(boxes) + level
			for pass := 0; pass < 2; pass++ { // the second from warm bricks and recycled slabs
				resp, got := get(t, url)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: %s: %s", url, resp.Status, got)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: %d-byte body differs from the %d single-box bodies concatenated (%d bytes)", url, len(got), len(boxes), len(want))
				}
				if got, want := resp.Header.Get("X-Qoz-Dims"), strings.Join(dims, ";"); got != want {
					t.Errorf("%s: X-Qoz-Dims %q, want %q", url, got, want)
				}
				if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(len(want)) {
					t.Errorf("%s: Content-Length %s, body %d", url, got, len(want))
				}
			}
		}
	}

	// The validator: bounded, generation-prefixed like every other, its own
	// per order and per level, and good for a 304.
	boxes := lists["nyx"][:3]
	swapped := []store.Box{boxes[1], boxes[0], boxes[2]}
	url := ts.URL + "/v1/fields/nyx/region?" + boxQuery(boxes)
	resp, _ := get(t, url)
	etag := resp.Header.Get("ETag")
	one, _ := get(t, ts.URL+"/v1/fields/nyx/region?"+boxQuery(boxes[:1]))
	if prefix, _, _ := strings.Cut(one.Header.Get("ETag"), "-16x8x0"); !strings.HasPrefix(etag, prefix+"-n3-") || len(etag) > 64 {
		t.Errorf("three-box ETag %s, want %s-n3-<hash>-float32-raw", etag, prefix)
	}
	for _, other := range []string{boxQuery(swapped), boxQuery(boxes) + "&level=2", boxQuery(boxes[:2])} {
		r2, _ := get(t, ts.URL+"/v1/fields/nyx/region?"+other)
		if r2.StatusCode != http.StatusOK || r2.Header.Get("ETag") == etag {
			t.Errorf("?%s: status %d, ETag %s — the same as ?%s carries", other, r2.StatusCode, r2.Header.Get("ETag"), boxQuery(boxes))
		}
	}
	if string(appendBoxListID(nil, boxes)) == string(appendBoxListID(nil, swapped)) {
		t.Error("a box list and its reordering share an id: they would share a flight, and their bodies differ")
	}
	r304, body := getHeaders(t, url, map[string]string{"If-None-Match": etag})
	if r304.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Errorf("revalidating a multi-box ETag: %d with %d body bytes, want 304", r304.StatusCode, len(body))
	}

	for _, tc := range []struct {
		query, want string
		code        int
	}{
		{"lo=0,0,0&lo=8,8,8&hi=4,4,4", "2 lo= and 1 hi=", 400},
		{"lo=0,0,0&hi=4,4,4&hi=8,8,8", "1 lo= and 2 hi=", 400},
		{"lo=0,0,0&hi=4,4,4&lo=&hi=8,8,8", "region needs lo=", 400},
		{boxQuery(boxes) + "&format=json", "served raw only", 400},
		{"lo=0,0,0&hi=4,4,4&lo=0,0,30&hi=4,4,33", "outside field", 400},
		{"lo=0,0,0&hi=4,4,4&lo=0,0&hi=4,4", "rank", 400},
		{"lo=0,0,0&hi=4,4,4&lo=1,1,1&hi=2,2,2&level=2", "region [[1 1 1],[2 2 2]) has no points on the level-2 grid", 400},
		// Each box is under -max-points, the two together are over.
		{"lo=0,0,0&hi=16,32,32&lo=16,0,0&hi=32,32,32", "region holds 32768 points, limit is 20000", 413},
	} {
		before := localOf(srv).fields["nyx"].store.Stats().BricksRead
		resp, body := get(t, ts.URL+"/v1/fields/nyx/region?"+tc.query)
		if resp.StatusCode != tc.code || !strings.Contains(string(body), tc.want) {
			t.Errorf("?%s: %d %s, want %d naming %q", tc.query, resp.StatusCode, body, tc.code, tc.want)
		}
		if resp.Header.Get("ETag") != "" {
			t.Errorf("?%s: an error carries the validator %s", tc.query, resp.Header.Get("ETag"))
		}
		if after := localOf(srv).fields["nyx"].store.Stats().BricksRead; after != before {
			t.Errorf("?%s: %d bricks read for a refused request", tc.query, after-before)
		}
	}
	// The same sum is served a level up, where it is an eighth of the points.
	if resp, body := get(t, ts.URL+"/v1/fields/nyx/region?lo=0,0,0&hi=16,32,32&lo=16,0,0&hi=32,32,32&level=2"); resp.StatusCode != http.StatusOK || len(body) != 4*4096 {
		t.Errorf("two half-field boxes at level 2: %d with %d bytes, want 200 with %d", resp.StatusCode, len(body), 4*4096)
	}
}

// TestShardRegionStaleSnapshot is the regression test of a shard labelling
// one generation's bytes with another's ETag: a request resolves the field
// at generation N, a -poll refresh adopts N+1, and the read — which goes
// through the store's current manifest — must not hand N+1's samples back
// under the snapshot (and so the ETag) of N. It fails as stale instead,
// which the request pipeline answers by resolving again.
func TestShardRegionStaleSnapshot(t *testing.T) {
	path, _ := buildMutableStoreFile(t, t.TempDir(), 4, 16, 16)
	srv, err := newServer([]mount{{name: "live", target: path}}, serverOptions{CacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	boxes := []store.Box{{Lo: []int{0, 0, 0}, Hi: []int{4, 16, 16}}, {Lo: []int{2, 0, 0}, Hi: []int{4, 8, 8}}}

	old, ok := srv.be.resolve("live")
	if !ok {
		t.Fatal("no field live")
	}
	m, err := store.OpenMutable(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendSteps(ctx, make([]float32, 16*16)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.refresh(ctx); err != nil {
		t.Fatal(err)
	}

	for _, level := range []int{1, 2} {
		v, err := srv.be.region(ctx, old, boxes, level)
		if v != nil || !errors.Is(err, errStaleSnapshot) {
			t.Fatalf("level %d: region with a snapshot of generation %d on a store at %d returned (samples: %v, error: %v), want no samples and the stale error",
				level, old.gen, localOf(srv).fields["live"].store.Generation(), v != nil, err)
		}
		if code, retry, stale := srv.be.failure(err); !stale || code != http.StatusServiceUnavailable || retry == "" {
			t.Errorf("the stale error is answered (%d, %q, stale=%v), want a retryable 503 marked stale", code, retry, stale)
		}
	}
	// Resolved again, the same read answers from the present.
	cur, _ := srv.be.resolve("live")
	if cur.gen <= old.gen {
		t.Fatalf("generation %d after the refresh, was %d", cur.gen, old.gen)
	}
	v, err := srv.be.region(ctx, cur, boxes, 1)
	if err != nil {
		t.Fatal(err)
	}
	v.(interface{ Release() }).Release()
}

// namedFleet gives shards fixed names: the placement hashes shard URLs, and
// httptest's carry ephemeral ports, so the plan for one box would differ
// from run to run. The names are dialled to wherever the shards listen.
func namedFleet(t *testing.T, shards []*httptest.Server) ([]string, *http.Client) {
	t.Helper()
	addrs := map[string]string{}
	var names []string
	for i, s := range shards {
		host := fmt.Sprintf("qozd-%d.test", i)
		addrs[host+":80"] = s.Listener.Addr().String()
		names = append(names, "http://"+host)
	}
	tr := &http.Transport{
		MaxIdleConnsPerHost: 8,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return new(net.Dialer).DialContext(ctx, network, addrs[addr])
		},
	}
	t.Cleanup(tr.CloseIdleConnections)
	return names, &http.Client{Transport: tr}
}

// regionLog records, per shard, the region requests it was sent: how many
// boxes each named.
type regionLog struct {
	mu    sync.Mutex
	boxes [][]int // per shard, per request
}

func (l *regionLog) wrap(i int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if filepath.Base(r.URL.Path) == "region" {
			l.mu.Lock()
			for len(l.boxes) <= i {
				l.boxes = append(l.boxes, nil)
			}
			l.boxes[i] = append(l.boxes[i], len(r.URL.Query()["lo"]))
			l.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	})
}

func (l *regionLog) reset() [][]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.boxes
	l.boxes = nil
	return out
}

// owners counts the sub-regions' worth of bricks of [lo, hi) each shard
// owns under the placement over names: how many shards a read of the box
// must visit.
func owners(t *testing.T, names []string, f *cluster.Field, lo, hi []int) map[int]int {
	t.Helper()
	place, err := cluster.NewPlacement(names)
	if err != nil {
		t.Fatal(err)
	}
	bricks, err := store.IntersectingBricksIn(f.Dims, f.Brick, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int]int{}
	for _, bi := range bricks {
		out[place.Owner(f.Name, bi)]++
	}
	return out
}

// TestClusterRoundTripsPerShard counts HTTP exchanges: a read whose every
// shard's share is under both caps costs one round trip per owning shard,
// whatever the number of sub-regions; a list over 256 KiB of body or over
// 64 boxes is split, and no round trip is over either cap unless it is one
// box.
func TestClusterRoundTripsPerShard(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	// 160 bricks of one row each: sub-regions merge along the innermost
	// axis only, so a read of the whole field is 160 boxes of 32 bytes.
	thin := make([]float32, 160*8)
	for i := range thin {
		thin[i] = float32(i % 13)
	}
	var buf bytes.Buffer
	if err := store.Write(context.Background(), &buf, thin, []int{160, 8}, store.WriteOptions{
		Opts: qoz.Options{ErrorBound: 1e-3}, Brick: []int{1, 8},
	}); err != nil {
		t.Fatal(err)
	}
	pThin := filepath.Join(dir, "thin.qozb")
	if err := os.WriteFile(pThin, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	paths := map[string]string{"nyx": p32, "hot": buildHotStoreFile(t, dir), "thin": pThin}
	var mounts []mount
	for name, p := range paths {
		mounts = append(mounts, mount{name: name, target: p})
	}
	var log regionLog
	shards, _ := startShards(t, mounts, 2, serverOptions{CacheBytes: 64 << 20}, log.wrap)
	names, hc := namedFleet(t, shards)
	cl := &cluster.Client{HTTP: hc}
	ctx := context.Background()
	cat, err := cl.Catalog(ctx, names)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		field  string
		lo, hi []int
		split  bool
	}{
		// 27 bricks in 9+ sub-regions, 16 KiB in all.
		{"nyx", []int{4, 4, 4}, []int{20, 20, 20}, false},
		// The benchmark's hot box: 8 bricks, 128 KiB.
		{"hot", []int{16, 16, 16}, []int{48, 48, 48}, false},
		// The whole 1 MiB field: each shard's share is over 256 KiB.
		{"hot", []int{0, 0, 0}, []int{64, 64, 64}, true},
		// 160 boxes: each shard's share is over 64 boxes.
		{"thin", []int{0, 0}, []int{160, 8}, true},
	} {
		f := cat[tc.field]
		own := owners(t, names, f, tc.lo, tc.hi)
		if len(own) != 2 {
			t.Fatalf("%s [%v,%v): %d owning shards under the fixed names, the fixture wants 2", tc.field, tc.lo, tc.hi, len(own))
		}
		log.reset()
		body, stats, err := cl.ReadRegionRaw(ctx, f, tc.lo, tc.hi)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, referenceRaw(t, paths[tc.field], tc.lo, tc.hi)) {
			t.Errorf("%s [%v,%v): body differs from the single-node read", tc.field, tc.lo, tc.hi)
		}
		seen := log.reset()
		requests, boxes := 0, 0
		for _, reqs := range seen {
			requests += len(reqs)
			for _, n := range reqs {
				boxes += n
				if n > 64 {
					t.Errorf("%s: a round trip of %d boxes", tc.field, n)
				}
			}
		}
		if stats.SubReads != requests || stats.Retries != 0 {
			t.Errorf("%s: SubReads %d, Retries %d; the shards saw %d region requests", tc.field, stats.SubReads, stats.Retries, requests)
		}
		var reads int64
		for _, tr := range stats.ByShard {
			reads += tr.Reads
		}
		if reads != int64(requests) {
			t.Errorf("%s: ByShard counts %d reads, the shards saw %d requests", tc.field, reads, requests)
		}
		switch {
		case !tc.split && (requests != 2 || boxes < 3):
			t.Errorf("%s [%v,%v): %d round trips for %d boxes over 2 owning shards, want 2 for 3 or more", tc.field, tc.lo, tc.hi, requests, boxes)
		case tc.split && requests <= 2:
			t.Errorf("%s [%v,%v): %d round trips for %d boxes, want a share over a cap split", tc.field, tc.lo, tc.hi, requests, boxes)
		}
		if tc.field == "thin" {
			want := 0
			for _, n := range own { // one brick is one box here
				want += (n + 63) / 64
			}
			if boxes != 160 || requests != want {
				t.Errorf("thin: %d boxes in %d round trips, want 160 in %d (shares %v)", boxes, requests, want, own)
			}
		}
		if tc.field == "hot" && tc.split {
			// Each box is a row of one or two 128 KiB bricks, so no two share a
			// round trip unless they are exactly the 256 KiB: a round trip is one
			// box or two.
			for _, reqs := range seen {
				for _, n := range reqs {
					if n > 2 {
						t.Errorf("hot, whole: a round trip of %d boxes is over 256 KiB", n)
					}
				}
			}
		}
	}

	// A gateway answers a multi-box request with one fan-out: two boxes over
	// the same two owning shards reach them as one round trip each (box by
	// box they were four), and the body is the two single-box bodies.
	_, gts := startGateway(t, gatewayOptions{Shards: names, HTTP: hc})
	boxes := []store.Box{{Lo: []int{4, 4, 4}, Hi: []int{20, 20, 20}}, {Lo: []int{1, 2, 3}, Hi: []int{31, 30, 29}}}
	var want []byte
	for _, b := range boxes {
		if own := owners(t, names, cat["nyx"], b.Lo, b.Hi); len(own) != 2 {
			t.Fatalf("nyx %v: %d owning shards under the fixed names, the fixture wants 2", b, len(own))
		}
		want = append(want, referenceRaw(t, paths["nyx"], b.Lo, b.Hi)...)
	}
	log.reset()
	resp, body := get(t, gts.URL+"/v1/fields/nyx/region?"+boxQuery(boxes))
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
		t.Errorf("gateway, two boxes: %s, body equal to the two single-box bodies: %v", resp.Status, bytes.Equal(body, want))
	}
	requests := 0
	for _, reqs := range log.reset() {
		requests += len(reqs)
	}
	if requests != 2 {
		t.Errorf("gateway, two boxes over two owning shards: %d region requests reached the shards, want 2", requests)
	}
}

// TestClusterThreeShardFailover kills one shard of three whose boxes have
// different second choices: its share of the read, one failed round trip,
// is re-sent as one round trip to each of the other two — with every
// released slab poisoned, so a failed attempt's buffer that reached the
// stitch would show.
func TestClusterThreeShardFailover(t *testing.T) {
	pool.PoisonSlabs(true)
	t.Cleanup(func() { pool.PoisonSlabs(false) })
	p32, _ := buildStoreFile(t, t.TempDir())
	var dead atomic.Int32
	dead.Store(-1)
	shards, _ := startShards(t, []mount{{name: "nyx", target: p32}}, 3, serverOptions{CacheBytes: 32 << 20},
		func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if int(dead.Load()) == i {
					panic(http.ErrAbortHandler) // the connection just goes away
				}
				h.ServeHTTP(w, r)
			})
		})
	names, hc := namedFleet(t, shards)
	cl := &cluster.Client{HTTP: hc}
	ctx := context.Background()
	cat, err := cl.Catalog(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	f := cat["nyx"]
	lo, hi := []int{0, 0, 0}, []int{32, 32, 32}
	want := referenceRaw(t, p32, lo, hi)

	// The fixture: shard 1 owns bricks whose next-ranked shards differ.
	place, err := cluster.NewPlacement(names)
	if err != nil {
		t.Fatal(err)
	}
	seconds := map[int]bool{}
	for bi := 0; bi < 64; bi++ {
		if rank := place.Rank("nyx", bi); rank[0] == 1 {
			seconds[rank[1]] = true
		}
	}
	if len(seconds) != 2 {
		t.Fatalf("shard 1's bricks fail over to %v under the fixed names; the fixture wants both other shards", seconds)
	}

	for pass := 0; pass < 3; pass++ { // later passes draw what earlier ones released
		dead.Store(-1)
		body, stats, err := cl.ReadRegionRaw(ctx, f, lo, hi)
		if err != nil || !bytes.Equal(body, want) {
			t.Fatalf("healthy read: %v, body equal to the single-node read: %v", err, bytes.Equal(body, want))
		}
		if stats.SubReads != 3 || stats.Retries != 0 {
			t.Errorf("healthy read: %d round trips and %d retries over 3 owning shards", stats.SubReads, stats.Retries)
		}
		pool.PutSlab(body)

		dead.Store(1)
		body, stats, err = cl.ReadRegionRaw(ctx, f, lo, hi)
		if err != nil {
			t.Fatalf("read with shard 1 dead: %v", err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("read with shard 1 dead differs from the single-node read (%d poisoned bytes)", bytes.Count(body, []byte{0xA5}))
		}
		if stats.SubReads != 3 || stats.Retries != 2 {
			t.Errorf("shard 1 dead: %d first-round round trips and %d retries, want 3 and 2 (its boxes regroup on both survivors)", stats.SubReads, stats.Retries)
		}
		if tr := stats.ByShard[names[1]]; tr == nil || tr.Errors != 1 || tr.Reads != 0 {
			t.Errorf("shard 1 dead: its traffic %+v, want one failed round trip and no read", tr)
		}
		for _, i := range []int{0, 2} {
			if tr := stats.ByShard[names[i]]; tr == nil || tr.Reads != 2 || tr.Errors != 0 {
				t.Errorf("shard 1 dead: shard %d's traffic %+v, want two reads (its own share and its part of shard 1's)", i, tr)
			}
		}
		pool.PutSlab(body)
	}

	// Sub-queries ride the same rounds: each of shard 1's sub-queries is
	// re-sent to its next-ranked shard, one retry apiece, and the merged
	// answer is the single-node one.
	req := store.QueryRequest{Op: store.QueryGT, Value: 0.5, MaxLocations: 5}
	_, single := queryGet(t, shards[0].URL+"/v1/fields/nyx/query?op=gt&value=0.5&maxloc=5")
	dead.Store(-1)
	res, stats, err := cl.Query(ctx, f, req)
	if err != nil || !reflect.DeepEqual(res, single) {
		t.Fatalf("healthy query: %v, merged %+v, single-node %+v", err, res, single)
	}
	owned := stats.ByShard[names[1]].Reads // shard 1's sub-queries
	if owned == 0 || stats.Retries != 0 {
		t.Fatalf("healthy query: shard 1 answered %d sub-queries, %d retries", owned, stats.Retries)
	}
	dead.Store(1)
	res, stats, err = cl.Query(ctx, f, req)
	if err != nil || !reflect.DeepEqual(res, single) {
		t.Errorf("query with shard 1 dead: %v, merged %+v, single-node %+v", err, res, single)
	}
	if tr := stats.ByShard[names[1]]; stats.Retries != int(owned) || tr == nil || tr.Errors != owned || tr.Reads != 0 {
		t.Errorf("query with shard 1 dead: %d retries, shard 1 traffic %+v; want %d of each, one per sub-query it owns", stats.Retries, tr, owned)
	}

	// Nothing left to fail over to: a clean error, and the output slab back.
	cl1 := &cluster.Client{HTTP: hc, Attempts: 1}
	if body, stats, err := cl1.ReadRegionRaw(ctx, f, lo, hi); !errors.Is(err, cluster.ErrNoShards) || body != nil || stats.Retries != 0 {
		t.Errorf("one attempt with shard 1 dead: (%d bytes, %d retries, %v), want ErrNoShards", len(body), stats.Retries, err)
	}
	if res, stats, err := cl1.Query(ctx, f, req); !errors.Is(err, cluster.ErrNoShards) || res != nil || stats.Retries != 0 {
		t.Errorf("one attempt with shard 1 dead: query (%+v, %d retries, %v), want ErrNoShards", res, stats.Retries, err)
	}
}

// TestClusterWrongLengthMultiBoxBody: a shard whose multi-box body is a few
// bytes short, or long, of the boxes it was asked for fails the round trip
// by name — the exact-length check is on the sum — and the read fails over.
func TestClusterWrongLengthMultiBoxBody(t *testing.T) {
	p32, _ := buildStoreFile(t, t.TempDir())
	var mode atomic.Value // "", "short", "long"
	mode.Store("")
	shards, _ := startShards(t, []mount{{name: "nyx", target: p32}}, 2, serverOptions{CacheBytes: 32 << 20},
		func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				m := mode.Load().(string)
				if i != 1 || m == "" || len(r.URL.Query()["lo"]) < 2 {
					h.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				for k, v := range rec.Header() {
					if k != "Content-Length" {
						w.Header()[k] = v
					}
				}
				w.WriteHeader(rec.Code)
				body := rec.Body.Bytes()
				if m == "short" {
					body = body[:len(body)-4]
				} else {
					body = append(body, 0, 0, 0, 0)
				}
				w.Write(body)
			})
		})
	names, hc := namedFleet(t, shards)
	ctx := context.Background()
	cl := &cluster.Client{HTTP: hc}
	cat, err := cl.Catalog(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	f := cat["nyx"]
	lo, hi := []int{1, 2, 3}, []int{31, 30, 29}
	want := referenceRaw(t, p32, lo, hi)
	for m, text := range map[string]string{"short": "short sub-read body", "long": "sub-read body longer than its region"} {
		mode.Store(m)
		cl1 := &cluster.Client{HTTP: hc, Attempts: 1}
		if _, _, err := cl1.ReadRegionRaw(ctx, f, lo, hi); err == nil || !strings.Contains(err.Error(), text) {
			t.Errorf("%s body, one attempt: error %v, want one naming %q", m, err, text)
		}
		body, stats, err := cl.ReadRegionRaw(ctx, f, lo, hi)
		if err != nil || !bytes.Equal(body, want) {
			t.Fatalf("%s body, failover: %v, body equal to the single-node read: %v", m, err, bytes.Equal(body, want))
		}
		if tr := stats.ByShard[names[1]]; stats.Retries != 1 || tr == nil || tr.Errors != 1 {
			t.Errorf("%s body: %d retries, shard 1 traffic %+v; want its one round trip failed and re-sent to shard 0", m, stats.Retries, tr)
		}
	}
}

// TestClusterMultiBoxFlights sends a gateway the multi-box form (role
// parity: it answers what a shard answers) while the shards are held: the
// same list twice coalesces into one flight, the list in another order
// leads its own, and each client gets its own order's bytes.
func TestClusterMultiBoxFlights(t *testing.T) {
	p32, _ := buildStoreFile(t, t.TempDir())
	release := make(chan struct{})
	var held atomic.Bool
	held.Store(true)
	shards, _ := startShards(t, []mount{{name: "nyx", target: p32}}, 2, serverOptions{CacheBytes: 32 << 20},
		func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if filepath.Base(r.URL.Path) == "region" && held.Load() {
					<-release
				}
				h.ServeHTTP(w, r)
			})
		})
	gw, gts := startGateway(t, gatewayOptions{Shards: shardURLs(shards)})
	a := store.Box{Lo: []int{0, 0, 0}, Hi: []int{12, 12, 12}}
	b := store.Box{Lo: []int{9, 9, 9}, Hi: []int{24, 20, 17}}
	ab := append(referenceRaw(t, p32, a.Lo, a.Hi), referenceRaw(t, p32, b.Lo, b.Hi)...)
	ba := append(referenceRaw(t, p32, b.Lo, b.Hi), referenceRaw(t, p32, a.Lo, a.Hi)...)
	type result struct {
		body []byte
		etag string
	}
	results := make([]result, 3)
	var wg sync.WaitGroup
	for i, boxes := range [][]store.Box{{a, b}, {a, b}, {b, a}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(gts.URL + "/v1/fields/nyx/region?" + boxQuery(boxes))
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results[i] = result{body, resp.Header.Get("ETag")}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := gw.flight.Stats()
		if st.Leads == 2 && st.Coalesced == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("three requests, two orders: %+v, want 2 leads and 1 coalesced", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	held.Store(false)
	close(release)
	wg.Wait()
	if !bytes.Equal(results[0].body, ab) || !bytes.Equal(results[1].body, ab) || !bytes.Equal(results[2].body, ba) {
		t.Error("a client got another order's bytes")
	}
	if results[0].etag != results[1].etag || results[0].etag == results[2].etag || results[2].etag == "" {
		t.Errorf("ETags %q %q %q: the same list must share one, the reordered list must not", results[0].etag, results[1].etag, results[2].etag)
	}
}
