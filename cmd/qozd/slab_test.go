package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qoz"
	"qoz/cluster"
	"qoz/datagen"
	"qoz/internal/pool"
	"qoz/obs"
	"qoz/store"
)

// referenceRaw is the raw little-endian body of the box [lo, hi) computed
// from the store file alone: the library read, encoded here — no qozd, no
// pool, no single-flight on the way.
func referenceRaw(t *testing.T, path string, lo, hi []int) []byte {
	t.Helper()
	st, err := store.OpenFile(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Float64() {
		data, err := store.ReadRegionT[float64](context.Background(), st, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]byte, 8*len(data))
		for i, v := range data {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
		return out
	}
	data, err := store.ReadRegionT[float32](context.Background(), st, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// TestClusterNoUseAfterRelease runs gateway + 2 shards with every released
// slab overwritten at the moment of its release (sample buffers and
// conversion chunks on the shards; sub-read bodies and stitched slabs on
// the gateway). A response written from a slab after its release — by a
// coalesced waiter slower than the rest, by a failover that kept the failed
// attempt's buffer — carries the pattern and differs from the reference.
// serve_scan's 48³ answers (432 KiB in float32) and 40³ float64 ones
// (500 KiB), the largest boxes under the 512 KiB slab bound, are recycled
// slabs too, on a shard and at the gateway, so they get herds of their own: through the gateway, and at a shard whose produce waits on its
// store's origin so that its herd coalesces for certain.
func TestClusterNoUseAfterRelease(t *testing.T) {
	pool.PoisonSlabs(true)
	t.Cleanup(func() { pool.PoisonSlabs(false) })

	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	p64, _, _ := buildStoreFile64(t, dir)
	pHot, pHot64 := buildHotStoreFile(t, dir), buildHotStoreFile64(t, dir)
	paths := map[string]string{"nyx": p32, "wave": p64, "hot": pHot, "hot64": pHot64}
	mounts := []mount{{name: "nyx", target: p32}, {name: "wave", target: p64}, {name: "hot", target: pHot}, {name: "hot64", target: pHot64}}

	// Shard region requests wait at the gate while one is set (so a herd
	// coalesces behind its leader for certain), and shard 1 cuts region
	// bodies short while tearing is on.
	var gate atomic.Pointer[chan struct{}]
	var tearing atomic.Bool
	shards, _ := startShards(t, mounts, 2, serverOptions{CacheBytes: 32 << 20},
		func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if filepath.Base(r.URL.Path) == "region" {
					if g := gate.Load(); g != nil {
						<-*g
					}
					if i == 1 && tearing.Load() {
						w = &tornWriter{ResponseWriter: w}
					}
				}
				h.ServeHTTP(w, r)
			})
		})
	gw, gts := startGateway(t, gatewayOptions{Shards: shardURLs(shards)})

	// The direct shard mounts the hot stores by URL with its cache off, so
	// every produce fetches ranges from the origin, which holds range
	// requests while originGate is set: a herd at this shard piles up behind
	// one produce inside its single-flight.
	var originGate atomic.Pointer[chan struct{}]
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		content, err := os.ReadFile(filepath.Join(dir, filepath.Base(r.URL.Path)))
		if err != nil {
			http.NotFound(w, r)
			return
		}
		if g := originGate.Load(); g != nil && r.Header.Get("Range") != "" {
			<-*g
		}
		w.Header().Set("ETag", `"v1"`)
		http.ServeContent(w, r, "", time.Unix(1700000000, 0), bytes.NewReader(content))
	}))
	t.Cleanup(origin.Close)
	directTS, direct := startShards(t, []mount{
		{name: "hot", target: origin.URL + "/" + filepath.Base(pHot)},
		{name: "hot64", target: origin.URL + "/" + filepath.Base(pHot64)},
	}, 1, serverOptions{}, nil)

	type read struct {
		field  string
		lo, hi []int
		want   []byte
	}
	mk := func(field string, lo, hi []int) read {
		return read{field, lo, hi, referenceRaw(t, paths[field], lo, hi)}
	}
	check := func(base string, rd read) {
		url := fmt.Sprintf("%s/v1/fields/%s/region?lo=%s&hi=%s", base, rd.field, joinInts(rd.lo, ","), joinInts(rd.hi, ","))
		resp, err := http.Get(url)
		if err != nil {
			t.Errorf("GET %s: %v", url, err)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, read error %v", url, resp.StatusCode, err)
			return
		}
		if !bytes.Equal(body, rd.want) {
			t.Errorf("GET %s: body differs from the reference (%d bytes, %d poisoned)", url, len(body), bytes.Count(body, []byte{0xA5}))
		}
	}

	// Gated herds: herd identical requests for hot pile up behind one
	// produce at base while gate holds its work, with one request for each
	// of others beside them; once flight has counted them all, the gate
	// opens and everything is written — and released — at once.
	const herd = 16
	gatedHerd := func(gate *atomic.Pointer[chan struct{}], flight *cluster.Flight, base string, hot read, others []read) {
		g := make(chan struct{})
		gate.Store(&g)
		before := flight.Stats()
		var wg sync.WaitGroup
		for i := 0; i < herd+len(others); i++ {
			rd := hot
			if i >= herd {
				rd = others[i-herd]
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				check(base, rd)
			}()
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := flight.Stats()
			if st.Coalesced-before.Coalesced == herd-1 && st.Leads-before.Leads == int64(1+len(others)) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: herd never coalesced: %+v after %+v", base, st, before)
			}
			time.Sleep(time.Millisecond)
		}
		gate.Store(nil)
		close(g)
		wg.Wait()
	}

	// Boxes of one size (16³ float32 over 8³ bricks: 27 bricks each, every
	// sub-read body and every slab from the same pool buckets), so whatever
	// one request releases the next one draws.
	hot := mk("nyx", []int{4, 4, 4}, []int{20, 20, 20})
	var others []read
	for k := 0; k < 8; k++ {
		lo := []int{k, 2 * k, 16 - k}
		others = append(others, mk("nyx", lo, []int{lo[0] + 16, lo[1] + 16, lo[2] + 16}))
	}
	wave := mk("wave", []int{0, 1, 2}, []int{15, 16, 14})

	// (b) Sequential reads, float32 and float64, through the gateway and
	// straight from a shard; twice, so the second draws what the first
	// released.
	for pass := 0; pass < 2; pass++ {
		for _, base := range []string{gts.URL, shards[0].URL} {
			check(base, hot)
			check(base, wave)
		}
	}

	// (a) Herds. Gated rounds first: 16 identical requests pile up behind
	// one fan-out while other boxes fan out beside them.
	for round := 0; round < 3; round++ {
		gatedHerd(&gate, &gw.flight, gts.URL, hot, others)
	}
	// Then free-running: clients that mostly ask for the hot box, at the
	// gateway and at a shard, coalescing and recycling however they fall.
	var wg sync.WaitGroup
	for c := 0; c < herd; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := gts.URL
			if c%4 == 3 {
				base = shards[c%2].URL
			}
			for i := 0; i < 12; i++ {
				switch {
				case (i+c)%3 == 0:
					check(base, others[(i+c)%len(others)])
				case (i+c)%7 == 0:
					check(base, wave)
				default:
					check(base, hot)
				}
			}
		}()
	}
	wg.Wait()

	// (d) serve_scan's 48³ boxes over 32³ bricks, and 40³ float64 ones,
	// every one of them a slab from the pools' largest bucket: sequential, then gated herds through
	// the gateway and at the direct shard, then free-running on all three
	// servers.
	scan := mk("hot", []int{8, 8, 8}, []int{56, 56, 56})
	var scanOthers []read
	for k := 0; k < 4; k++ {
		lo := []int{k, 2 * k, 16 - k}
		scanOthers = append(scanOthers, mk("hot", lo, []int{lo[0] + 48, lo[1] + 48, lo[2] + 48}))
	}
	scan64 := mk("hot64", []int{12, 12, 12}, []int{52, 52, 52})
	scanOthers = append(scanOthers, scan64, mk("hot64", []int{16, 0, 3}, []int{56, 40, 43}))
	for pass := 0; pass < 2; pass++ {
		for _, base := range []string{gts.URL, shards[1].URL, directTS[0].URL} {
			check(base, scan)
			check(base, scan64)
		}
	}
	for round := 0; round < 2; round++ {
		gatedHerd(&gate, &gw.flight, gts.URL, scan, scanOthers)
		gatedHerd(&originGate, &direct[0].flight, directTS[0].URL, scan, scanOthers)
	}
	gatedHerd(&originGate, &direct[0].flight, directTS[0].URL, scan64, scanOthers[:4])
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := []string{gts.URL, shards[c%2].URL, directTS[0].URL}[c%3]
			for i := 0; i < 6; i++ {
				switch {
				case (i+c)%3 == 0:
					check(base, scanOthers[(i+c)%len(scanOthers)])
				case (i+c)%4 == 0:
					check(base, scan64)
				default:
					check(base, scan)
				}
			}
		}()
	}
	wg.Wait()

	// (c) Shard 1 drops the connection mid-body: every sub-read it owns
	// fails over to shard 0, and the torn attempt's buffer — released, so
	// poisoned — must not be what gets stitched.
	tearing.Store(true)
	retriesBefore := fleetOf(gw).retries.Load()
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				check(gts.URL, others[(2*i+c)%len(others)])
				check(gts.URL, wave)
			}
		}()
	}
	wg.Wait()
	if fleetOf(gw).retries.Load() == retriesBefore {
		t.Error("no sub-read failed over while shard 1 was tearing its bodies")
	}
}

// tornWriter sends the first half of the first body Write and then aborts
// the response: the client has the headers (status, ETag, Content-Length)
// and part of the body when the connection goes away.
type tornWriter struct {
	http.ResponseWriter
}

func (w *tornWriter) Write(b []byte) (int, error) {
	w.ResponseWriter.Write(b[:len(b)/2])
	w.ResponseWriter.(http.Flusher).Flush()
	panic(http.ErrAbortHandler)
}

// hotStore encodes a 64³ field in 32³ bricks once per test process: the
// shape of the benchmark's gateway_hot traffic, where a 32³ box at offset
// 16 straddles all eight bricks and its 128 KiB answer is what the
// allocation gates measure against.
var hotStore = sync.OnceValues(func() ([]byte, error) {
	ds := datagen.NYX(64, 64, 64)
	var buf bytes.Buffer
	err := store.Write(context.Background(), &buf, ds.Data, ds.Dims, store.WriteOptions{
		Opts:  qoz.Options{RelBound: 1e-3},
		Brick: []int{32, 32, 32},
	})
	return buf.Bytes(), err
})

// hotStore64 is the same field and brick grid in float64: a 40³ box of it
// is a 500 KiB answer, the largest cube under the slab bound.
var hotStore64 = sync.OnceValues(func() ([]byte, error) {
	ds := datagen.NYX(64, 64, 64)
	data := make([]float64, len(ds.Data))
	for i, v := range ds.Data {
		data[i] = float64(v)
	}
	var buf bytes.Buffer
	err := store.WriteT(context.Background(), &buf, data, ds.Dims, store.WriteOptions{
		Opts:  qoz.Options{RelBound: 1e-3},
		Brick: []int{32, 32, 32},
	})
	return buf.Bytes(), err
})

func buildHotStoreFile(t *testing.T, dir string) string {
	return writeStoreFile(t, dir, "hot.qozb", hotStore)
}

func buildHotStoreFile64(t *testing.T, dir string) string {
	return writeStoreFile(t, dir, "hot64.qozb", hotStore64)
}

func writeStoreFile(t *testing.T, dir, name string, encode func() ([]byte, error)) string {
	t.Helper()
	encoded, err := encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, encoded, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// allocBytesPerOp is the heap bytes op allocates per call, process-wide
// (server goroutines included), over n calls with the collector off — so
// that what the pools hold is not taken from them in the middle of the
// measurement and the number repeats.
func allocBytesPerOp(n int, op func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestClusterFanoutAllocBytes is the allocation gate of the hot hop: one
// 32³ float32 box straddling 8 bricks, read 200 times through
// cluster.Client.ReadRegionRaw against two in-process shards — one round
// trip to each — and released the way the gateway releases it, allocates
// less than half of what the response is long — everything counted: the
// fan-out, net/http on both sides of the shard hop, and the shards' own
// region reads. Before the slabs were pooled (PR 20) the same loop measured
// 866 KB per 128 KiB read; with pooled slabs and six single-box sub-reads,
// 78 KB.
func TestClusterFanoutAllocBytes(t *testing.T) {
	path := buildHotStoreFile(t, t.TempDir())
	shards, _ := startShards(t, []mount{{name: "hot", target: path}}, 2, serverOptions{CacheBytes: 64 << 20}, nil)
	names, hc := namedFleet(t, shards) // the same plan, and so the same number, every run
	cl := &cluster.Client{HTTP: hc}
	ctx := context.Background()
	cat, err := cl.Catalog(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := []int{16, 16, 16}, []int{48, 48, 48}
	want := referenceRaw(t, path, lo, hi)
	read := func() {
		body, stats, err := cl.ReadRegionRaw(ctx, cat["hot"], lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if stats.SubReads != 2 || !bytes.Equal(body, want) {
			t.Fatalf("fan-out of %d round trips (one per owning shard is 2), body equal to the reference: %v", stats.SubReads, bytes.Equal(body, want))
		}
		(&slab[byte]{body}).Release()
	}
	for i := 0; i < 20; i++ { // warm the shard caches, the connections and the pools
		read()
	}
	perOp := allocBytesPerOp(200, read)
	t.Logf("%.0f heap bytes allocated per %d-byte read", perOp, len(want))
	if raceEnabled {
		return // the detector's own allocations and its pool sabotage are in the number
	}
	// Measured 32.8 KB (32 789 bytes in each of five runs): about 13 KB for
	// each of the two round trips — net/http's request, response and header
	// objects on both sides of the hop — plus the plan and the longer URLs,
	// and nothing that grows with the box. The bound is half the response
	// size, 2× the measurement; one size-proportional buffer coming back
	// (the shards' 64 KiB halves, the 128 KiB body) or a third round trip's
	// worth of per-box sub-reads breaks it.
	if perOp >= float64(len(want))/2 {
		t.Errorf("%.0f heap bytes per read of a %d-byte region; a hot read must allocate less than half of what it returns", perOp, len(want))
	}
}

// TestTracePublishAllocBytes is the allocation gate of trace publication:
// ending a request's root span seals the live trace and hands it to the
// recorder as it is. Each trace here is a real fan-out read's — the
// fanout span and one subread span per shard, with their attributes, plus
// the root's own — and publishing it allocates nothing; the deep copy it
// replaced allocated every span and attribute map of the trace again.
func TestTracePublishAllocBytes(t *testing.T) {
	path := buildHotStoreFile(t, t.TempDir())
	shards, _ := startShards(t, []mount{{name: "hot", target: path}}, 2, serverOptions{CacheBytes: 64 << 20}, nil)
	names, hc := namedFleet(t, shards)
	cl := &cluster.Client{HTTP: hc}
	ctx := context.Background()
	cat, err := cl.Catalog(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(0)
	roots := make([]*obs.Span, 100)
	for i := range roots {
		tctx, root := rec.StartTrace(ctx, fmt.Sprintf("req-%d", i), "GET region")
		body, _, err := cl.ReadRegionRaw(tctx, cat["hot"], []int{16, 16, 16}, []int{48, 48, 48})
		if err != nil {
			t.Fatal(err)
		}
		(&slab[byte]{body}).Release()
		root.Annotate("route", "region")
		root.Annotate("status", "200")
		roots[i] = root
	}
	next := 0
	perOp := allocBytesPerOp(len(roots), func() {
		roots[next].End()
		next++
	})
	tr := roots[0].TraceData()
	if tr == nil || len(tr.Spans) < 4 || rec.Total() != uint64(len(roots)) {
		t.Fatalf("published %d traces; the first one %+v, want a root, a fanout and two subreads", rec.Total(), tr)
	}
	t.Logf("%.0f heap bytes allocated per published %d-span trace", perOp, len(tr.Spans))
	if raceEnabled {
		return
	}
	// Measured 0. The deep copy it replaced measured 2464 bytes per
	// trace: the span slice and an attribute map per span.
	if perOp >= 64 {
		t.Errorf("%.0f heap bytes per root span End; publishing must hand over the live trace, not a copy", perOp)
	}
}

// TestShardRegionNoSampleAlloc is the shard half, beside
// store.TestReadRegionIntoCachedZeroAlloc: with the bricks cached, a
// region produce and its release allocate the slab's 24-byte header, the
// pool's and the box's three dims, not a sample buffer per produce — also
// for serve_scan's 48³ box (432 KiB in float32) and a 40³ float64 box
// (500 KiB), which were plain allocations while the slab bound was 256 KiB
// (442 397 bytes per float32 produce).
func TestShardRegionNoSampleAlloc(t *testing.T) {
	dir := t.TempDir()
	p64, _, _ := buildStoreFile64(t, dir)
	srv, err := newServer([]mount{
		{name: "hot", target: buildHotStoreFile(t, dir)},
		{name: "hot64", target: buildHotStoreFile64(t, dir)},
		{name: "wave", target: p64},
	}, serverOptions{CacheBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tc := range []struct {
		field  string
		lo, hi []int
		size   int
	}{
		{"hot", []int{16, 16, 16}, []int{48, 48, 48}, 32 * 32 * 32 * 4},
		{"wave", []int{1, 1, 1}, []int{15, 15, 15}, 14 * 14 * 14 * 8},
		{"hot", []int{8, 8, 8}, []int{56, 56, 56}, 48 * 48 * 48 * 4},
		{"hot64", []int{12, 12, 12}, []int{52, 52, 52}, 40 * 40 * 40 * 8},
	} {
		f, ok := srv.be.resolve(tc.field)
		if !ok {
			t.Fatalf("no field %s", tc.field)
		}
		boxes := []store.Box{{Lo: tc.lo, Hi: tc.hi}}
		cycle := func() {
			v, err := srv.be.region(context.Background(), f, boxes, 1)
			if err != nil {
				t.Fatal(err)
			}
			v.(interface{ Release() }).Release()
		}
		cycle() // decode the bricks into the cache, fill the pool
		perOp := allocBytesPerOp(200, cycle)
		t.Logf("%s: %.0f heap bytes allocated per %d-byte region", tc.field, perOp, tc.size)
		if raceEnabled {
			continue
		}
		// Measured 24 to 29 bytes, on every box here: the slab's 24-byte
		// header, and no sample buffer. sync.Pool may miss
		// without a collection — a goroutine that changes Ps between a put
		// and the next get cannot reach the other P's private slot — and
		// each miss is one fresh buffer, size/200 per op here; the bound of
		// an eighth of the region allows 25 of those and no steady
		// per-produce buffer, which would be the whole region per op.
		if perOp > float64(tc.size)/8 {
			t.Errorf("%s: %.0f heap bytes per cached region produce + release; want no sample buffer (%d bytes)", tc.field, perOp, tc.size)
		}
	}
}

// TestShardRegionRequestAllocBytes is the allocation gate of a whole shard
// request at serve_scan's shape: 200 warmed GETs of the 48³ box [8,56)³ of
// the hot store, through newServer behind httptest, with every allocation
// of the process counted — net/http on both sides, the handler, the flight,
// the produce and the write. Each must allocate less than an eighth of its
// 432 KiB body, and none of its slabs may come from outside the pools
// (qozd_slab_unpooled_bytes_total does not move). While the slab bound was
// 256 KiB and the raw body was converted sample by sample through a chunk,
// the same loop measured 453 483 bytes per request.
func TestShardRegionRequestAllocBytes(t *testing.T) {
	path := buildHotStoreFile(t, t.TempDir())
	srv, err := newServer([]mount{{name: "hot", target: path}}, serverOptions{CacheBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	lo, hi := []int{8, 8, 8}, []int{56, 56, 56}
	want := referenceRaw(t, path, lo, hi)
	url := fmt.Sprintf("%s/v1/fields/hot/region?lo=%s&hi=%s", ts.URL, joinInts(lo, ","), joinInts(hi, ","))
	// The body lands in one buffer grown once, read to EOF so that the
	// connection is reused: the client's side adds nothing per request that
	// grows with the box.
	var body bytes.Buffer
	body.Grow(len(want) + bytes.MinRead)
	read := func() {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body.Reset()
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body.Bytes(), want) {
			t.Fatalf("GET %s: status %d, read error %v, body equal to the reference: %v", url, resp.StatusCode, err, bytes.Equal(body.Bytes(), want))
		}
	}
	for i := 0; i < 20; i++ { // decode into the cache, warm the connection and the pools
		read()
	}
	unpooled := pool.UnpooledSlabBytes()
	perOp := allocBytesPerOp(200, read)
	t.Logf("%.0f heap bytes allocated per %d-byte request", perOp, len(want))
	if d := pool.UnpooledSlabBytes() - unpooled; d != 0 {
		t.Errorf("%d slab bytes allocated above the pools' bound over 200 requests; a 48³ answer must be a pooled slab", d)
	}
	if raceEnabled {
		return
	}
	// Measured 11.0 KB: net/http's request, response and header objects on
	// both sides, the handler's parse, key and ETag, and nothing that grows
	// with the box. The bound is an eighth of the body, as for the
	// produce alone: a sample buffer per request, or a conversion of the
	// body into a second one, breaks it.
	if perOp >= float64(len(want))/8 {
		t.Errorf("%.0f heap bytes per request for a %d-byte region; a cached region request must allocate less than an eighth of what it returns", perOp, len(want))
	}
}
