package store

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qoz"
	"qoz/datagen"
)

// rangeLog records the byte ranges a test server actually served.
type rangeLog struct {
	mu     sync.Mutex
	ranges [][2]int64 // half-open [lo, hi)
}

func (l *rangeLog) add(lo, hi int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ranges = append(l.ranges, [2]int64{lo, hi})
}

func (l *rangeLog) snapshot() [][2]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][2]int64(nil), l.ranges...)
}

// parseRangeHeader parses a single-range "bytes=a-b" header into [a, b+1).
func parseRangeHeader(t *testing.T, h string) (lo, hi int64) {
	t.Helper()
	spec, ok := strings.CutPrefix(h, "bytes=")
	if !ok {
		t.Fatalf("unexpected Range header %q", h)
	}
	a, b, ok := strings.Cut(spec, "-")
	if !ok {
		t.Fatalf("unexpected Range header %q", h)
	}
	lo, err1 := strconv.ParseInt(a, 10, 64)
	end, err2 := strconv.ParseInt(b, 10, 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unexpected Range header %q", h)
	}
	return lo, end + 1
}

// servedObject is a swappable (content, ETag) pair behind a test server.
type servedObject struct {
	mu      sync.Mutex
	content []byte
	etag    string
}

func (o *servedObject) Set(content []byte, etag string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.content, o.etag = content, etag
}

func (o *servedObject) get() ([]byte, string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.content, o.etag
}

// serveRanges serves obj with range support and a strong ETag, logging
// every served range.
func serveRanges(t *testing.T, obj *servedObject, log *rangeLog) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, tag := obj.get()
		if h := req.Header.Get("Range"); h != "" && req.Method == http.MethodGet && log != nil {
			lo, hi := parseRangeHeader(t, h)
			if hi > int64(len(body)) {
				hi = int64(len(body))
			}
			log.add(lo, hi)
		}
		w.Header().Set("ETag", tag)
		http.ServeContent(w, req, "field.qozb", time.Unix(1700000000, 0), bytes.NewReader(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// remoteStoreBytes is remoteTestStore's store, built once per test binary:
// the remote tests run repeatedly under the race detector, where the
// build dominates each test.
var remoteStoreBytes = sync.OnceValues(func() ([]byte, error) {
	ds := datagen.NYX(32, 32, 32)
	var buf bytes.Buffer
	err := Write(context.Background(), &buf, ds.Data, ds.Dims, WriteOptions{
		Opts:  qoz.Options{RelBound: 1e-3},
		Brick: []int{8, 8, 8},
	})
	return buf.Bytes(), err
})

// remoteTestStore returns the bytes of a small brick store (a 32³ NYX
// field in 8³ bricks) and its extents. The bytes are shared: callers that
// corrupt them copy first.
func remoteTestStore(t *testing.T) ([]byte, []int) {
	t.Helper()
	content, err := remoteStoreBytes()
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	return content, []int{32, 32, 32}
}

// TestOpenURLRoundTrip is the acceptance contract of the remote backend:
// an httptest-served store answers ReadRegion bit-identically to a local
// open, while transferring only the header, the index+footer, and the
// byte ranges of the bricks the region intersects.
func TestOpenURLRoundTrip(t *testing.T) {
	content, _ := remoteTestStore(t)
	var log rangeLog
	srv := serveRanges(t, &servedObject{content: content, etag: `"v1"`}, &log)

	local, err := Open(bytes.NewReader(content), int64(len(content)), Options{CacheBytes: -1})
	if err != nil {
		t.Fatalf("local Open: %v", err)
	}
	remote, err := OpenURL(srv.URL, Options{CacheBytes: -1})
	if err != nil {
		t.Fatalf("OpenURL: %v", err)
	}

	lo, hi := []int{4, 4, 4}, []int{12, 12, 12} // straddles 8 of the 64 bricks
	want, err := local.ReadRegion(context.Background(), lo, hi)
	if err != nil {
		t.Fatalf("local ReadRegion: %v", err)
	}
	got, err := remote.ReadRegion(context.Background(), lo, hi)
	if err != nil {
		t.Fatalf("remote ReadRegion: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("remote region has %d points, local %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("remote region differs from local at %d: %v != %v", i, got[i], want[i])
		}
	}

	// Transfer audit: mark the bytes the protocol is allowed to touch —
	// header probe, index+footer, and intersecting bricks — then check
	// every served range stayed inside them and that exactly the
	// intersecting bricks' payload bytes crossed the network.
	size := int64(len(content))
	nb := local.NumBricks()
	lman := local.man.Load()
	idxOff := lman.bricks[nb-1].off + lman.bricks[nb-1].len
	allowed := make([]bool, size)
	mark := func(lo, hi int64) {
		for i := lo; i < hi; i++ {
			allowed[i] = true
		}
	}
	mark(0, min(size, int64(maxHeaderLen))) // header probe
	mark(idxOff, size)                      // manifest + footer
	hit, err := local.IntersectingBricks(lo, hi)
	if err != nil || len(hit) != 8 {
		t.Fatalf("expected the region to intersect 8 bricks, got %d", len(hit))
	}
	for _, b := range hit {
		e := lman.bricks[b]
		mark(e.off, e.off+e.len)
	}
	fetched := make([]bool, size)
	for _, rg := range log.snapshot() {
		for i := rg[0]; i < rg[1]; i++ {
			if !allowed[i] {
				t.Fatalf("range [%d,%d) touches byte %d outside the header, index, and intersecting bricks", rg[0], rg[1], i)
			}
			fetched[i] = true
		}
	}
	for _, b := range hit {
		e := lman.bricks[b]
		for i := e.off; i < e.off+e.len; i++ {
			if !fetched[i] {
				t.Fatalf("byte %d of intersecting brick %d was never fetched", i, b)
			}
		}
	}

	st := remote.Stats()
	if st.RemoteRanges == 0 || st.RemoteBytes == 0 {
		t.Fatalf("remote stats not plumbed: %+v", st)
	}
}

// TestRemoteRetry exercises the backoff path: transient 5xx answers must
// be retried and the read must still succeed.
func TestRemoteRetry(t *testing.T) {
	content, _ := remoteTestStore(t)
	var fails atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodGet && req.Header.Get("Range") != "" && fails.Add(1) <= 2 {
			http.Error(w, "flaky", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("ETag", `"v1"`)
		http.ServeContent(w, req, "field.qozb", time.Unix(1700000000, 0), bytes.NewReader(content))
	}))
	defer srv.Close()

	s, err := OpenURL(srv.URL, Options{Remote: RemoteOptions{
		MaxRetries:   3,
		RetryBackoff: time.Millisecond,
	}})
	if err != nil {
		t.Fatalf("OpenURL through transient 503s: %v", err)
	}
	if _, err := s.ReadRegion(context.Background(), []int{0, 0, 0}, []int{8, 8, 8}); err != nil {
		t.Fatalf("ReadRegion: %v", err)
	}
	if fails.Load() < 2 {
		t.Fatalf("server never returned the injected 503s")
	}

	// With retries disabled the same fault is fatal.
	fails.Store(0)
	if _, err := OpenURL(srv.URL, Options{Remote: RemoteOptions{MaxRetries: -1}}); err == nil {
		t.Fatal("OpenURL succeeded without retries against a failing server")
	}
}

// TestRemoteRetryMidBody verifies that a connection dropped while the
// range body is streaming — the most common transient fault — is retried,
// not surfaced.
func TestRemoteRetryMidBody(t *testing.T) {
	content, _ := remoteTestStore(t)
	var attempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		h := req.Header.Get("Range")
		if h == "" || req.Method != http.MethodGet {
			w.Header().Set("ETag", `"v1"`)
			http.ServeContent(w, req, "field.qozb", time.Unix(1700000000, 0), bytes.NewReader(content))
			return
		}
		lo, hi := parseRangeHeader(t, h)
		if hi > int64(len(content)) {
			hi = int64(len(content))
		}
		w.Header().Set("ETag", `"v1"`)
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", lo, hi-1, len(content)))
		w.Header().Set("Content-Length", strconv.FormatInt(hi-lo, 10))
		w.WriteHeader(http.StatusPartialContent)
		if attempts.Add(1)%2 == 1 {
			// Every odd attempt sends half the promised body and returns;
			// the server closes the connection short and the client sees an
			// unexpected EOF mid-read.
			w.Write(content[lo : lo+(hi-lo)/2])
			return
		}
		w.Write(content[lo:hi])
	}))
	defer srv.Close()

	s, err := OpenURL(srv.URL, Options{Remote: RemoteOptions{
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
	}})
	if err != nil {
		t.Fatalf("OpenURL through truncated bodies: %v", err)
	}
	if _, err := s.ReadRegion(context.Background(), []int{0, 0, 0}, []int{8, 8, 8}); err != nil {
		t.Fatalf("ReadRegion through truncated bodies: %v", err)
	}
	if attempts.Load() < 2 {
		t.Fatal("server never truncated a body; the retry path was not exercised")
	}
}

// TestOpenURLContextDeadline verifies a mount against an origin that
// accepts connections but never answers fails at the caller's deadline
// instead of hanging forever.
func TestOpenURLContextDeadline(t *testing.T) {
	hang := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		<-hang
	}))
	defer func() { close(hang); srv.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := OpenURLContext(ctx, srv.URL, Options{})
	if err == nil {
		t.Fatal("OpenURLContext against a hung origin succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("OpenURLContext returned %v, want a deadline error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("OpenURLContext took %v to observe a 50ms deadline", elapsed)
	}
}

// TestOpenURLNoRangeSupport verifies an origin that ignores Range is
// rejected with a clear error — without the client draining the whole
// object to find out.
func TestOpenURLNoRangeSupport(t *testing.T) {
	content, _ := remoteTestStore(t)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// Always answer 200 with the full body, Range or not.
		w.Header().Set("Content-Length", strconv.Itoa(len(content)))
		n, _ := w.Write(content)
		served.Add(int64(n))
	}))
	defer srv.Close()

	// The header fetch asks for less than the whole object, so a 200
	// carrying the whole object is not the range that was asked for.
	_, err := OpenURL(srv.URL, Options{Remote: RemoteOptions{MaxRetries: -1}})
	if err == nil || !strings.Contains(err.Error(), "does not support range requests") {
		t.Fatalf("OpenURL against a rangeless origin returned %v", err)
	}
}

// TestOpenURLContextDeadlineDuringManifest verifies a deadline that fires
// after the size probe, while the header is being fetched, still surfaces
// as a context error rather than being masked as a corrupt archive.
func TestOpenURLContextDeadlineDuringManifest(t *testing.T) {
	content, _ := remoteTestStore(t)
	hang := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodHead {
			w.Header().Set("Content-Length", strconv.Itoa(len(content)))
			return
		}
		<-hang // every ranged GET stalls
	}))
	defer func() { close(hang); srv.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := OpenURLContext(ctx, srv.URL, Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("manifest fetch past the deadline returned %v, want context.DeadlineExceeded", err)
	}
}

// TestRemoteCorruptRange verifies a flipped byte inside a brick payload is
// rejected by the per-brick checksum when served remotely.
func TestRemoteCorruptRange(t *testing.T) {
	content, _ := remoteTestStore(t)
	local, err := Open(bytes.NewReader(content), int64(len(content)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), content...)
	bad[local.man.Load().bricks[0].off+2] ^= 0x40
	srv := serveRanges(t, &servedObject{content: bad, etag: `"v1"`}, nil)

	s, err := OpenURL(srv.URL, Options{})
	if err != nil {
		t.Fatalf("OpenURL: %v", err) // header and index are intact
	}
	_, err = s.ReadRegion(context.Background(), []int{0, 0, 0}, []int{8, 8, 8})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt remote brick returned %v, want ErrCorrupt", err)
	}
}

// TestRemoteChanged verifies that swapping the object (new ETag) between
// open and read fails the read instead of mixing two store versions.
func TestRemoteChanged(t *testing.T) {
	content, _ := remoteTestStore(t)
	obj := &servedObject{content: content, etag: `"v1"`}
	srv := serveRanges(t, obj, nil)

	s, err := OpenURL(srv.URL, Options{})
	if err != nil {
		t.Fatalf("OpenURL: %v", err)
	}

	// Replace the object: same store format, different content and ETag.
	ds := datagen.Hurricane(32, 32, 32)
	var buf bytes.Buffer
	if err := Write(context.Background(), &buf, ds.Data, ds.Dims, WriteOptions{
		Opts:  qoz.Options{RelBound: 1e-3},
		Brick: []int{8, 8, 8},
	}); err != nil {
		t.Fatal(err)
	}
	obj.Set(buf.Bytes(), `"v2"`)

	_, err = s.ReadRegion(context.Background(), []int{0, 0, 0}, []int{8, 8, 8})
	if !errors.Is(err, ErrRemoteChanged) {
		t.Fatalf("read after remote swap returned %v, want ErrRemoteChanged", err)
	}
}

// servedRanges returns the ranges a server logged since the first n
// entries, sorted by offset.
func servedRanges(log *rangeLog, n int) []fetchSpan {
	var out []fetchSpan
	for _, rg := range log.snapshot()[n:] {
		out = append(out, fetchSpan{rg[0], rg[1] - rg[0]})
	}
	slices.SortFunc(out, func(a, b fetchSpan) int { return cmp.Compare(a.off, b.off) })
	return out
}

// TestRemoteReadAheadCoalescing pins a URL read's traffic to its fetch
// plan, by count: with the default ReadAhead (exact spans) and with one
// that bridges every gap, the open fetches only the header window, the
// footer and the manifest, each as an exact range; and every read — whole
// field and a box across brick corners, at levels 1 to 3 — issues exactly
// the plan's merged ranges, so its bytes are the wanted spans plus the
// gaps the bound bridged.
func TestRemoteReadAheadCoalescing(t *testing.T) {
	content, dims := remoteTestStore(t)
	size := int64(len(content))
	for _, gap := range []int64{0, 1 << 20} {
		var log rangeLog
		srv := serveRanges(t, &servedObject{content: content, etag: `"v1"`}, &log)
		s, err := OpenURL(srv.URL, Options{CacheBytes: -1, Remote: RemoteOptions{ReadAhead: gap}})
		if err != nil {
			t.Fatalf("OpenURL: %v", err)
		}
		m := s.man.Load()
		last := m.bricks[len(m.bricks)-1]
		opened := servedRanges(&log, 0)
		for _, rg := range opened {
			header := rg == fetchSpan{0, min(size, maxHeaderLen)}
			footer := rg == fetchSpan{m.footOff, size - m.footOff}
			manifest := rg.off >= last.off+last.len && rg.off+rg.n == m.footOff
			if !header && !footer && !manifest {
				t.Fatalf("gap %d: open fetched %v, which is not the header window, the footer or the manifest", gap, rg)
			}
		}
		if st := s.Stats(); st.RemoteBytes != spanBytes(opened) || st.RemoteRanges != int64(len(opened)) {
			t.Fatalf("gap %d: open counted %d bytes in %d ranges, server saw %d in %d", gap, st.RemoteBytes, st.RemoteRanges, spanBytes(opened), len(opened))
		}
		for _, box := range []Box{{make([]int, 3), dims}, {[]int{4, 4, 4}, []int{12, 12, 12}}} {
			for level := 1; level <= 3; level++ {
				n, before := len(log.snapshot()), s.Stats()
				if _, _, err := s.ReadRegionLevel(context.Background(), box.Lo, box.Hi, level); err != nil {
					t.Fatal(err)
				}
				got := servedRanges(&log, n)
				spans := wantedSpans(m, []Box{box}, level)
				want, _ := planRanges(spans, gap)
				if !slices.Equal(got, want) {
					t.Fatalf("gap %d box %v level %d: served ranges %v, plan %v", gap, box, level, got, want)
				}
				after := s.Stats()
				if d := after.RemoteRanges - before.RemoteRanges; d != int64(len(want)) {
					t.Errorf("gap %d box %v level %d: %d range requests, plan has %d", gap, box, level, d, len(want))
				}
				if d := after.RemoteBytes - before.RemoteBytes; d != spanBytes(want) || (gap <= 0 && d != spanBytes(spans)) {
					t.Errorf("gap %d box %v level %d: fetched %d bytes; plan holds %d, wanted spans %d", gap, box, level, d, spanBytes(want), spanBytes(spans))
				}
			}
		}
		s.Close()
	}
}

// faultServer serves content with range support and a strong ETag, logging
// every ranged GET; once armed, each ranged GET is first offered to fault,
// which answers it itself by returning true.
func faultServer(t *testing.T, content []byte, log *rangeLog, fault func(w http.ResponseWriter, req *http.Request, lo, hi int64) bool) (srv *httptest.Server, arm func()) {
	t.Helper()
	var armed atomic.Bool
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if h := req.Header.Get("Range"); h != "" && req.Method == http.MethodGet {
			lo, hi := parseRangeHeader(t, h)
			hi = min(hi, int64(len(content)))
			log.add(lo, hi)
			if armed.Load() && fault(w, req, lo, hi) {
				return
			}
		}
		w.Header().Set("ETag", `"v1"`)
		http.ServeContent(w, req, "field.qozb", time.Unix(1700000000, 0), bytes.NewReader(content))
	}))
	t.Cleanup(srv.Close)
	return srv, func() { armed.Store(true) }
}

// cornerBox meets bricks 0, 4, 16 and 20 of remoteTestStore's 4×4×4 grid:
// no two of them touch, so a cold read plans four ranges.
var cornerBox = Box{Lo: []int{0, 0, 0}, Hi: []int{16, 16, 8}}

// TestRemoteFetchConcurrent checks that a cold read's ranges are in flight
// at once: the server holds every range request of the read until all k
// of the plan's have arrived, so a read that issued them one at a time
// would wait out the timeout and fail.
func TestRemoteFetchConcurrent(t *testing.T) {
	content, _ := remoteTestStore(t)
	local, err := Open(bytes.NewReader(content), int64(len(content)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := planRanges(wantedSpans(local.man.Load(), []Box{cornerBox}, 1), 0)
	k := len(plan)
	if k != 4 {
		t.Fatalf("corner box plans %d ranges, want 4", k)
	}
	var arrived atomic.Int32
	var timedOut atomic.Bool
	all := make(chan struct{})
	var log rangeLog
	srv, arm := faultServer(t, content, &log, func(w http.ResponseWriter, req *http.Request, lo, hi int64) bool {
		if arrived.Add(1) == int32(k) {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			timedOut.Store(true)
		}
		return false
	})
	s, err := OpenURL(srv.URL, Options{CacheBytes: -1, Workers: k})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	arm()
	if _, err := s.ReadRegion(context.Background(), cornerBox.Lo, cornerBox.Hi); err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() || arrived.Load() != int32(k) {
		t.Fatalf("%d range requests arrived and timed out %v: the plan's %d ranges were not in flight at once", arrived.Load(), timedOut.Load(), k)
	}
}

// TestRemoteFetchPlanFaults runs faults on the plan's ranges: a read
// cancelled while its ranges are in flight, a 503 on one range, and a bit
// flip inside a range that carries many bricks.
func TestRemoteFetchPlanFaults(t *testing.T) {
	content, _ := remoteTestStore(t)
	local, err := Open(bytes.NewReader(content), int64(len(content)), Options{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	lman := local.man.Load()
	plan, _ := planRanges(wantedSpans(lman, []Box{cornerBox}, 1), 0)
	ctx := context.Background()

	t.Run("cancel", func(t *testing.T) {
		arrived := make(chan struct{}, len(plan))
		var log rangeLog
		srv, arm := faultServer(t, content, &log, func(w http.ResponseWriter, req *http.Request, lo, hi int64) bool {
			arrived <- struct{}{}
			<-req.Context().Done() // hold the range until the client gives up
			return true
		})
		s, err := OpenURL(srv.URL, Options{CacheBytes: -1, Workers: len(plan)})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		base := runtime.NumGoroutine()
		arm()
		rctx, cancel := context.WithCancel(ctx)
		go func() {
			for range plan {
				select {
				case <-arrived:
				case <-time.After(10 * time.Second):
				}
			}
			cancel()
		}()
		start := time.Now()
		_, err = s.ReadRegion(rctx, cornerBox.Lo, cornerBox.Hi)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled read returned %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("cancelled read took %v to return", d)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d goroutines after the cancelled read, %d before it", n, base)
		}
	})

	t.Run("503", func(t *testing.T) {
		var failed atomic.Bool
		var log rangeLog
		target := plan[len(plan)/2]
		srv, arm := faultServer(t, content, &log, func(w http.ResponseWriter, req *http.Request, lo, hi int64) bool {
			if lo != target.off || !failed.CompareAndSwap(false, true) {
				return false
			}
			http.Error(w, "flaky", http.StatusServiceUnavailable)
			return true
		})
		s, err := OpenURL(srv.URL, Options{CacheBytes: -1, Remote: RemoteOptions{RetryBackoff: time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		arm()
		n, before := len(log.snapshot()), s.Stats()
		got, err := s.ReadRegion(ctx, cornerBox.Lo, cornerBox.Hi)
		if err != nil {
			t.Fatal(err)
		}
		after := s.Stats()
		if d := after.RemoteRanges - before.RemoteRanges; d != int64(len(plan))+1 {
			t.Errorf("%d range requests for a %d-range plan with one 503", d, len(plan))
		}
		if d := after.RemoteBytes - before.RemoteBytes; d != spanBytes(plan) {
			t.Errorf("fetched %d bytes, plan holds %d", d, spanBytes(plan))
		}
		want := append(slices.Clone(plan), target)
		slices.SortFunc(want, func(a, b fetchSpan) int { return cmp.Compare(a.off, b.off) })
		if served := servedRanges(&log, n); !slices.Equal(served, want) {
			t.Errorf("served %v; want the plan %v with %v retried alone", served, plan, target)
		}
		ref, err := local.ReadRegion(ctx, cornerBox.Lo, cornerBox.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, ref) {
			t.Error("read through a retried range differs from the local read")
		}
	})

	t.Run("bitflip", func(t *testing.T) {
		const victim = 21 // in the middle of the one range a whole-field read plans
		bad := slices.Clone(content)
		e := lman.bricks[victim]
		bad[e.off+e.len/2] ^= 0x10
		srv := serveRanges(t, &servedObject{content: bad, etag: `"v1"`}, nil)
		s, err := OpenURL(srv.URL, Options{CacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		whole := []Box{{make([]int, 3), lman.hdr.dims}}
		if p, _ := planRanges(wantedSpans(lman, whole, 1), 0); len(p) != 1 {
			t.Fatalf("whole-field read plans %d ranges, want 1", len(p))
		}
		_, err = s.ReadField(ctx)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("brick %d:", victim)) {
			t.Fatalf("flipped bit in brick %d returned %v, want ErrCorrupt naming the brick", victim, err)
		}
	})
}

// TestRemoteContentRangeEnforced checks that a 206 whose Content-Range is
// not exactly the requested range is refused at once, as the origin's
// fault naming the URL — not accepted and blamed on the store as a
// checksum mismatch, and not retried.
func TestRemoteContentRangeEnforced(t *testing.T) {
	content, _ := remoteTestStore(t)
	size := int64(len(content))
	local, err := Open(bytes.NewReader(content), size, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lman := local.man.Load()
	last := lman.bricks[len(lman.bricks)-1]
	payload := fetchSpan{lman.bricks[0].off, last.off + last.len - lman.bricks[0].off}
	for name, header := range map[string]func(lo, hi int64) string{
		"missing":     func(lo, hi int64) string { return "" },
		"wrong-start": func(lo, hi int64) string { return fmt.Sprintf("bytes %d-%d/%d", lo+3, hi+2, size) },
	} {
		t.Run(name, func(t *testing.T) {
			var attempts atomic.Int32
			var log rangeLog
			srv, arm := faultServer(t, content, &log, func(w http.ResponseWriter, req *http.Request, lo, hi int64) bool {
				if lo < payload.off || hi > payload.off+payload.n {
					return false
				}
				attempts.Add(1)
				// The body starts 3 bytes late, as the header (if any) says.
				if h := header(lo, hi); h != "" {
					w.Header().Set("Content-Range", h)
				}
				w.Header().Set("ETag", `"v1"`)
				w.Header().Set("Content-Length", strconv.FormatInt(hi-lo, 10))
				w.WriteHeader(http.StatusPartialContent)
				w.Write(content[lo+3 : hi+3])
				return true
			})
			s, err := OpenURL(srv.URL, Options{CacheBytes: -1, Remote: RemoteOptions{RetryBackoff: time.Millisecond}})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			arm()
			_, err = s.ReadRegion(context.Background(), []int{0, 0, 0}, []int{8, 8, 8})
			if err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), srv.URL) {
				t.Fatalf("206 with a bad Content-Range returned %v, want an origin error naming %s", err, srv.URL)
			}
			if n := attempts.Load(); n != 1 {
				t.Fatalf("bad 206 was requested %d times, want once (not retryable)", n)
			}
		})
	}
}
