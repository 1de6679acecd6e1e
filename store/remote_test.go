package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
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

// remoteTestStore builds a small brick store and returns its bytes.
func remoteTestStore(t *testing.T) ([]byte, []int) {
	t.Helper()
	ds := datagen.NYX(32, 32, 32)
	var buf bytes.Buffer
	err := Write(context.Background(), &buf, ds.Data, ds.Dims, WriteOptions{
		Opts:  qoz.Options{RelBound: 1e-3},
		Brick: []int{8, 8, 8},
	})
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes(), ds.Dims
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
	remote, err := OpenURL(srv.URL, Options{
		CacheBytes: -1,
		Remote:     RemoteOptions{ReadAhead: -1}, // exact ranges, so transfers are auditable
	})
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
		ReadAhead:    -1,
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

	// ReadAhead is disabled so the header fetch asks for less than the
	// whole object; with read-ahead spanning the full (small) object a 200
	// carrying exactly the requested bytes would be a legitimate answer.
	_, err := OpenURL(srv.URL, Options{Remote: RemoteOptions{MaxRetries: -1, ReadAhead: -1}})
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

	s, err := OpenURL(srv.URL, Options{Remote: RemoteOptions{ReadAhead: -1}})
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

	s, err := OpenURL(srv.URL, Options{Remote: RemoteOptions{ReadAhead: -1}})
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

// TestRemoteReadAheadCoalescing verifies that read-ahead turns many
// adjacent brick fetches into a handful of round trips.
func TestRemoteReadAheadCoalescing(t *testing.T) {
	content, _ := remoteTestStore(t)
	srv := serveRanges(t, &servedObject{content: content, etag: `"v1"`}, nil)

	s, err := OpenURL(srv.URL, Options{Remote: RemoteOptions{ReadAhead: 1 << 20}})
	if err != nil {
		t.Fatalf("OpenURL: %v", err)
	}
	if _, err := s.ReadField(context.Background()); err != nil {
		t.Fatalf("ReadField: %v", err)
	}
	st := s.Stats()
	// With a window spanning the whole (small) object and single-flight
	// coalescing, the very first fetch covers everything: concurrent brick
	// decodes must not issue duplicate overlapping windows.
	if st.RemoteRanges > 2 {
		t.Fatalf("full read issued %d range requests for %d bricks; read-ahead never coalesced", st.RemoteRanges, s.NumBricks())
	}
}
