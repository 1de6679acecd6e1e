package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Remote backend: a brick store is already laid out for partial reads —
// header at the front, index behind a fixed footer, every brick locatable
// in O(1) — so serving ROI queries straight from an object store needs
// nothing more than an io.ReaderAt whose ReadAt is an HTTP Range request.
// OpenURL composes that reader with the ordinary Open: only the header,
// the index, and the bricks a region actually intersects ever cross the
// network.

// Defaults for RemoteOptions zero values.
const (
	defaultRemoteRetries = 3
	defaultRemoteBackoff = 100 * time.Millisecond
)

// ErrRemoteChanged reports that the object behind a store changed
// incompatibly: mid-read, the server's validator no longer matches, so
// ranges fetched before and after would mix two versions of the store;
// under Refresh, the backing object's committed generation regressed or
// was rewritten, or its identity (codec, element kind, bricking, bound,
// fixed extents) moved — either way the store must be re-opened, not
// patched up.
var ErrRemoteChanged = errors.New("store: backing object changed incompatibly")

// RemoteOptions configures the HTTP range-read backend.
type RemoteOptions struct {
	// Client issues the requests; nil selects http.DefaultClient.
	Client *http.Client
	// MaxRetries is how many times a failed range request (transport error
	// or 5xx) is retried with exponential backoff; 0 selects 3, negative
	// disables retries.
	MaxRetries int
	// RetryBackoff is the initial backoff, doubled per retry; 0 selects
	// 100ms.
	RetryBackoff time.Duration
	// ReadAhead is the largest gap, in bytes, a read's fetch plan bridges
	// between the spans it wants, so bricks that lie near each other but do
	// not touch arrive in one range request instead of one each. The
	// bridged bytes are fetched and thrown away. 0 (the default) and
	// negative values bridge nothing: a read fetches exactly the payload
	// bytes it decodes, in one request per run of touching spans.
	ReadAhead int64
}

// RemoteStats counts a RemoteReader's traffic.
type RemoteStats struct {
	// Ranges is the number of HTTP range requests issued (per attempt, so
	// retries count).
	Ranges int64
	// Bytes is the total payload bytes fetched.
	Bytes int64
}

// RemoteReader is an io.ReaderAt over HTTP Range requests, suitable for
// any server that honors Range (S3, GCS, nginx, http.ServeContent, ...).
// Every ReadAt is one exact range request, validated against the object's
// ETag and the answer's Content-Range and retried on transient failures
// with backoff; which ranges to ask for is the store's fetch plan's
// business. Safe for concurrent use.
type RemoteReader struct {
	url     string
	client  *http.Client
	retries int
	backoff time.Duration

	// stateMu guards the object's validator, which moves when Refresh
	// picks up a new committed generation of a mutable store: setState
	// swaps etag and size together, so no read can pair an old validator
	// with new bytes.
	stateMu sync.RWMutex
	etag    string
	size    int64

	ranges atomic.Int64
	bytes  atomic.Int64
}

// NewRemoteReader probes url (HEAD, falling back to a 1-byte range GET)
// for the object's size and validator and returns a ReaderAt over it.
func NewRemoteReader(url string, ro RemoteOptions) (*RemoteReader, error) {
	return newRemoteReader(context.Background(), url, ro)
}

func newRemoteReader(ctx context.Context, url string, ro RemoteOptions) (*RemoteReader, error) {
	r := &RemoteReader{
		url:     url,
		client:  ro.Client,
		retries: ro.MaxRetries,
		backoff: ro.RetryBackoff,
	}
	if r.client == nil {
		r.client = http.DefaultClient
	}
	switch {
	case r.retries == 0:
		r.retries = defaultRemoteRetries
	case r.retries < 0:
		r.retries = 0
	}
	if r.backoff <= 0 {
		r.backoff = defaultRemoteBackoff
	}
	etag, size, err := r.fetchMeta(ctx)
	if err != nil {
		return nil, err
	}
	r.setState(etag, size)
	return r, nil
}

// Size returns the remote object's byte length (as of the last probe or
// Refresh).
func (r *RemoteReader) Size() int64 {
	_, size := r.state()
	return size
}

// state returns the validator pair under the lock.
func (r *RemoteReader) state() (etag string, size int64) {
	r.stateMu.RLock()
	defer r.stateMu.RUnlock()
	return r.etag, r.size
}

// setState adopts a new validator pair.
func (r *RemoteReader) setState(etag string, size int64) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	r.etag = etag
	r.size = size
}

// Stats returns the traffic counters accumulated since NewRemoteReader.
func (r *RemoteReader) Stats() RemoteStats {
	return RemoteStats{Ranges: r.ranges.Load(), Bytes: r.bytes.Load()}
}

// drainClose releases a response body for connection reuse without ever
// pulling more than a few KiB: a disqualified response (a 200 where a
// range was asked, an error page) may be the entire multi-terabyte
// object, and the error path must not download it.
func drainClose(body io.ReadCloser) {
	io.CopyN(io.Discard, body, 4<<10)
	body.Close()
}

// fetchMeta asks the origin for the object's current size and validator
// without touching the reader's state.
func (r *RemoteReader) fetchMeta(ctx context.Context) (etag string, size int64, _ error) {
	resp, err := r.do(ctx, http.MethodHead, -1, -1)
	if err != nil {
		// do already spent the whole retry budget proving the origin is
		// down; running the GET fallback's ladder on top would double the
		// time to fail for nothing.
		return "", 0, err
	}
	if resp.StatusCode == http.StatusOK && resp.ContentLength >= 0 {
		etag = resp.Header.Get("ETag")
		size = resp.ContentLength
		resp.Body.Close()
		return etag, size, nil
	}
	drainClose(resp.Body)
	// HEAD answered but is unsupported or unsized: a 1-byte range GET
	// carries the total length in Content-Range and proves the server
	// honors Range at all.
	resp, err = r.do(ctx, http.MethodGet, 0, 1)
	if err != nil {
		return "", 0, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusPartialContent {
		return "", 0, fmt.Errorf("store: %s does not support range requests (status %s)", r.url, resp.Status)
	}
	total, err := contentRangeTotal(resp.Header.Get("Content-Range"))
	if err != nil {
		return "", 0, fmt.Errorf("store: %s: %w", r.url, err)
	}
	return resp.Header.Get("ETag"), total, nil
}

// versionReader is an io.ReaderAt over one version of the remote object,
// pinned by (etag, size) and reading under one context; every range is
// guarded by If-Range on that validator. Reads of the adopted version go
// through at; Refresh inspects a candidate version through one BEFORE
// adopting anything, so a rejected candidate leaves the reader's state —
// and every in-flight read — exactly as it was.
type versionReader struct {
	r    *RemoteReader
	ctx  context.Context
	etag string
	size int64
}

// ReadAt reads what of p the object holds at off in one range request; a
// read cut short by the object's end returns io.EOF with the bytes it got.
func (v versionReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: negative remote read offset %d", off)
	}
	n := min(int64(len(p)), max(v.size-off, 0))
	if n > 0 {
		if err := v.r.readRange(v.ctx, p[:n], off, v.etag, v.size); err != nil {
			return 0, err
		}
	}
	if n < int64(len(p)) {
		return int(n), io.EOF
	}
	return int(n), nil
}

// do retries doOnce on header-level transient failures; the caller owns
// the response body. Used by fetchMeta, where the body is discarded anyway
// (and no validator is pinned — probing measures whatever is there);
// readRange retries whole attempts so mid-body failures retry too.
func (r *RemoteReader) do(ctx context.Context, method string, off, n int64) (resp *http.Response, err error) {
	err = r.retry(ctx, func() (bool, error) {
		resp, err = r.doOnce(ctx, method, off, n, "")
		if err == nil && resp.StatusCode >= 500 {
			drainClose(resp.Body)
			err = fmt.Errorf("store: %s: %s", r.url, resp.Status)
		}
		return true, err
	})
	return resp, err
}

// retry runs attempt until it succeeds, fails for good (retryable false),
// or has used up the retry budget, backing off exponentially in between.
func (r *RemoteReader) retry(ctx context.Context, attempt func() (retryable bool, err error)) error {
	for i := 0; ; i++ {
		retryable, err := attempt()
		if err == nil || !retryable || i >= r.retries {
			return err
		}
		if err := r.sleep(ctx, i); err != nil {
			return err
		}
	}
}

// doOnce issues one request. off/n select a byte range (off < 0 means no
// Range header); etag, when non-empty, pins the range to one object
// version via If-Range.
func (r *RemoteReader) doOnce(ctx context.Context, method string, off, n int64, etag string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, r.url, nil)
	if err != nil {
		return nil, err
	}
	if off >= 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+n-1))
		// If-Range degrades a stale validator to a full-body 200, which
		// readRange turns into ErrRemoteChanged instead of serving bytes
		// from a different version of the store. Weak validators cannot
		// guard byte ranges, so only a strong ETag is used.
		if etag != "" && !strings.HasPrefix(etag, "W/") {
			req.Header.Set("If-Range", etag)
		}
	}
	resp, err := r.client.Do(req)
	if off >= 0 && err == nil {
		r.ranges.Add(1)
	}
	return resp, err
}

// sleep backs off before retry attempt+1, or returns early on cancel.
// The doubling is capped: an unclamped shift overflows time.Duration
// around attempt 33 and would turn patient retries into a hot loop.
func (r *RemoteReader) sleep(ctx context.Context, attempt int) error {
	const maxBackoff = 30 * time.Second
	d := maxBackoff
	if attempt < 30 && r.backoff<<attempt < maxBackoff {
		d = r.backoff << attempt
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// readRange fills p with exactly [off, off+len(p)) of the object version
// (etag, size), retrying transient failures — transport errors, 5xx
// answers, and connections dropped mid-body — with exponential backoff.
func (r *RemoteReader) readRange(ctx context.Context, p []byte, off int64, etag string, size int64) error {
	return r.retry(ctx, func() (bool, error) { return r.tryRange(ctx, p, off, etag, size) })
}

// tryRange is one readRange attempt; retryable marks faults worth another
// attempt (protocol-level rejections like a changed object are final).
func (r *RemoteReader) tryRange(ctx context.Context, p []byte, off int64, etag string, size int64) (retryable bool, _ error) {
	n := int64(len(p))
	resp, err := r.doOnce(ctx, http.MethodGet, off, n, etag)
	if err != nil {
		return true, err
	}
	defer drainClose(resp.Body)
	switch {
	case resp.StatusCode >= 500:
		return true, fmt.Errorf("store: %s: %s", r.url, resp.Status)
	case resp.StatusCode == http.StatusPartialContent:
	case resp.StatusCode == http.StatusOK:
		// Either If-Range detected a changed object or the server ignored
		// Range. A full body is only the answer when it IS the range.
		if off == 0 && resp.ContentLength == size && n == size {
			break
		}
		// Only a present-and-different validator proves the object was
		// swapped; a 200 with no ETag (a proxy error page, a stripped
		// header) is a range-support failure, not a changed object.
		if et := resp.Header.Get("ETag"); etag != "" && et != "" && et != etag {
			return false, ErrRemoteChanged
		}
		return false, fmt.Errorf("store: %s does not support range requests", r.url)
	default:
		return false, fmt.Errorf("store: %s: %s", r.url, resp.Status)
	}
	if et := resp.Header.Get("ETag"); et != "" && etag != "" && et != etag {
		return false, ErrRemoteChanged
	}
	if resp.StatusCode == http.StatusPartialContent {
		// The body is only known to be the bytes asked for when the answer
		// says so exactly; anything else is the origin's fault, and feeding
		// it on would surface as a checksum failure of every brick the
		// range carries.
		want := fmt.Sprintf("bytes %d-%d/", off, off+n-1)
		if h := resp.Header.Get("Content-Range"); !strings.HasPrefix(h, want) {
			return false, fmt.Errorf("store: %s: 206 with Content-Range %q for bytes %d-%d", r.url, h, off, off+n-1)
		}
	}
	if _, err := io.ReadFull(resp.Body, p); err != nil {
		return true, fmt.Errorf("store: %s: short range body: %w", r.url, err)
	}
	r.bytes.Add(n)
	return false, nil
}

// ReadAt implements io.ReaderAt: one exact range request of the adopted
// version.
func (r *RemoteReader) ReadAt(p []byte, off int64) (int, error) {
	return r.at(context.Background()).ReadAt(p, off)
}

// at returns a reader of the adopted version under ctx, so a cancelled
// read aborts its in-flight range requests. The validator pair is taken
// once: a Refresh adopting a new version mid-read cannot pair the old
// size with the new etag.
func (r *RemoteReader) at(ctx context.Context) io.ReaderAt {
	etag, size := r.state()
	return versionReader{r: r, ctx: ctx, etag: etag, size: size}
}

// contentRangeTotal parses the total length out of "bytes a-b/total".
func contentRangeTotal(h string) (int64, error) {
	_, after, ok := strings.Cut(h, "/")
	if !ok {
		return 0, fmt.Errorf("unparseable Content-Range %q", h)
	}
	total, err := strconv.ParseInt(after, 10, 64)
	if err != nil || total <= 0 {
		return 0, fmt.Errorf("unparseable Content-Range %q", h)
	}
	return total, nil
}

// OpenURL opens a brick store served over HTTP: the manifest is fetched
// with range requests and region reads fetch only the bricks they
// intersect, so a multi-terabyte archive in a bucket serves an ROI with a
// handful of round trips. Configure the transport via Options.Remote.
// OpenURL blocks on the probe and manifest fetches with no deadline of
// its own; use OpenURLContext (or a timeout-bearing http.Client) when the
// origin may hang.
func OpenURL(url string, opts Options) (*Store, error) {
	return OpenURLContext(context.Background(), url, opts)
}

// OpenURLContext is OpenURL under a context: the size probe and the
// header/index fetches observe ctx, so a mount against an unresponsive
// origin can be cancelled or given a deadline. The returned Store is not
// bound to ctx — region reads observe their own contexts.
func OpenURLContext(ctx context.Context, url string, opts Options) (*Store, error) {
	rr, err := newRemoteReader(ctx, url, opts.Remote)
	if err != nil {
		return nil, err
	}
	s, err := Open(rr.at(ctx), rr.Size(), opts)
	if err != nil {
		return nil, err
	}
	// The manifest's reader is rebound off the open-time context: every
	// read reaches the origin under its own (fetchRange.fetch).
	s.man.Load().ra = rr
	s.remote = rr
	s.path = url
	s.gap = opts.Remote.ReadAhead
	return s, nil
}
