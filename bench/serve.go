package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"qoz"
	"qoz/internal/container"
	"qoz/store"
)

const (
	// scheduleLen is the length of each client's pre-generated request
	// list; a client that exhausts it starts over.
	scheduleLen = 1 << 16
	// warmOps is how many requests each client sends before the clock
	// starts, so caches and connections are in their steady state.
	warmOps = 100
)

// serveWorkload is the two HTTP workloads, both over stores of the same two
// 128³ float32 fields (smooth and rough) in brick³ bricks.
//
// serve_scan: one qozd shard whose decoded-brick cache holds an eighth of
// the decoded working set; requests are scanBoxes sent to the shard.
//
// gateway_hot: `qozd -gateway` over two shards whose caches hold the whole
// working set and have been warmed; requests are hotBoxes sent to the
// gateway by one client. One, because the gateway and the two shards
// already fill both cores with one request in flight: a second client only
// queues (throughput +20 %, latency ×1.8 here) and makes the run depend on
// how the scheduler interleaves five processes — runs then differed by
// ±6 %, against ±3 % with one client.
type serveWorkload struct {
	cfg     config
	p       *procs
	brick   int
	cache   int64
	gateway bool
	nClient int

	fields []*field
	paths  []string
	shards []*child
	front  *child // where the clients send: shard 0 or the gateway
	gw     *child
	http   *http.Client
	sched  [][]box  // per client
	bufs   [][]byte // per client response buffer
	refs   [][]byte // per field: little-endian image of the decoded store
	psnr   float64
	ttfb   [][]float64 // per client, ms, traced runs only
	body   [][]float64
}

// storeNames are the names the two stores are mounted under.
var storeNames = []string{"smooth", "rough"}

func (w *serveWorkload) setUp() error {
	ctx := context.Background()
	dims := []int{fieldEdge, fieldEdge, fieldEdge}
	fields, err := makeFields([]string{"miranda", "nyx"}, dims, w.cfg.seed)
	if err != nil {
		return err
	}
	w.fields, w.paths = fields, nil
	for i, f := range fields {
		path := filepath.Join(w.p.work, storeNames[i]+".qozb")
		if err := writeStoreFile(ctx, path, f.data, f.dims, f.opts(), w.brick); err != nil {
			return err
		}
		w.paths = append(w.paths, path)
	}

	// The request schedule comes from the seed alone and exists before the
	// first request is sent; the servers only ever see requests.
	w.sched = make([][]box, w.nClient)
	for c := range w.sched {
		rng := rand.New(rand.NewSource(w.cfg.seed*7919 + int64(c)))
		if w.gateway {
			w.sched[c] = hotBoxes(rng, scheduleLen, len(fields), fieldEdge, w.brick)
		} else {
			w.sched[c] = scanBoxes(rng, scheduleLen, len(fields), fieldEdge, w.brick)
		}
	}

	nShards := 1
	if w.gateway {
		nShards = 2
	}
	if err := w.startServers(nShards, w.gateway); err != nil {
		return err
	}
	w.front = w.shards[0]
	if w.gateway {
		w.front = w.gw
	}
	w.http = &http.Client{Transport: &http.Transport{
		// Each closed-loop client keeps one connection busy; the idle pool
		// is larger only so the cluster.Client probe can reuse its fan-out
		// connections.
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}}
	w.bufs = make([][]byte, w.nClient)
	for c := range w.bufs {
		w.bufs[c] = make([]byte, 0, fields[0].rawBytes())
	}

	if w.gateway {
		// Warm every shard cache with one full-field read per field.
		full := box{hi: [3]int{fieldEdge, fieldEdge, fieldEdge}}
		for i := range fields {
			full.field = i
			if _, err := w.get(w.front.url, full, &w.bufs[0], false); err != nil {
				return fmt.Errorf("warming: %w", err)
			}
		}
	}
	for c := 0; c < w.nClient; c++ {
		for i := 0; i < warmOps; i++ {
			b := w.sched[c][len(w.sched[c])-1-i] // from the far end: not the boxes timed first
			if _, err := w.get(w.front.url, b, &w.bufs[c], false); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// writeStoreFile writes a field as a brick store the way a dump loop would:
// create, write, close; no fsync.
func writeStoreFile[T qoz.Float](ctx context.Context, path string, data []T, dims []int, opts qoz.Options, brick int) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	err = store.WriteT(ctx, file, data, dims, store.WriteOptions{Opts: opts, Brick: []int{brick, brick, brick}})
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return err
}

// startServers launches nShards qozd shards, each mounting both stores,
// and optionally a gateway over them. Each shard decodes with one worker
// per request: the two closed-loop clients already keep both cores busy,
// and with one worker the per-brick stage times of a request add up to at
// most its handler time, so the time budget is additive.
func (w *serveWorkload) startServers(nShards int, gateway bool) error {
	w.shards, w.gw = nil, nil
	for i := 0; i < nShards; i++ {
		args := []string{"-cache-bytes", strconv.FormatInt(w.cache, 10), "-workers", "1"}
		for j, path := range w.paths {
			args = append(args, "-mount", storeNames[j]+"="+path)
		}
		c, err := w.p.start(fmt.Sprintf("shard%d", i), args...)
		if err != nil {
			return err
		}
		w.shards = append(w.shards, c)
	}
	if gateway {
		args := []string{"-gateway"}
		for _, s := range w.shards {
			args = append(args, "-shard", s.url)
		}
		c, err := w.p.start("gateway", args...)
		if err != nil {
			return err
		}
		w.gw = c
	}
	return nil
}

func (w *serveWorkload) tearDown() {
	if w.http != nil {
		w.http.CloseIdleConnections()
	}
	w.p.stopAll()
	w.shards, w.gw, w.front = nil, nil, nil
}

func (w *serveWorkload) clients() int { return w.nClient }
func (w *serveWorkload) opCycle() int { return 1 }

func (w *serveWorkload) pids() []int {
	var out []int
	for _, s := range w.shards {
		out = append(out, s.pid())
	}
	if w.gw != nil {
		out = append(out, w.gw.pid())
	}
	return out
}

// prepare decodes each store once in this process, checks it against the
// original field, and keeps its little-endian image: every served body is
// compared with the matching box of that image.
func (w *serveWorkload) prepare() error {
	ctx := context.Background()
	w.refs, w.psnr = nil, 0
	for i, f := range w.fields {
		s, err := store.OpenFile(w.paths[i], store.Options{CacheBytes: -1})
		if err != nil {
			return err
		}
		rec, err := s.ReadField(ctx)
		s.Close()
		if err != nil {
			return err
		}
		p, err := checkRecon(f.data, rec, f.abs)
		if err != nil {
			return fmt.Errorf("store %s: %w", storeNames[i], err)
		}
		w.psnr += p / float64(len(w.fields))
		w.refs = append(w.refs, container.Float32sToBytes(rec))
	}
	w.ttfb = make([][]float64, w.nClient)
	w.body = make([][]float64, w.nClient)
	return nil
}

// get fetches one box as raw little-endian samples into *buf and returns
// the time of the first response byte (zero unless traced). The reply is
// complete when get returns.
func (w *serveWorkload) get(base string, b box, buf *[]byte, traced bool) (first time.Time, err error) {
	url := base + "/v1/fields/" + storeNames[b.field] + "/region?" + b.query()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return first, err
	}
	if traced {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { first = time.Now() },
		}))
	}
	resp, err := w.http.Do(req)
	if err != nil {
		return first, err
	}
	defer resp.Body.Close()
	out := bytes.NewBuffer((*buf)[:0])
	_, err = out.ReadFrom(resp.Body)
	*buf = out.Bytes()
	if err != nil {
		return first, err
	}
	if resp.StatusCode != http.StatusOK {
		return first, fmt.Errorf("%s: status %d: %.200s", url, resp.StatusCode, *buf)
	}
	return first, nil
}

func (w *serveWorkload) op(tr *tracer) opFunc { return w.opOn(w.front, w.sched, tr) }

// opOn is the request op against any of the servers with any schedule; the
// probes of the traced run's served sweep use it too.
func (w *serveWorkload) opOn(target *child, sched [][]box, tr *tracer) opFunc {
	return func(c, seq int, origin time.Time) (sample, error) {
		b := sched[c][seq%len(sched[c])]
		id := c*scheduleLen*16 + seq
		root := tr.start("op", 0, id)
		rt := tr.start("http.roundtrip", root, id)
		start := time.Now()
		first, err := w.get(target.url, b, &w.bufs[c], tr != nil)
		end := time.Now()
		tr.end(rt)
		tr.end(root)
		if err != nil {
			return sample{}, err
		}
		if tr != nil && !first.IsZero() {
			tr.add("http.ttfb", rt, id, start, first)
			tr.add("http.body", rt, id, first, end)
			w.ttfb[c] = append(w.ttfb[c], float64(first.Sub(start))/1e6)
			w.body[c] = append(w.body[c], float64(end.Sub(first))/1e6)
		}
		if !matchesBox(w.bufs[c], w.refs[b.field], fieldEdge, b) {
			return sample{}, fmt.Errorf("%v: served bytes differ from the in-process decode of the same store", b)
		}
		return sample{start: start.Sub(origin), end: end.Sub(origin), bytes: int64(b.points()) * 4}, nil
	}
}

// verify runs the checks that are too slow to do on every op: a sample of
// the schedule's boxes read through store.ReadRegion in this process must
// equal the reference image box for box (so comparing served bodies with
// the image is the same as comparing them with ReadRegion), and on the
// gateway a sample of boxes must come back identical from a shard asked
// directly.
func (w *serveWorkload) verify() (ratio, psnr float64, err error) {
	ctx := context.Background()
	var stored, raw int64
	stores := make([]*store.Store, len(w.paths))
	for i, path := range w.paths {
		st, err := os.Stat(path)
		if err != nil {
			return 0, 0, err
		}
		stored, raw = stored+st.Size(), raw+w.fields[i].rawBytes()
		if stores[i], err = store.OpenFile(path, store.Options{CacheBytes: -1}); err != nil {
			return 0, 0, err
		}
		defer stores[i].Close()
	}
	var direct []byte
	for i := 0; i < 32; i++ {
		b := w.sched[i%w.nClient][i]
		got, err := stores[b.field].ReadRegion(ctx, b.lo[:], b.hi[:])
		if err != nil {
			return 0, 0, err
		}
		if !matchesBox(container.Float32sToBytes(got), w.refs[b.field], fieldEdge, b) {
			return 0, 0, fmt.Errorf("%v: store.ReadRegion differs from the full-field decode", b)
		}
		if w.gateway && i < 16 {
			if _, err := w.get(w.shards[0].url, b, &direct, false); err != nil {
				return 0, 0, err
			}
			if _, err := w.get(w.gw.url, b, &w.bufs[0], false); err != nil {
				return 0, 0, err
			}
			if !bytes.Equal(direct, w.bufs[0]) {
				return 0, 0, fmt.Errorf("%v: gateway answer differs from the direct shard answer", b)
			}
		}
	}
	if w.gw != nil {
		// Failovers and shard errors are failures even when a retry hid
		// them from the client.
		snap, err := scrape(w.gw)
		if err != nil {
			return 0, 0, err
		}
		if n := snap.sum("qozd_gateway_retries_total") + snap.sum("qozd_gateway_shard_errors_total"); n > 0 {
			return 0, 0, fmt.Errorf("gateway reports %v retries or shard errors", n)
		}
	}
	return float64(stored) / float64(raw), w.psnr, nil
}

func (w *serveWorkload) sweepInputs() sweepInputs {
	// Interleave the two clients' schedules the way a server sees them.
	boxes := make([]box, 0, replayOps)
	for i := 0; len(boxes) < replayOps; i++ {
		for c := 0; c < w.nClient; c++ {
			boxes = append(boxes, w.sched[c][i])
		}
	}
	return sweepInputs{fields: w.fields, brick: w.brick, boxes: boxes, cache: w.cache}
}

// scrape reads a child's /metrics page.
func scrape(c *child) (promSnapshot, error) {
	resp, err := http.Get(c.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", c.url, resp.StatusCode)
	}
	return parseProm(string(buf))
}
