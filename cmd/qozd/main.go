// Command qozd serves region-of-interest reads out of brick stores over
// HTTP: the serving layer that turns the qoz/store library into a
// deployable query service. It mounts one or more store files or URLs
// (an URL mount proxies range reads from an object store, so qozd itself
// never holds the archive) and exposes:
//
//	GET /v1/fields                          list the mounted fields
//	GET /v1/fields/{name}                   manifest: dims, brick, bound, codec, dtype, stats
//	GET /v1/fields/{name}/region?lo=a,b,c&hi=d,e,f[&level=L][&format=raw|json]
//	                                        decode the half-open box [lo, hi)
//	GET /v1/fields/{name}/region?lo=..&hi=..&lo=..&hi=..[&level=L]
//	                                        several boxes, raw bodies concatenated
//	GET /v1/fields/{name}/query?op=gt|lt|range|min|max|hist[&lo=..&hi=..]
//	                                        predicate pushdown: aggregate without download
//	GET /metrics                            Prometheus-style counters
//
// A query answers a predicate over a box (default: the whole field) as a
// small JSON aggregate instead of a point slab: op=gt/lt/range&value= (or
// low=/high=) count the matching points (maxloc=K also returns the first
// K row-major coordinates), op=min/max locate the extremum, and
// op=hist&low=&high=&bins= build a histogram. A store's manifest carries
// a per-brick statistics index, and the query decodes only the
// bricks whose error-bound-widened [min, max] straddles the predicate —
// everything else resolves from the index alone (the stat_prune stage and
// qozd_store_bricks_pruned_total count those).
//
// level=L (default 1) asks for the progressive coarse grid: the points of
// the box whose global coordinates are all multiples of 2^(L-1), decoded
// from level-prefix bytes where the store's manifest records level tables
// (every store written since PR 22, growing ones included, and legacy
// v4/v5 files) and bit-identical to subsampling the full-resolution answer. The coarse
// shape comes back in X-Qoz-Dims and the level is echoed in X-Qoz-Level;
// each level is its own representation with its own strong ETag.
//
// A region request may name several boxes by repeating the lo=/hi= pair
// (the i-th lo pairs with the i-th hi; boxes may overlap or repeat): the
// body is the boxes' raw bodies one after the other in request order,
// X-Qoz-Dims lists each box's shape separated by ";", level applies to
// every box and -max-points to their sum, and format=json is refused. It is
// the form a gateway reads a shard's share of a region with, one round trip
// per shard, and is open to any client with scattered boxes to fetch.
//
// Region responses default to raw little-endian samples in the field's
// element type — float32 or float64, named by the manifest's dtype and
// echoed in X-Qoz-Dtype — row-major, shape hi-lo, dims echoed in
// X-Qoz-Dims; format=json wraps the same values in JSON (non-finite
// points as null), gzip-compressed when the client sends Accept-Encoding:
// gzip (raw responses are never content-coded: freshly decoded brick
// bytes barely compress). Responses carry a strong ETag derived from the
// store's (manifest CRC, generation) pair, the region (several boxes: their
// count and a hash of the list), dtype, and encoding; If-None-Match
// answers 304 without decoding a brick. All mounted stores share one
// decoded-brick cache, so the process's decoded memory is bounded by
// -cache-bytes no matter how many fields are mounted or how requests
// interleave; a decode that does not fit is admitted only if it has been
// read more often than every least-recently-used entry it would evict. Each request observes its client's disconnect through the
// request context, and -max-inflight bounds concurrent region decodes
// (excess requests get 503).
//
// Stores are served live: every store written since PR 22 is a generation
// journal that qozc append can grow, and -poll N polls every mount
// for newly committed generations — steps appended by a simulation, brick
// rewrites, compactions — and adopts them atomically, so a growing
// dataset serves without remounts. A client revalidating with a
// pre-append ETag gets the full fresh response, not a 304.
//
// -auth-token TOKEN (or the QOZD_TOKEN environment variable) requires
// "Authorization: Bearer TOKEN" on every /v1/* endpoint, compared in
// constant time; /metrics stays open only behind -metrics-public.
// -tenant name=token[:rps[:burst]] adds further named credentials, and
// -rate/-burst give every tenant its own token bucket — a tenant over its
// rate gets 429 with Retry-After while other tenants keep flowing.
// Concurrent identical region requests are single-flighted: one decode
// serves the whole herd. GET /healthz answers liveness and GET /readyz
// answers readiness (mounts refreshing cleanly), both without auth.
// Every response echoes an X-Qoz-Request-Id (client-supplied or
// generated), which error bodies also carry.
//
// With -gateway, qozd serves the same API without mounting anything:
// it discovers fields from -shard URLs (ordinary qozd processes), routes
// each brick to its owner by rendezvous hashing, fans region reads out
// over the shards (forwarding level for coarse reads), and stitches the
// sub-regions back into one response — see qoz/cluster and
// docs/CLUSTER.md.
//
// Both roles are one handler (this file) over a two-implementation
// backend (backend.go): the handler owns routing, auth and rate limits,
// request validation, -max-points, ETag/If-None-Match, single-flight,
// response encoding, the common /metrics block and the probes, and never
// learns which role it runs in; the backend answers only what differs —
// resolving a field to one committed generation, producing the samples
// or the query aggregate (from mounted stores, or by fan-out), refreshing,
// readiness, and how a produce failure is answered. Requests are validated
// in one order and the first fault is the one reported: unknown field
// (404); then for /region the boxes (lo/hi present and paired, each
// well-formed, right rank, inside the field), level, the level's grid and
// -max-points, format (and raw for several boxes) —
// for /query the op, the box, the operator's parameters, maxloc.
//
// Either role serves HTTPS when given -tls-cert/-tls-key, and -client-ca
// upgrades that to mutual TLS: clients must present a certificate
// chaining to the CA or the handshake is refused. A gateway dials an
// mTLS shard fleet with -shard-ca (trust anchor for shard certificates)
// and -shard-cert/-shard-key (its own client credential). Bearer tokens
// apply on top: TLS authenticates the hop, tokens authorize the tenant.
//
// Usage:
//
//	qozd -listen :8080 -mount temp=/data/temp.qozb \
//	     -mount vx=https://bucket.example.com/vx.qozb [-cache-bytes N] \
//	     [-workers N] [-max-inflight N] [-max-points N] [-poll 5s] \
//	     [-auth-token T] [-tenant name=token[:rps[:burst]]] [-rate R -burst B] \
//	     [-tls-cert F -tls-key F [-client-ca F]] \
//	     [-metrics-public] [path.qozb ...]
//	qozd -gateway -listen :8080 -shard http://shard0:8080 \
//	     -shard http://shard1:8080 [-shard-token T] [-fanout-attempts N] \
//	     [-shard-ca F] [-shard-cert F -shard-key F] \
//	     [-poll 5s] [-auth-token T] [-rate R] ...
//
// Bare positional paths are mounted under their base name without the
// .qozb extension.
package main

import (
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"maps"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"qoz"
	"qoz/cluster"
	"qoz/internal/grid"
	"qoz/internal/pool"
	"qoz/store"
)

func main() {
	var mounts mountFlags
	var shards stringsFlag
	var tenants tenantFlags
	fs := flag.NewFlagSet("qozd", flag.ExitOnError)
	fs.Var(&mounts, "mount", "field to serve, as name=path-or-url (repeatable)")
	listen := fs.String("listen", ":8080", "address to serve on")
	cacheBytes := fs.Int64("cache-bytes", store.DefaultCacheBytes, "shared decoded-brick cache budget in bytes across all mounts (<=0 disables)")
	workers := fs.Int("workers", 0, "concurrent brick decodes per request (0 = all cores)")
	maxInflight := fs.Int("max-inflight", 64, "concurrent region requests before 503 (<=0 = unlimited)")
	maxPoints := fs.Int("max-points", 1<<26, "largest region served, in points (<=0 = unlimited)")
	readAhead := fs.Int64("remote-read-ahead", 0, "largest gap in bytes a URL mount's read bridges to merge range requests (<=0 fetches exactly the bytes it decodes)")
	mountTimeout := fs.Duration("mount-timeout", 30*time.Second, "deadline for opening each mount (0 = none); a hung origin must not wedge startup")
	authToken := fs.String("auth-token", "", "bearer token required on /v1/* endpoints (default: $QOZD_TOKEN; empty disables auth)")
	fs.Var(&tenants, "tenant", "named tenant credential, as name=token[:rps[:burst]] (repeatable; adds to -auth-token's tenant \"default\")")
	rate := fs.Float64("rate", 0, "per-tenant sustained request rate on /v1/* in requests/second (0 disables rate limiting)")
	burst := fs.Float64("burst", 0, "per-tenant burst size for -rate (0 selects max(1, rate))")
	metricsPublic := fs.Bool("metrics-public", false, "serve /metrics without auth even when a token is set")
	poll := fs.Duration("poll", 0, "interval for polling mounts for new committed generations (0 disables; in -gateway mode, polls the shard catalog)")
	logFormat := fs.String("log-format", "text", "structured request-log format on stderr: text or json")
	slowRequest := fs.Duration("slow-request", 0, "log a warning with the full span breakdown for requests at least this slow (0 disables)")
	traceRing := fs.Int("trace-ring", 256, "completed request traces retained for GET /debug/traces")
	pprofFlag := fs.Bool("pprof", false, "expose /debug/pprof/* (guarded like the /v1 endpoints)")
	tlsCert := fs.String("tls-cert", "", "PEM server certificate: serve HTTPS instead of HTTP (with -tls-key)")
	tlsKey := fs.String("tls-key", "", "private key for -tls-cert")
	clientCA := fs.String("client-ca", "", "PEM CA bundle: require and verify client certificates against it (mTLS; needs -tls-cert)")
	gatewayMode := fs.Bool("gateway", false, "run as a fan-out gateway over -shard URLs instead of serving mounts")
	fs.Var(&shards, "shard", "shard qozd base URL for -gateway mode (repeatable)")
	shardToken := fs.String("shard-token", "", "bearer token the gateway presents to shards (default: $QOZD_SHARD_TOKEN)")
	shardCA := fs.String("shard-ca", "", "PEM CA bundle that shard server certificates must chain to (-gateway mode, https shards)")
	shardCert := fs.String("shard-cert", "", "PEM client certificate the gateway presents to mTLS shards (with -shard-key)")
	shardKey := fs.String("shard-key", "", "private key for -shard-cert")
	fanoutAttempts := fs.Int("fanout-attempts", 2, "distinct shards tried per sub-region before the gateway gives up (1 disables failover)")
	fanoutWorkers := fs.Int("fanout-workers", 0, "concurrent shard round trips per request (0 = one per core)")
	fs.Parse(os.Args[1:])
	if *authToken == "" {
		*authToken = os.Getenv("QOZD_TOKEN")
	}
	if *shardToken == "" {
		*shardToken = os.Getenv("QOZD_SHARD_TOKEN")
	}
	guardOpts := guardOptions{
		AuthToken:     *authToken,
		Tenants:       tenants,
		MetricsPublic: *metricsPublic,
		RateRPS:       *rate,
		RateBurst:     *burst,
	}
	// fatal reports a startup failure: code 2 for a bad command line, 1 for
	// a backend that could not be built.
	fatal := func(code int, problem any) {
		fmt.Fprintf(os.Stderr, "qozd: %v\n", problem)
		os.Exit(code)
	}
	logger, err := buildLogger(*logFormat)
	if err != nil {
		fatal(2, err)
	}
	ins := newInstrument(instrumentOptions{
		Logger:        logger,
		SlowRequest:   *slowRequest,
		TraceCapacity: *traceRing,
	})

	// The role is decided here and nowhere after: each branch builds the
	// one handler over its backend and says what it serves.
	var h *handler
	var polled string
	if *gatewayMode {
		if len(mounts) > 0 || len(fs.Args()) > 0 {
			fatal(2, "-gateway serves shards, not mounts; drop -mount and positional paths")
		}
		if len(shards) == 0 {
			fatal(2, "-gateway needs at least one -shard URL")
		}
		var shardHTTP *http.Client
		if *shardCA != "" || *shardCert != "" || *shardKey != "" {
			if shardHTTP, err = shardTLSClient(*shardCA, *shardCert, *shardKey); err != nil {
				fatal(2, err)
			}
		}
		h, err = newGateway(gatewayOptions{
			Shards:     shards,
			ShardToken: *shardToken,
			Attempts:   *fanoutAttempts,
			Workers:    *fanoutWorkers,
			MaxPoints:  *maxPoints,
			Guard:      guardOpts,
			Ins:        ins,
			Pprof:      *pprofFlag,
			HTTP:       shardHTTP,
		})
		if err != nil {
			fatal(1, err)
		}
		polled = "shard catalog"
		log.Printf("qozd gateway listening on %s (%d shards, %d fields)",
			*listen, len(shards), len(h.be.list()))
	} else {
		for _, p := range fs.Args() {
			name := strings.TrimSuffix(filepath.Base(p), ".qozb")
			mounts = append(mounts, mount{name: name, target: p})
		}
		if len(mounts) == 0 {
			fatal(2, "nothing to serve; pass -mount name=path-or-url or store paths")
		}
		h, err = newServer(mounts, serverOptions{
			CacheBytes:   *cacheBytes,
			Workers:      *workers,
			MaxInflight:  *maxInflight,
			MaxPoints:    *maxPoints,
			ReadAhead:    *readAhead,
			MountTimeout: *mountTimeout,
			Guard:        guardOpts,
			Ins:          ins,
			Pprof:        *pprofFlag,
		})
		if err != nil {
			fatal(1, err)
		}
		polled = "mounts for new generations"
		fields := h.be.list()
		for _, f := range fields {
			fi := h.info(f)
			log.Printf("mounted %s: %s (dims %v, %d bricks)", fi.Name, fi.Target, fi.Dims, fi.Bricks)
		}
		log.Printf("qozd listening on %s (%d fields, %d MiB shared cache)",
			*listen, len(fields), *cacheBytes>>20)
	}
	if *poll > 0 {
		go h.refreshLoop(*poll)
		log.Printf("polling %s every %v", polled, *poll)
	}
	log.Fatal(serve(&http.Server{
		Addr:    *listen,
		Handler: h,
		// Stalled clients must not hold connections — or -max-inflight
		// slots — forever: reap trickled headers quickly, idle keep-alives
		// eventually, and bound even the largest region download.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		WriteTimeout:      10 * time.Minute,
	}, *tlsCert, *tlsKey, *clientCA))
}

// handler is qozd's HTTP surface in either role: everything a client can
// observe that does not depend on where the samples come from. The backend
// supplies the rest, and no method below asks which one it has.
type handler struct {
	mux       *http.ServeMux
	be        backend
	guard     *guard
	ins       *instrument
	maxPoints int            // largest response served, in points (<=0 = unlimited)
	flight    cluster.Flight // coalesces identical concurrent produces

	requests    atomic.Int64
	errors      atomic.Int64
	regionPts   atomic.Int64
	refreshErrs atomic.Int64
}

// newHandler builds the guard, the instrument and the route table; the
// role constructor (newServer, newGateway) attaches the backend.
func newHandler(maxPoints int, guardOpts guardOptions, ins *instrument, pprof bool) (*handler, error) {
	h := &handler{maxPoints: maxPoints, ins: ins}
	var err error
	if h.guard, err = newGuard(guardOpts); err != nil {
		return nil, err
	}
	if h.ins == nil {
		h.ins = newInstrument(instrumentOptions{})
	}
	h.mux = http.NewServeMux()
	h.mux.HandleFunc("GET /v1/fields", h.handleFields)
	h.mux.HandleFunc("GET /v1/fields/{name}", h.handleField)
	h.mux.HandleFunc("GET /v1/fields/{name}/region", h.handleRegion)
	h.mux.HandleFunc("GET /v1/fields/{name}/query", h.handleQuery)
	h.mux.HandleFunc("GET /metrics", h.handleMetrics)
	h.mux.HandleFunc("GET /healthz", handleHealthz)
	h.mux.HandleFunc("GET /readyz", h.handleReadyz)
	h.mux.HandleFunc("GET /debug/traces", h.ins.handleTraces)
	if pprof {
		registerPprof(h.mux)
	}
	return h, nil
}

// Close releases whatever the backend holds open.
func (h *handler) Close() { h.be.close() }

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.requests.Add(1)
	id := ensureRequestID(w, r)
	// The instrument opens the request's root trace span (trace id = the
	// correlation id) and registers the store stage observer, so fan-in
	// from here — single-flight leaders included, which run under a
	// value-preserving detached context — records into one trace, and the
	// spans a fan-out opens parent to the same root.
	h.ins.serve(w, r, id, func(w http.ResponseWriter, r *http.Request) (tenant string) {
		// Probes bypass auth and rate limits: see handleHealthz.
		if r.URL.Path != "/healthz" && r.URL.Path != "/readyz" {
			var ok bool
			if tenant, ok = h.guard.admit(w, r); !ok {
				return tenant
			}
		}
		h.mux.ServeHTTP(w, r)
		return tenant
	})
}

// refreshLoop is the -poll loop: mounts adopting newly committed
// generations, or a gateway re-learning its catalog so its ETags move with
// the shards'. Requests keep flowing during a pass.
func (h *handler) refreshLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for range t.C {
		ctx, cancel := context.WithTimeout(context.Background(), interval)
		h.refresh(ctx)
		cancel()
	}
}

// refresh runs one backend refresh pass, counting and logging each
// failure. A failed refresh leaves the previous generation serving, so the
// loop keeps polling.
func (h *handler) refresh(ctx context.Context) error {
	errs := h.be.refresh(ctx)
	for _, err := range errs {
		h.refreshErrs.Add(1)
		log.Printf("refresh: %v", err)
	}
	return errors.Join(errs...)
}

// handleHealthz is the liveness probe: the process is up and serving
// HTTP. Deliberately credential-free and rate-limit-free — an orchestrator
// must never kill a pod because its probe lost an auth race.
func handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{\"status\":\"ok\"}\n"))
}

// handleReadyz is the readiness probe: the backend says whether this
// process should get new traffic (mounts refreshing cleanly, or a
// reachable fleet) and why not.
func (h *handler) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, detail := h.be.ready(r.Context())
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		// Like every other retryable 503 qozd serves, the not-ready answer
		// names a retry horizon — one poll interval is a reasonable bound
		// for a refresh to recover.
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(detail)
}

// httpError counts and writes a JSON error response (which carries the
// request's correlation id). Unknown-field 404s are deliberately left out
// of the error counter — they are client typos and scanner noise, not
// server faults worth alerting on.
func (h *handler) httpError(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	if code != http.StatusNotFound {
		h.errors.Add(1)
	}
	jsonError(w, r, code, format, args...)
}

// fieldNames returns the sorted keys of a name-indexed map: every listing
// and every labelled metric family is emitted in this order, which is what
// keeps /v1/fields and /metrics byte-deterministic.
func fieldNames[V any](m map[string]V) []string {
	return slices.Sorted(maps.Keys(m))
}

// fieldInfo is the JSON manifest of one field. A shard's listing is also
// what a gateway's catalog is learned from (cluster.Client.Catalog).
type fieldInfo struct {
	Name       string  `json:"name"`
	Target     string  `json:"target,omitempty"` // where a shard mounted it from
	Dims       []int   `json:"dims"`
	Brick      []int   `json:"brick"`
	Bricks     int     `json:"bricks"`
	Points     int     `json:"points"`
	ErrorBound float64 `json:"errorBound"`
	Codec      string  `json:"codec"`
	DType      string  `json:"dtype"`
	// Mutable marks a generation journal — every store written since
	// PR 22; absent only for a legacy index file (v1/v2/v4/v5). Generation
	// is the committed generation currently served: 1 for a store that was
	// put and never appended to, advancing when -poll picks up new commits.
	Mutable    bool   `json:"mutable,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
	// ManifestCRC is the manifest fingerprint of the served generation —
	// with Generation it names the store content exactly (the same pair
	// region ETags embed), letting a gateway detect a shard serving a
	// different generation than its catalog.
	ManifestCRC uint32       `json:"manifestCRC"`
	Stats       *store.Stats `json:"stats,omitempty"`  // a shard's read counters
	Shards      []string     `json:"shards,omitempty"` // where a gateway finds the bricks
}

// info renders a field's manifest: what its snapshot says — so the keys a
// gateway's catalog and a client's validators depend on cannot differ by
// role — completed by the backend.
func (h *handler) info(f snapshot) fieldInfo {
	fi := fieldInfo{Name: f.name, Dims: f.dims, Points: 1, ErrorBound: f.bound, DType: f.dtype,
		Mutable: f.gen > 0, Generation: f.gen, ManifestCRC: f.crc}
	for _, d := range f.dims {
		fi.Points *= d
	}
	h.be.describe(f, &fi)
	return fi
}

// acceptsGzip reports whether the request's Accept-Encoding negotiates
// gzip (present, and not refused with q=0).
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if !strings.EqualFold(strings.TrimSpace(enc), "gzip") {
			continue
		}
		if q, ok := strings.CutPrefix(strings.TrimSpace(params), "q="); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(q), 64); err == nil && v <= 0 {
				return false
			}
		}
		return true
	}
	return false
}

// jsonBody negotiates the body writer for a JSON response: gzip when the
// client accepts it, identity otherwise. JSON region payloads compress
// several-fold (decimal literals are redundancy the decoder already
// removed once); raw little-endian brick bytes are never wrapped — they
// are served straight from the codec's output and barely compress.
func jsonBody(w http.ResponseWriter, r *http.Request) (io.Writer, func() error) {
	w.Header().Add("Vary", "Accept-Encoding")
	w.Header().Set("Content-Type", "application/json")
	if !acceptsGzip(r) {
		return w, func() error { return nil }
	}
	w.Header().Set("Content-Encoding", "gzip")
	gz := gzip.NewWriter(w)
	return gz, gz.Close
}

// handleFields lists every served field.
func (h *handler) handleFields(w http.ResponseWriter, r *http.Request) {
	fields := h.be.list()
	out := make([]fieldInfo, len(fields))
	for i, f := range fields {
		out[i] = h.info(f)
	}
	body, finish := jsonBody(w, r)
	json.NewEncoder(body).Encode(map[string]any{"fields": out})
	finish()
}

// resolve pins the request's {name} field, answering the 404 itself.
func (h *handler) resolve(w http.ResponseWriter, r *http.Request) (snapshot, bool) {
	f, ok := h.be.resolve(r.PathValue("name"))
	if !ok {
		h.httpError(w, r, http.StatusNotFound, "unknown field %q", r.PathValue("name"))
	}
	return f, ok
}

// handleField describes one field.
func (h *handler) handleField(w http.ResponseWriter, r *http.Request) {
	f, ok := h.resolve(w, r)
	if !ok {
		return
	}
	body, finish := jsonBody(w, r)
	json.NewEncoder(body).Encode(h.info(f))
	finish()
}

// answer is what one endpoint (/region, /query) contributes to a request
// once its parameters are validated against the resolved field; the rest
// of the request's life is serveConditional's.
type answer struct {
	// boxes is what the request reads: a query's one box, a region's list.
	boxes []store.Box
	// variant names the representation for the ETag: everything besides
	// store content, box and dtype that changes the response bytes.
	variant string
	// work names the produce for the single-flight key: the variant minus
	// the response encoding (format, gzip), because every encoding renders
	// from the same produced value and so coalesces into one flight.
	work    string
	produce func(ctx context.Context) (any, error)
	write   func(v any)
}

// serveConditional is the request pipeline both data endpoints share:
// resolve the field to one committed generation, let the endpoint validate
// its parameters against it, answer a conditional GET from the validator
// alone, and otherwise produce through the single-flight and write.
func (h *handler) serveConditional(w http.ResponseWriter, r *http.Request, validate func(f snapshot) (answer, bool)) {
	// The stale-retry loop: a produce can fail because the backend's view
	// of the field fell behind what it reads from (a gateway's catalog
	// after the shards advanced: the generation gate refuses every
	// candidate). One refresh re-resolves the field — dims, generation,
	// ETag and all — and the request is re-validated and retried against
	// the present, so a client racing an append sees the new data, not an
	// error.
	for attempt := 0; ; attempt++ {
		f, ok := h.resolve(w, r)
		if !ok {
			return
		}
		a, ok := validate(f)
		if !ok {
			return
		}

		// Conditional GET: the response is a pure function of (store content,
		// box, dtype, variant), so a strong ETag over exactly those lets a
		// revalidating client skip the produce — and the transfer — entirely.
		// The validator is derived from the (manifest CRC, generation) pair of
		// the field's current committed generation: a mutable store that
		// advanced (poll-refreshed append, rewrite, compaction) moves the ETag,
		// so a client revalidating with the old one gets the full fresh
		// response, never a 304 affirming stale data. Both backends resolve
		// that pair, so a validator minted by a gateway revalidates against a
		// shard and vice versa. The header is attached only to the 304 and 200
		// paths below: a shed or failed request carries no validator, because
		// ETag describes the selected representation and an error body is not
		// it.
		etag := regionETag(f.crc, f.gen, f.dtype, a.boxes, a.variant)
		if inmMatches(r.Header.Get("If-None-Match"), etag) {
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}

		// Single-flight: concurrent identical requests — same field, box,
		// work, and generation — share one produce. The key carries (crc,
		// gen) so a herd spanning a refresh never mixes generations: old and
		// new requests lead separate flights. The leader runs under a context
		// that survives any individual client's disconnect and is cancelled
		// only when the last waiter is gone; it carries the correlation id, so
		// a backend that makes further hops presents the same one.
		key := flightKey(f.name, f.crc, f.gen, a.boxes, a.work)
		ctx := cluster.WithRequestID(r.Context(), r.Header.Get(requestIDHeader))
		// The produced value is shared with every coalesced request and may
		// own pooled memory: done says this request will not touch it again,
		// and the flight releases it after the last one has.
		v, _, done, err := h.flight.Do(ctx, key, a.produce)
		if err != nil {
			if r.Context().Err() != nil {
				return // client is gone; nobody to answer
			}
			code, retryAfter, stale := h.be.failure(err)
			if stale && attempt == 0 {
				rctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
				rerr := h.refresh(rctx)
				cancel()
				if rerr == nil {
					continue
				}
			}
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			h.httpError(w, r, code, "%v", err)
			return
		}
		w.Header().Set("ETag", etag)
		a.write(v)
		done()
		return
	}
}

// parseCorner parses "a,b,c" into region coordinates.
func parseCorner(v string) ([]int, error) {
	parts := strings.Split(v, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("invalid coordinate %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseBox parses the lo/hi corners of a request's box (both empty selects
// the whole field) and checks it against the field: same rank, inside, not
// empty. what names the box in the error.
func parseBox(what, loParam, hiParam string, dims []int) (lo, hi []int, err error) {
	lo, hi = make([]int, len(dims)), dims
	if loParam != "" || hiParam != "" {
		if lo, err = parseCorner(loParam); err != nil {
			return nil, nil, fmt.Errorf("lo: %v", err)
		}
		if hi, err = parseCorner(hiParam); err != nil {
			return nil, nil, fmt.Errorf("hi: %v", err)
		}
	}
	if err := grid.CheckBox(what, dims, lo, hi); err != nil {
		return nil, nil, err
	}
	return lo, hi, nil
}

// handleRegion returns boxes of one field, at full resolution or on a
// coarser level's grid: the i-th lo= pairs with the i-th hi=, and the body
// is the boxes' bodies one after the other in that order. One box is the
// ordinary case; several let a caller that needs scattered boxes of one
// field — a gateway reading a shard's share of a region — pay one round
// trip for them.
func (h *handler) handleRegion(w http.ResponseWriter, r *http.Request) {
	h.serveConditional(w, r, func(f snapshot) (answer, bool) {
		bad := func(code int, format string, args ...any) (answer, bool) {
			h.httpError(w, r, code, format, args...)
			return answer{}, false
		}
		q := r.URL.Query()
		los, his := q["lo"], q["hi"]
		if len(los) == 0 || len(his) == 0 {
			return bad(http.StatusBadRequest, "region needs lo=a,b,... and hi=a,b,... query parameters")
		}
		if len(los) != len(his) {
			return bad(http.StatusBadRequest, "region has %d lo= and %d hi= parameters; the i-th lo pairs with the i-th hi", len(los), len(his))
		}
		boxes := make([]store.Box, len(los))
		for i := range los {
			if los[i] == "" || his[i] == "" {
				return bad(http.StatusBadRequest, "region needs lo=a,b,... and hi=a,b,... query parameters")
			}
			lo, hi, err := parseBox("region", los[i], his[i], f.dims)
			if err != nil {
				return bad(http.StatusBadRequest, "%v", err)
			}
			boxes[i] = store.Box{Lo: lo, Hi: hi}
		}
		level := 1
		if lv := q.Get("level"); lv != "" {
			var err error
			level, err = strconv.Atoi(lv)
			if err != nil || level < 1 || level > store.MaxReadLevel {
				return bad(http.StatusBadRequest, "level must be an integer in [1,%d], got %q", store.MaxReadLevel, lv)
			}
		}
		// The response grid: at level 1 each box itself, at level L the points
		// of the box whose global coordinates are multiples of 2^(L-1). The
		// -max-points bound applies to the points actually served, summed
		// over the boxes, so a coarse read of a region too large to serve at
		// full resolution still goes through — that is the point of
		// progressive reads. An empty coarse grid is the client's mistake,
		// answered before anything is produced.
		outDims := make([][]int, len(boxes))
		points := 0
		for i, b := range boxes {
			g, ok := grid.LevelOf(b.Lo, b.Hi, 1<<(level-1))
			if !ok {
				return bad(http.StatusBadRequest, "region [%v,%v) has no points on the level-%d grid", b.Lo, b.Hi, level)
			}
			outDims[i] = append([]int(nil), g.Dims[:len(b.Lo)]...)
			points += g.N
		}
		if h.maxPoints > 0 && points > h.maxPoints {
			return bad(http.StatusRequestEntityTooLarge,
				"region holds %d points, limit is %d; split the request", points, h.maxPoints)
		}
		format := q.Get("format")
		if format == "" {
			format = "raw"
		}
		if format != "raw" && format != "json" {
			return bad(http.StatusBadRequest, "unknown format %q (want raw or json)", format)
		}
		if format != "raw" && len(boxes) > 1 {
			return bad(http.StatusBadRequest, "a region of %d boxes is served raw only; send one box for format=%s", len(boxes), format)
		}
		// The gzip variant of the JSON encoding is its own representation and
		// gets its own validator.
		return answer{
			boxes:   boxes,
			variant: regionVariant(format, format == "json" && acceptsGzip(r), level),
			work:    "l" + strconv.Itoa(level),
			produce: func(ctx context.Context) (any, error) {
				return h.be.region(ctx, f, boxes, level)
			},
			write: func(data any) {
				if level > 1 {
					w.Header().Set("X-Qoz-Level", strconv.Itoa(level))
				}
				if writeRegion(w, r, outDims, f.dtype, f.bound, data, format) != nil {
					return // client went away mid-body
				}
				h.regionPts.Add(int64(points))
			},
		}, true
	})
}

// boxesPoints sums the points of the boxes' level grids, for boxes the
// handler validated (each holds a point on the level).
func boxesPoints(boxes []store.Box, level int) int {
	points := 0
	for _, b := range boxes {
		g, _ := grid.LevelOf(b.Lo, b.Hi, 1<<(level-1))
		points += g.N
	}
	return points
}

// regionVariant names the encoding variant an ETag embeds: the format,
// the gzip content coding, and — for progressive reads — the level, each
// of which selects a different representation of the same region.
func regionVariant(format string, gz bool, level int) string {
	if gz {
		format += "+gzip"
	}
	if level > 1 {
		format += "+l" + strconv.Itoa(level)
	}
	return format
}

// regionETag derives the strong validator of a region response: the store
// manifest fingerprint and generation (content identity, read as one
// consistent pair), the boxes, the element type, and the encoding variant
// (including gzip and the progressive level). Any of these changing
// changes the bytes, and nothing else does. It and flightKey are built by
// appending, not by fmt, which a hot request paid for in CPU; their
// strings are the ones fmt made (TestRequestNamesMatchFmt).
func regionETag(crc uint32, gen uint64, dtype string, boxes []store.Box, variant string) string {
	var buf [128]byte
	b := cluster.AppendGenerationPrefix(buf[:0], crc, gen)
	if len(boxes) > 1 {
		b = appendBoxListID(b, boxes)
	} else {
		b = appendJoined(b, boxes[0].Lo, 'x')
		b = append(b, '-')
		b = appendJoined(b, boxes[0].Hi, 'x')
	}
	b = append(append(append(append(b, '-'), dtype...), '-'), variant...)
	return string(append(b, '"'))
}

// flightKey names a produce in the single flight: concurrent identical
// requests — same field, box, work, and generation — share one.
func flightKey(name string, crc uint32, gen uint64, boxes []store.Box, work string) string {
	var buf [128]byte
	b := append(append(buf[:0], name...), '|')
	b = append(strconv.AppendUint(append(appendHex(b, uint64(crc), 8), '-'), gen, 10), '|')
	if len(boxes) > 1 {
		b = appendBoxListID(b, boxes)
	} else {
		b = appendInts(b, boxes[0].Lo)
		b = append(b, '|')
		b = appendInts(b, boxes[0].Hi)
	}
	return string(append(append(b, '|'), work...))
}

// appendBoxListID appends to dst the name of a list of several boxes
// inside a validator or a flight key: "n<count>-" and a 64-bit FNV-1a
// hash, as 16 hex digits, of every box's corners rendered "[lo][hi]", so
// the name stays bounded however many boxes a request carries. The order
// is part of it because it is part of the body.
func appendBoxListID(dst []byte, boxes []store.Box) []byte {
	var buf [256]byte
	corners := buf[:0]
	for _, b := range boxes {
		corners = appendInts(appendInts(corners, b.Lo), b.Hi)
	}
	h := fnv.New64a()
	h.Write(corners)
	dst = append(strconv.AppendInt(append(dst, 'n'), int64(len(boxes)), 10), '-')
	return appendHex(dst, h.Sum64(), 16)
}

// appendInts appends v as fmt's %v renders an []int: "[1 2 3]".
func appendInts(dst []byte, v []int) []byte {
	return append(appendJoined(append(dst, '['), v, ' '), ']')
}

// appendJoined appends v as "a<sep>b<sep>c".
func appendJoined(dst []byte, v []int, sep byte) []byte {
	for i, n := range v {
		if i > 0 {
			dst = append(dst, sep)
		}
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	return dst
}

// appendHex appends v as width lowercase hex digits, zero-padded as fmt's
// %0<width>x pads it; v must fit in width digits.
func appendHex(dst []byte, v uint64, width int) []byte {
	for shift := 4 * (width - 1); shift >= 0; shift -= 4 {
		dst = append(dst, "0123456789abcdef"[v>>uint(shift)&15])
	}
	return dst
}

// joinInts renders coordinates or dims as "a<sep>b<sep>c".
func joinInts(v []int, sep string) string {
	parts := make([]string, len(v))
	for i, n := range v {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, sep)
}

// inmMatches reports whether an If-None-Match header matches etag: the
// wildcard, or a list containing it under the weak comparison RFC 9110
// §13.1.2 prescribes for If-None-Match — a W/ prefix on the client's
// validator (e.g. added by a transforming intermediary) is ignored, so
// revalidation still short-circuits to 304.
func inmMatches(inm, etag string) bool {
	if inm == "" {
		return false
	}
	if strings.TrimSpace(inm) == "*" {
		return true
	}
	for _, c := range strings.Split(inm, ",") {
		c = strings.TrimSpace(c)
		c = strings.TrimPrefix(c, "W/")
		if c == etag {
			return true
		}
	}
	return false
}

// writeRegion writes a produced region in the requested format, in the
// field's own element type: float64 fields answer with 8-byte samples
// (raw) or full-precision literals (json). data is the slab a backend's
// region returned: decoded samples, or a stitched slab that already is the
// raw body (little-endian, each box row-major with its shape in boxDims,
// one box after the other; X-Qoz-Dims lists the shapes separated by ";")
// and so goes out in one Write with no decode/re-encode round trip; its
// JSON renders from the same slab, so a herd mixing raw and json clients
// still coalesces into one produce. The slab is only read: other requests
// are writing it too.
func writeRegion(w http.ResponseWriter, r *http.Request, boxDims [][]int, dtype string, bound float64, data any, format string) error {
	dimsHeader := joinInts(boxDims[0], ",")
	for _, d := range boxDims[1:] {
		dimsHeader += ";" + joinInts(d, ",")
	}
	outDims := boxDims[0] // what the JSON body names: that format serves one box
	w.Header().Set("X-Qoz-Dims", dimsHeader)
	w.Header().Set("X-Qoz-Dtype", dtype)
	w.Header().Set("X-Qoz-Error-Bound", strconv.FormatFloat(bound, 'g', -1, 64))
	switch data := data.(type) {
	case *slab[float32]:
		return writeSamples(w, r, outDims, dtype, data.data, format)
	case *slab[float64]:
		return writeSamples(w, r, outDims, dtype, data.data, format)
	case *slab[byte]:
		if format == "json" {
			if dtype == "float64" {
				return writeSamples(w, r, outDims, dtype, leSamples[float64](data.data, 8), format)
			}
			return writeSamples(w, r, outDims, dtype, leSamples[float32](data.data, 4), format)
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(data.data)))
		_, err := w.Write(data.data)
		return err
	}
	return fmt.Errorf("region data of type %T", data)
}

// leSamples reinterprets a little-endian raw slab of elem-byte samples.
func leSamples[T qoz.Float](b []byte, elem int) []T {
	out := make([]T, len(b)/elem)
	for i := range out {
		if elem == 8 {
			out[i] = T(math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
		} else {
			out[i] = T(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
		}
	}
	return out
}

// writeSamples streams decoded samples. Raw is little-endian samples at
// the field's element width, never content-coded — those bytes are
// freshly decoded output and barely compress (see writeRaw); json marshals
// by hand because encoding/json refuses the NaN/±Inf the escape envelope
// deliberately preserves — non-finite points become null — and is
// gzip-wrapped when the client negotiated it (see jsonBody), streaming in
// bounded chunks instead of materializing a second copy of the region.
func writeSamples[T qoz.Float](w http.ResponseWriter, r *http.Request, outDims []int, dtype string, data []T, format string) error {
	elem := 4
	if dtype == "float64" {
		elem = 8
	}
	if format == "json" {
		out, finish := jsonBody(w, r)
		body := make([]byte, 0, 64<<10)
		body = append(body, `{"dims":[`...)
		for i, d := range outDims {
			if i > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendInt(body, int64(d), 10)
		}
		body = append(body, `],"dtype":"`...)
		body = append(body, dtype...)
		body = append(body, `","data":[`...)
		for i, v := range data {
			if i > 0 {
				body = append(body, ',')
			}
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
				body = append(body, `null`...)
			} else {
				body = strconv.AppendFloat(body, f, 'g', -1, elem*8)
			}
			if len(body) >= 63<<10 {
				if _, err := out.Write(body); err != nil {
					return err
				}
				body = body[:0]
			}
		}
		body = append(body, `]}`...)
		if _, err := out.Write(body); err != nil {
			return err
		}
		return finish()
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(elem*len(data)))
	return writeRaw(w, data, hostLittleEndian)
}

// hostLittleEndian says whether this host keeps a sample's bytes in the
// wire's order, so that a slab of samples already is its raw body.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// writeRaw writes samples as a raw body: little-endian, at their own
// width. With native (the host's order is the wire's) the slab's own
// memory goes out in one Write, as a gateway writes its stitched byte
// slab; otherwise each sample is converted through a recycled chunk no
// larger than min(64 KiB, body).
func writeRaw[T qoz.Float](w io.Writer, data []T, native bool) error {
	if len(data) == 0 {
		return nil
	}
	elem := int(unsafe.Sizeof(data[0]))
	if native {
		_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), elem*len(data)))
		return err
	}
	chunk := pool.Slab[byte](min(64<<10, elem*len(data)))
	defer pool.PutSlab(chunk)
	for off := 0; off < len(data); {
		n := min(len(chunk)/elem, len(data)-off)
		for i, v := range data[off : off+n] {
			if elem == 8 {
				binary.LittleEndian.PutUint64(chunk[8*i:], math.Float64bits(float64(v)))
			} else {
				binary.LittleEndian.PutUint32(chunk[4*i:], math.Float32bits(float32(v)))
			}
		}
		if _, err := w.Write(chunk[:elem*n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// handleMetrics renders the exposition: the families every role shares,
// then the backend's own.
func (h *handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	writeFamilies(w, h.families())
	writeFamilies(w, h.be.families())
}

// families is the table of metric families both roles render: process-wide
// request accounting, single-flight activity, per-tenant 429s, what the
// process asked of the allocator and the collector (and which slabs the
// pools could not recycle), and request latency by {route, status}.
func (h *handler) families() []family {
	work, refreshes := h.be.nouns()
	flights := h.flight.Stats()
	limited := h.guard.limitedByTenant()
	// runtime/metrics, not runtime.ReadMemStats: a scrape must not stop the
	// world. Their deltas over a /metrics interval, divided by the bytes
	// served in it, are allocation per served byte and collections per
	// request, on either role.
	runtimeSamples := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(runtimeSamples)
	return []family{
		scalar("qozd_requests_total", "HTTP requests received", "counter", h.requests.Load()),
		scalar("qozd_request_errors_total", "requests answered with an error status (unknown-field 404s excluded)", "counter", h.errors.Load()),
		scalar("qozd_region_points_total", "field points served by region reads", "counter", h.regionPts.Load()),
		scalar("qozd_refresh_errors_total", "failed "+refreshes, "counter", h.refreshErrs.Load()),
		scalar("qozd_flight_leads_total", "region "+work+"s actually executed (single-flight leaders)", "counter", flights.Leads),
		scalar("qozd_flight_coalesced_total", "region requests served by another request's "+work, "counter", flights.Coalesced),
		labelled("qozd_rate_limited_total", "requests refused with 429, by tenant", "counter", "tenant", fieldNames(limited),
			func(tenant string) any { return limited[tenant] }),
		scalar("qozd_go_heap_alloc_bytes_total", "heap bytes allocated by this process since it started", "counter", runtimeSamples[0].Value.Uint64()),
		scalar("qozd_go_gc_cycles_total", "garbage collection cycles completed since the process started", "counter", runtimeSamples[1].Value.Uint64()),
		scalar("qozd_slab_unpooled_bytes_total", "bytes of response and decode slabs allocated outside the slab pools, being above their recycling bound", "counter", pool.UnpooledSlabBytes()),
		{hist: h.ins.reqHist},
	}
}
