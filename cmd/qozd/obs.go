// Request observability for both qozd roles: every request runs under a
// trace rooted here (shard fan-outs and store stage timings attach to it
// via context), latency lands in Prometheus histograms rendered into
// /metrics, and a structured slog line records the outcome. The last
// -trace-ring completed traces are served by GET /debug/traces, and
// -slow-request promotes slow traces to warning log lines with their full
// span breakdown.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"qoz/obs"
	"qoz/store"
)

// instrumentOptions configures one role's instrument.
type instrumentOptions struct {
	// Logger receives request log lines; nil discards them (tests).
	Logger *slog.Logger
	// SlowRequest promotes requests at least this slow to a warning log
	// line carrying the trace's span breakdown; 0 disables.
	SlowRequest time.Duration
	// TraceCapacity bounds the ring of completed traces behind
	// /debug/traces (<= 0 selects 256).
	TraceCapacity int
}

// instrument is the process's observability state: the trace ring and the
// latency histograms rendered into /metrics.
type instrument struct {
	rec    *obs.Recorder
	logger *slog.Logger
	slow   time.Duration
	// reqHist is qozd_request_duration_seconds{route,status}: every
	// request, including errors and shed requests, by coarse route class.
	reqHist *obs.HistogramVec
	// stageHist is qozd_store_stage_seconds{stage}: per-brick fetch and
	// decode timings reported by the store's stage observer. Only a backend
	// that reads stores fills it, and only that backend renders it.
	stageHist *obs.HistogramVec
}

func newInstrument(opts instrumentOptions) *instrument {
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &instrument{
		rec:    obs.NewRecorder(opts.TraceCapacity),
		logger: logger,
		slow:   opts.SlowRequest,
		reqHist: obs.NewHistogramVec("qozd_request_duration_seconds",
			"request latency by route class and status", []string{"route", "status"}, obs.DefBuckets),
		stageHist: obs.NewHistogramVec("qozd_store_stage_seconds",
			"per-brick store stage latency (payload fetch, decode)", []string{"stage"}, obs.DefBuckets),
	}
}

// family is one row of a /metrics table: a counter or gauge family with
// one unlabelled series or one per value of a single label, or a histogram
// that renders itself. The handler and each backend describe their
// families as a table of these and one function renders them all.
type family struct {
	name, help, typ string
	value           func(key string) any // a series' sample: an integer or a float64
	label           string               // label name; "" for the one unlabelled series
	keys            []string             // label values, sorted
	hist            *obs.HistogramVec    // set instead of everything above
}

func scalar(name, help, typ string, value any) family {
	return family{name: name, help: help, typ: typ, value: func(string) any { return value }}
}

func labelled(name, help, typ, label string, keys []string, value func(key string) any) family {
	return family{name: name, help: help, typ: typ, value: value, label: label, keys: keys}
}

// writeFamilies renders a table in the Prometheus text exposition format;
// %v prints integer and float64 samples the way the format wants both.
func writeFamilies(w io.Writer, families []family) {
	for _, f := range families {
		if f.hist != nil {
			f.hist.WriteProm(w)
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		if f.label == "" {
			fmt.Fprintf(w, "%s %v\n", f.name, f.value(""))
		}
		for _, k := range f.keys {
			fmt.Fprintf(w, "%s{%s=%q} %v\n", f.name, f.label, k, f.value(k))
		}
	}
}

// routeLabel buckets a request path into a bounded route class, so the
// {route, status} histogram cardinality stays fixed no matter what paths
// clients probe.
func routeLabel(path string) string {
	switch {
	case path == "/v1/fields":
		return "fields"
	case strings.HasPrefix(path, "/v1/fields/"):
		if strings.HasSuffix(path, "/region") {
			return "region"
		}
		if strings.HasSuffix(path, "/query") {
			return "query"
		}
		return "field"
	case path == "/metrics":
		return "metrics"
	case path == "/healthz" || path == "/readyz":
		return "probe"
	case path == "/debug/traces":
		return "traces"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "pprof"
	}
	return "other"
}

// statusWriter captures the status code and body bytes a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) statusCode() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// stageAcc accumulates one request's store stage callbacks. Brick work
// runs on concurrent workers, so the counters are atomics; the totals are
// annotated onto the root span when the request finishes, and each timed
// stage also lands in the role's stage histogram.
type stageAcc struct {
	hist                   *obs.HistogramVec
	fetchNS, decodeNS      atomic.Int64
	fetches, decodes, hits atomic.Int64
	fetchBytes, hitBytes   atomic.Int64
	prunes, prunedBytes    atomic.Int64
}

func (a *stageAcc) observe(st store.Stage, d time.Duration, bytes int64) {
	switch st {
	case store.StageFetch:
		a.fetches.Add(1)
		a.fetchNS.Add(int64(d))
		a.fetchBytes.Add(bytes)
		a.hist.Observe(d.Seconds(), st.String())
	case store.StageDecode:
		a.decodes.Add(1)
		a.decodeNS.Add(int64(d))
		a.hist.Observe(d.Seconds(), st.String())
	case store.StageCacheHit:
		a.hits.Add(1)
		a.hitBytes.Add(bytes)
	case store.StageStatPrune:
		a.prunes.Add(1)
		a.prunedBytes.Add(bytes)
		a.hist.Observe(d.Seconds(), st.String())
	}
}

// annotate writes the accumulated stage totals onto a span (normally the
// request's root). Requests that never touched a store annotate nothing.
func (a *stageAcc) annotate(sp *obs.Span) {
	if a.fetches.Load() == 0 && a.decodes.Load() == 0 && a.hits.Load() == 0 && a.prunes.Load() == 0 {
		return
	}
	ms := func(ns int64) string {
		return strconv.FormatFloat(float64(ns)/1e6, 'f', 3, 64)
	}
	sp.Annotate("store.fetches", strconv.FormatInt(a.fetches.Load(), 10))
	sp.Annotate("store.fetchMs", ms(a.fetchNS.Load()))
	sp.Annotate("store.fetchBytes", strconv.FormatInt(a.fetchBytes.Load(), 10))
	sp.Annotate("store.decodes", strconv.FormatInt(a.decodes.Load(), 10))
	sp.Annotate("store.decodeMs", ms(a.decodeNS.Load()))
	sp.Annotate("store.cacheHits", strconv.FormatInt(a.hits.Load(), 10))
	sp.Annotate("store.cacheHitBytes", strconv.FormatInt(a.hitBytes.Load(), 10))
	if a.prunes.Load() > 0 {
		sp.Annotate("store.pruned", strconv.FormatInt(a.prunes.Load(), 10))
		sp.Annotate("store.prunedBytes", strconv.FormatInt(a.prunedBytes.Load(), 10))
	}
}

// serve wraps one request in the full observability envelope: a root
// trace span (trace id = the request's correlation id), a stage observer
// for whatever store reads happen under it (none, at a gateway: nothing
// calls it back and nothing is annotated), the latency histogram, and the
// request log line. handle runs the guard and mux and returns the tenant
// the guard resolved ("" for probes).
func (ins *instrument) serve(w http.ResponseWriter, r *http.Request, id string,
	handle func(http.ResponseWriter, *http.Request) string) {
	route := routeLabel(r.URL.Path)
	ctx, root := ins.rec.StartTrace(r.Context(), id, r.Method+" "+route)
	acc := &stageAcc{hist: ins.stageHist}
	ctx = store.WithStageObserver(ctx, acc.observe)
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	tenant := handle(sw, r.WithContext(ctx))
	dur := time.Since(start)

	status := sw.statusCode()
	root.Annotate("route", route)
	root.Annotate("status", strconv.Itoa(status))
	if tenant != "" {
		root.Annotate("tenant", tenant)
	}
	acc.annotate(root)
	root.End()
	ins.reqHist.Observe(dur.Seconds(), route, strconv.Itoa(status))

	attrs := []any{
		slog.String("requestId", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("route", route),
		slog.Int("status", status),
		slog.Int64("bytes", sw.bytes),
		slog.Duration("duration", dur),
	}
	if tenant != "" {
		attrs = append(attrs, slog.String("tenant", tenant))
	}
	if ins.slow > 0 && dur >= ins.slow {
		// A slow request carries its whole span breakdown, so the log line
		// alone answers "where did the time go" without a /debug/traces
		// round trip.
		if t := root.TraceData(); t != nil {
			attrs = append(attrs, slog.Any("spans", t.Spans))
		}
		ins.logger.Warn("slow request", attrs...)
		return
	}
	if route == "probe" {
		// Probe traffic is high-rate and boring; keep it out of the default
		// Info stream but reachable with a debug-level handler.
		ins.logger.Debug("request", attrs...)
		return
	}
	ins.logger.Info("request", attrs...)
}

// handleTraces serves the trace ring as JSON, newest first:
//
//	GET /debug/traces?n=50&min=25ms
//
// n bounds how many traces return (default 50), min keeps only traces at
// least that long. The endpoint sits behind the same guard as /v1/*.
func (ins *instrument) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 50
	if v := r.URL.Query().Get("n"); v != "" {
		x, err := strconv.Atoi(v)
		if err != nil || x <= 0 {
			jsonError(w, r, http.StatusBadRequest, "invalid n %q (want a positive integer)", v)
			return
		}
		n = x
	}
	var min time.Duration
	if v := r.URL.Query().Get("min"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			jsonError(w, r, http.StatusBadRequest, "invalid min %q (want a duration like 25ms)", v)
			return
		}
		min = d
	}
	traces := ins.rec.Snapshot(n, min)
	if traces == nil {
		traces = []*obs.Trace{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"total":  ins.rec.Total(),
		"traces": traces,
	})
}

// registerPprof mounts net/http/pprof's handlers on a role's own mux
// (qozd never serves http.DefaultServeMux), behind the same guard as the
// /v1 endpoints. Opt-in via -pprof: profiling endpoints reveal enough
// about a process that they should not be ambiently on.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// buildLogger resolves -log-format into a slog logger on stderr. It also
// becomes the process default, so legacy log.Printf lines share the
// stream and the format.
func buildLogger(format string) (*slog.Logger, error) {
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
	logger := slog.New(h)
	slog.SetDefault(logger)
	return logger, nil
}
