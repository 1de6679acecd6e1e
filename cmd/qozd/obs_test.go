package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"qoz/obs"
)

// tracesResponse mirrors the /debug/traces JSON body.
type tracesResponse struct {
	Total  uint64       `json:"total"`
	Traces []*obs.Trace `json:"traces"`
}

func getTraces(t *testing.T, url string) tracesResponse {
	t.Helper()
	resp, body := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	var out tracesResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return out
}

func findTrace(traces []*obs.Trace, id string) *obs.Trace {
	for _, tr := range traces {
		if tr.ID == id {
			return tr
		}
	}
	return nil
}

// TestGatewayTraceEndToEnd is the tentpole acceptance test: one region
// read through the gateway produces (a) a gateway trace whose fan-out
// span has one "subread" child per shard round trip, each saying how many
// boxes and bytes it carried, and (b) shard traces under the same trace id
// carrying store stage timings — all retrievable from the respective
// /debug/traces endpoints; and one /query records the same fanout →
// subread → shard.get tree.
func TestGatewayTraceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	mounts := []mount{{name: "nyx", target: p32}}
	shards, srvs := startShards(t, mounts, 2, serverOptions{CacheBytes: 32 << 20}, nil)
	_, gts := startGateway(t, gatewayOptions{Shards: shardURLs(shards)})

	const traceID = "trace-obs-1"
	req, _ := http.NewRequest(http.MethodGet, gts.URL+"/v1/fields/nyx/region?lo=0,0,0&hi=32,32,32", nil)
	req.Header.Set("X-Qoz-Request-Id", traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("region read: %s", resp.Status)
	}

	// Gateway side: the trace exists, its root is the region route, and the
	// fan-out recorded one subread child span per round trip.
	// The handler ends its root span after the response is written, so the
	// client can be back here before the trace is in the ring: wait for it.
	var gtr *obs.Trace
	for deadline := time.Now().Add(5 * time.Second); gtr == nil && time.Now().Before(deadline); {
		if gtr = findTrace(getTraces(t, gts.URL+"/debug/traces?n=100").Traces, traceID); gtr == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if gtr == nil {
		t.Fatal("gateway /debug/traces has no trace for the request id")
	}
	if gtr.Name != "GET region" {
		t.Errorf("gateway trace name %q, want GET region", gtr.Name)
	}
	root := gtr.Spans[0]
	if root.Attrs["route"] != "region" || root.Attrs["status"] != "200" {
		t.Errorf("gateway root span attrs %v, want route=region status=200", root.Attrs)
	}
	var fanout *obs.SpanData
	for i := range gtr.Spans {
		if gtr.Spans[i].Name == "fanout" {
			fanout = &gtr.Spans[i]
		}
	}
	if fanout == nil {
		t.Fatalf("gateway trace has no fanout span: %+v", gtr.Spans)
	}
	planned, err := strconv.Atoi(fanout.Attrs["subreads"])
	if err != nil || planned < 2 {
		t.Fatalf("fanout subreads attr %q, want >= 2 (region spans ownership boundaries)", fanout.Attrs["subreads"])
	}
	subreads := 0
	gets := 0
	boxes, bodyBytes := 0, 0
	for _, sp := range gtr.Spans {
		switch sp.Name {
		case "subread":
			subreads++
			if sp.Parent != fanout.ID {
				t.Errorf("subread span parented to %d, want fanout %d", sp.Parent, fanout.ID)
			}
			if sp.Attrs["shard"] == "" {
				t.Errorf("subread span has no shard attr: %v", sp.Attrs)
			}
			if sp.DurationMS < 0 {
				t.Errorf("subread span never ended: %+v", sp)
			}
			n, _ := strconv.Atoi(sp.Attrs["boxes"])
			b, _ := strconv.Atoi(sp.Attrs["bytes"])
			if n < 1 || b < 4*n {
				t.Errorf("subread span carries boxes=%q bytes=%q: %v", sp.Attrs["boxes"], sp.Attrs["bytes"], sp.Attrs)
			}
			// Corners name a box; a round trip of several has none to name.
			if _, has := sp.Attrs["lo"]; has != (n == 1) {
				t.Errorf("subread span of %d boxes, lo attr present: %v", n, has)
			}
			boxes += n
			bodyBytes += b
		case "shard.get":
			gets++
		}
	}
	if subreads != planned {
		t.Errorf("%d subread child spans, want one per round trip (%d)", subreads, planned)
	}
	if gets != subreads {
		t.Errorf("%d shard.get spans, want %d (one per attempt, and nothing failed over)", gets, subreads)
	}
	// 64 bricks of the whole field, rows of one owner merged: more boxes than
	// round trips, and the bodies add up to the response.
	if boxes <= subreads || bodyBytes != 32*32*32*4 {
		t.Errorf("%d boxes and %d body bytes over %d subreads, want more boxes than round trips and %d bytes", boxes, bodyBytes, subreads, 32*32*32*4)
	}

	// Shard side: each round trip ran under the same trace id, and the
	// shard's root span carries the store stage breakdown. A shard publishes
	// its trace after its response is written — with one round trip per shard
	// the gateway's answer can be here first, so wait for one trace per
	// round trip.
	var shardTraces, withStages int
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		shardTraces, withStages = 0, 0
		for _, srv := range srvs {
			for _, tr := range srv.ins.rec.Snapshot(0, 0) {
				if tr.ID != traceID {
					continue
				}
				shardTraces++
				if a := tr.Spans[0].Attrs; a["store.decodes"] != "" && a["store.fetches"] != "" && a["store.fetchMs"] != "" {
					withStages++
				}
			}
		}
		if shardTraces >= subreads || time.Now().After(deadline) {
			break
		}
	}
	if shardTraces < 2 {
		t.Errorf("%d shard traces under the gateway's id, want >= 2 (both shards serve round trips)", shardTraces)
	}
	if withStages != shardTraces {
		t.Errorf("%d of %d shard traces carry store stage timings", withStages, shardTraces)
	}

	// A query fans out on the same engine, so its trace is the same tree: a
	// fanout span naming the op, one subread per sub-query, each with its
	// shard.get.
	const queryID = "trace-obs-query"
	req, _ = http.NewRequest(http.MethodGet, gts.URL+"/v1/fields/nyx/query?op=gt&value=0.5", nil)
	req.Header.Set("X-Qoz-Request-Id", queryID)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var qtr *obs.Trace
	for deadline := time.Now().Add(5 * time.Second); qtr == nil && time.Now().Before(deadline); {
		if qtr = findTrace(getTraces(t, gts.URL+"/debug/traces?n=100").Traces, queryID); qtr == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if qtr == nil {
		t.Fatal("gateway /debug/traces has no trace for the query")
	}
	names := map[string]int{}
	byID := map[int]obs.SpanData{}
	for _, sp := range qtr.Spans {
		names[sp.Name]++
		byID[sp.ID] = sp
	}
	for _, sp := range qtr.Spans {
		parent := byID[sp.Parent].Name
		switch sp.Name {
		case "fanout":
			if sp.Attrs["op"] != "gt" || sp.Attrs["subreads"] != strconv.Itoa(names["subread"]) {
				t.Errorf("query fanout span attrs %v, want op=gt and subreads=%d", sp.Attrs, names["subread"])
			}
		case "subread":
			if parent != "fanout" || sp.Attrs["boxes"] != "1" || sp.Attrs["lo"] == "" {
				t.Errorf("query subread span under %q with attrs %v, want one box under fanout", parent, sp.Attrs)
			}
		case "shard.get":
			if parent != "subread" {
				t.Errorf("query shard.get span under %q, want subread", parent)
			}
		}
	}
	if names["fanout"] != 1 || names["subread"] < 2 || names["shard.get"] != names["subread"] {
		t.Errorf("query trace spans %v, want one fanout over two or more subreads, one shard.get each", names)
	}
}

// TestMetricsExposition scrapes both roles after live traffic and lints
// the exposition: HELP/TYPE on every family, no duplicates, sorted series,
// well-formed histograms — checks the rendered families against the table
// in docs/OBSERVABILITY.md, and requires two consecutive renders to be
// byte-identical (the determinism the sorted emission paths commit to).
func TestMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	mounts := []mount{{name: "nyx", target: p32}}
	shards, srvs := startShards(t, mounts, 2, serverOptions{CacheBytes: 32 << 20}, nil)
	gw, gts := startGateway(t, gatewayOptions{Shards: shardURLs(shards)})

	// Traffic: a fan-out read, a 404, and a direct shard read, so route and
	// status labels multiply and the stage histogram fills.
	get(t, gts.URL+"/v1/fields/nyx/region?lo=0,0,0&hi=16,16,16")
	get(t, gts.URL+"/v1/fields/nope")
	get(t, shards[0].URL+"/v1/fields/nyx/region?lo=0,0,0&hi=8,8,8")

	rendered := map[string]map[string]string{} // role → family → type
	for name, url := range map[string]string{
		"shard":   shards[0].URL + "/metrics",
		"gateway": gts.URL + "/metrics",
	} {
		resp, body := get(t, url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s /metrics: %s", name, resp.Status)
		}
		if err := obs.LintExposition(string(body)); err != nil {
			t.Errorf("%s /metrics fails lint: %v", name, err)
		}
		if !strings.Contains(string(body), "qozd_request_duration_seconds_bucket{") {
			t.Errorf("%s /metrics has no request duration histogram", name)
		}
		rendered[name] = map[string]string{}
		for _, line := range strings.Split(string(body), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
				rendered[name][f[2]] = f[3]
			}
		}
	}

	// docs/OBSERVABILITY.md tabulates exactly what the two roles render:
	// every family, its type, and which role carries it.
	documented := documentedFamilies(t)
	for role, families := range rendered {
		other := rendered[map[string]string{"shard": "gateway", "gateway": "shard"}[role]]
		for family, typ := range families {
			doc, ok := documented[family]
			if !ok {
				t.Errorf("%s renders %s, missing from the docs/OBSERVABILITY.md family table", role, family)
				continue
			}
			wantRole := role
			if _, shared := other[family]; shared {
				wantRole = "both"
			}
			if doc.role != wantRole || doc.typ != typ {
				t.Errorf("%s: documented as a %s on %q, rendered as a %s on %q", family, doc.typ, doc.role, typ, wantRole)
			}
		}
	}
	for family := range documented {
		if rendered["shard"][family] == "" && rendered["gateway"][family] == "" {
			t.Errorf("docs/OBSERVABILITY.md lists %s, which neither role renders", family)
		}
	}
	if body := metricsRender(srvs[0].handleMetrics); !strings.Contains(body, `qozd_store_stage_seconds_bucket{stage="decode"`) {
		t.Error("shard /metrics has no store stage histogram after a region read")
	}

	// Determinism: direct handler renders (which bump no counters) must be
	// byte-identical across calls, for both roles.
	if a, b := metricsRender(srvs[0].handleMetrics), metricsRender(srvs[0].handleMetrics); a != b {
		t.Error("two shard /metrics renders differ")
	}
	if a, b := metricsRender(gw.handleMetrics), metricsRender(gw.handleMetrics); a != b {
		t.Error("two gateway /metrics renders differ")
	}
}

// documentedFamilies parses the "## Metric families" table of
// docs/OBSERVABILITY.md: | `family` | type | labels | role | meaning |.
func documentedFamilies(t *testing.T) map[string]struct{ typ, role string } {
	t.Helper()
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Metric families\n")
	if !ok {
		t.Fatal("docs/OBSERVABILITY.md has no \"## Metric families\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	out := map[string]struct{ typ, role string }{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 6 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`qozd_") {
			continue
		}
		out[strings.Trim(strings.TrimSpace(cells[1]), "`")] = struct{ typ, role string }{
			strings.TrimSpace(cells[2]), strings.TrimSpace(cells[4])}
	}
	if len(out) == 0 {
		t.Fatal("docs/OBSERVABILITY.md family table has no rows")
	}
	return out
}

func metricsRender(h func(http.ResponseWriter, *http.Request)) string {
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	// The runtime's own counters move with every render (rendering
	// allocates): their sample lines are not part of "the same state".
	var fixed []string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, "qozd_go_") {
			fixed = append(fixed, line)
		}
	}
	return strings.Join(fixed, "\n")
}

// TestTracesEndpoint pins /debug/traces behavior: parameters, validation,
// and auth gating alongside the /v1 endpoints.
func TestTracesEndpoint(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	mounts := []mount{{name: "nyx", target: p32}}
	srv, err := newServer(mounts, serverOptions{CacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	for i := 0; i < 3; i++ {
		get(t, ts.URL+"/v1/fields")
	}
	out := getTraces(t, ts.URL+"/debug/traces")
	if out.Total < 3 || len(out.Traces) < 3 {
		t.Fatalf("traces total=%d len=%d after 3 requests", out.Total, len(out.Traces))
	}
	// Newest first; the head is the /v1/fields request just before this call.
	if out.Traces[0].Name != "GET fields" {
		t.Errorf("head trace %q, want GET fields", out.Traces[0].Name)
	}
	if got := getTraces(t, ts.URL+"/debug/traces?n=1"); len(got.Traces) != 1 {
		t.Errorf("n=1 returned %d traces", len(got.Traces))
	}
	// A min filter far above any local request duration returns nothing.
	if got := getTraces(t, ts.URL+"/debug/traces?min=1h"); len(got.Traces) != 0 {
		t.Errorf("min=1h returned %d traces", len(got.Traces))
	}
	for _, bad := range []string{"?n=0", "?n=x", "?min=fast", "?min=-1s"} {
		resp, _ := get(t, ts.URL+"/debug/traces"+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/debug/traces%s: %s, want 400", bad, resp.Status)
		}
	}

	// With auth on, /debug/traces needs the same bearer token as /v1/*.
	authed, err := newServer(mounts, serverOptions{CacheBytes: 32 << 20,
		Guard: guardOptions{AuthToken: "sekrit"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(authed.Close)
	ats := httptest.NewServer(authed)
	t.Cleanup(ats.Close)
	resp, _ := get(t, ats.URL+"/debug/traces")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless /debug/traces: %s, want 401", resp.Status)
	}
	req, _ := http.NewRequest(http.MethodGet, ats.URL+"/debug/traces", nil)
	req.Header.Set("Authorization", "Bearer sekrit")
	aresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated /debug/traces: %s", aresp.Status)
	}
}

// TestSlowRequestLog: a request over the -slow-request threshold logs a
// warning that carries the request id and the full span breakdown.
func TestSlowRequestLog(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	var buf bytes.Buffer
	ins := newInstrument(instrumentOptions{
		Logger:      slog.New(slog.NewJSONHandler(&buf, nil)),
		SlowRequest: time.Nanosecond, // everything is slow
	})
	srv, err := newServer([]mount{{name: "nyx", target: p32}},
		serverOptions{CacheBytes: 32 << 20, Ins: ins})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/fields/nyx/region?lo=0,0,0&hi=8,8,8", nil)
	req.Header.Set("X-Qoz-Request-Id", "slow-req-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var entry struct {
		Level     string         `json:"level"`
		Msg       string         `json:"msg"`
		RequestID string         `json:"requestId"`
		Route     string         `json:"route"`
		Status    int            `json:"status"`
		Tenant    string         `json:"tenant"`
		Spans     []obs.SpanData `json:"spans"`
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("log line not JSON: %q: %v", line, err)
		}
		if entry.RequestID == "slow-req-1" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no log line for the request; log:\n%s", buf.String())
	}
	if entry.Msg != "slow request" || entry.Level != "WARN" {
		t.Errorf("log %q at %s, want slow request at WARN", entry.Msg, entry.Level)
	}
	if entry.Route != "region" || entry.Status != http.StatusOK || entry.Tenant != "anon" {
		t.Errorf("log fields route=%q status=%d tenant=%q", entry.Route, entry.Status, entry.Tenant)
	}
	if len(entry.Spans) == 0 || entry.Spans[0].Attrs["store.decodes"] == "" {
		t.Errorf("slow log has no span breakdown with stage timings: %+v", entry.Spans)
	}
}

// TestPprofOptIn: /debug/pprof/* serves only when -pprof is set, behind
// the same guard.
func TestPprofOptIn(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	mounts := []mount{{name: "nyx", target: p32}}

	off, err := newServer(mounts, serverOptions{CacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(off.Close)
	offTS := httptest.NewServer(off)
	t.Cleanup(offTS.Close)
	if resp, _ := get(t, offTS.URL+"/debug/pprof/cmdline"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without -pprof: %s, want 404", resp.Status)
	}

	on, err := newServer(mounts, serverOptions{CacheBytes: 32 << 20, Pprof: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(on.Close)
	onTS := httptest.NewServer(on)
	t.Cleanup(onTS.Close)
	if resp, _ := get(t, onTS.URL+"/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with -pprof: %s, want 200", resp.Status)
	}
}

// TestReadyzRetryAfter: a shard whose mount refresh is failing answers
// readyz 503 with a Retry-After, like every other retryable 503.
func TestReadyzRetryAfter(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	srv, err := newServer([]mount{{name: "nyx", target: p32}}, serverOptions{CacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	localOf(srv).refreshMu.Lock()
	localOf(srv).refreshBad["nyx"] = "origin gone"
	localOf(srv).refreshMu.Unlock()
	rec := httptest.NewRecorder()
	srv.handleReadyz(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with failing refresh: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("not-ready 503 has no Retry-After")
	}
}

// TestRouteLabel pins the bounded route classes.
func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/v1/fields":             "fields",
		"/v1/fields/nyx":         "field",
		"/v1/fields/nyx/region":  "region",
		"/metrics":               "metrics",
		"/healthz":               "probe",
		"/readyz":                "probe",
		"/debug/traces":          "traces",
		"/debug/pprof/profile":   "pprof",
		"/favicon.ico":           "other",
		"/v1/fields/a/b/unknown": "field",
	}
	for path, want := range cases {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}
