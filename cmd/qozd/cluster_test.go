package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qoz/cluster"
	"qoz/store"
)

// startShards spins n ordinary qozd servers, each mounting every store in
// mounts (data is fully replicated; the placement decides which shard
// serves which brick). wrap, when non-nil, wraps each shard's handler —
// tests use it to count, capture, or block shard traffic.
func startShards(t *testing.T, mounts []mount, n int, opts serverOptions,
	wrap func(i int, h http.Handler) http.Handler) ([]*httptest.Server, []*handler) {
	t.Helper()
	shards := make([]*httptest.Server, n)
	srvs := make([]*handler, n)
	for i := 0; i < n; i++ {
		srv, err := newServer(mounts, opts)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		t.Cleanup(srv.Close)
		h := http.Handler(srv)
		if wrap != nil {
			h = wrap(i, h)
		}
		shards[i] = httptest.NewServer(h)
		t.Cleanup(shards[i].Close)
		srvs[i] = srv
	}
	return shards, srvs
}

// localOf and fleetOf reach behind a handler built by newServer or
// newGateway for the role-specific state tests inspect.
func localOf(h *handler) *local { return h.be.(*local) }
func fleetOf(h *handler) *fleet { return h.be.(*fleet) }

func shardURLs(shards []*httptest.Server) []string {
	urls := make([]string, len(shards))
	for i, s := range shards {
		urls[i] = s.URL
	}
	return urls
}

// startGateway builds a gateway over the shards and serves it.
func startGateway(t *testing.T, opts gatewayOptions) (*handler, *httptest.Server) {
	t.Helper()
	gw, err := newGateway(opts)
	if err != nil {
		t.Fatalf("newGateway: %v", err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(ts.Close)
	return gw, ts
}

// TestClusterGatewayStitch is the core acceptance test: a region spanning
// shard-ownership boundaries read through the gateway must be
// byte-identical to the same read against a single node holding the whole
// store — raw and JSON, float32 and float64 — with the same ETag, and the
// fan-out must actually have used more than one shard.
func TestClusterGatewayStitch(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	p64, _, _ := buildStoreFile64(t, dir)
	mounts := []mount{{name: "nyx", target: p32}, {name: "wave", target: p64}}
	shards, _ := startShards(t, mounts, 2, serverOptions{CacheBytes: 32 << 20}, nil)
	gw, gts := startGateway(t, gatewayOptions{Shards: shardURLs(shards)})

	for _, tc := range []struct {
		field, region string
	}{
		// 32^3 field of 8^3 bricks: [1,31)^3 crosses every brick boundary.
		{"nyx", "lo=1,2,3&hi=31,30,29"},
		// 16^3 float64 field of 8^3 bricks (with a NaN in brick 0).
		{"wave", "lo=0,1,2&hi=15,16,14"},
	} {
		for _, format := range []string{"", "&format=json"} {
			url := "/v1/fields/" + tc.field + "/region?" + tc.region + format
			wantResp, want := get(t, shards[0].URL+url)
			gotResp, got := get(t, gts.URL+url)
			if gotResp.StatusCode != http.StatusOK {
				t.Fatalf("gateway %s: %s: %s", url, gotResp.Status, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: gateway body differs from single-node body (%d vs %d bytes)", url, len(got), len(want))
			}
			if ge, se := gotResp.Header.Get("ETag"), wantResp.Header.Get("ETag"); ge != se {
				t.Errorf("%s: gateway ETag %s, single-node ETag %s", url, ge, se)
			}
			for _, h := range []string{"X-Qoz-Dims", "X-Qoz-Dtype", "X-Qoz-Error-Bound"} {
				if gotResp.Header.Get(h) != wantResp.Header.Get(h) {
					t.Errorf("%s: header %s: gateway %q, single-node %q", url, h, gotResp.Header.Get(h), wantResp.Header.Get(h))
				}
			}
		}
	}

	// The reads must have fanned out: both shards served sub-reads.
	fleetOf(gw).trafficMu.Lock()
	served := 0
	for _, tr := range fleetOf(gw).traffic {
		if tr.Reads > 0 {
			served++
		}
	}
	fleetOf(gw).trafficMu.Unlock()
	if served != 2 {
		t.Errorf("%d shards served sub-reads, want 2 (region should span ownership boundaries)", served)
	}

	// Conditional GET through the gateway: revalidating with the gateway's
	// ETag answers 304.
	url := gts.URL + "/v1/fields/nyx/region?lo=1,2,3&hi=31,30,29"
	resp, _ := get(t, url)
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", resp.Header.Get("ETag"))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("revalidation answered %d, want 304", resp2.StatusCode)
	}
}

// TestClusterGatewayFailover kills one of two shards. With failover
// enabled the gateway must still produce byte-identical responses; with
// failover disabled (-fanout-attempts 1) it must answer a clean, prompt
// 502 with Retry-After — never a hang or a partially-stitched body.
func TestClusterGatewayFailover(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	mounts := []mount{{name: "nyx", target: p32}}
	shards, _ := startShards(t, mounts, 2, serverOptions{CacheBytes: 32 << 20}, nil)
	const region = "/v1/fields/nyx/region?lo=0,0,0&hi=32,32,32"
	_, want := get(t, shards[0].URL+region)

	gwFail, tsFail := startGateway(t, gatewayOptions{Shards: shardURLs(shards), Attempts: 2})
	gwNone, tsNone := startGateway(t, gatewayOptions{Shards: shardURLs(shards), Attempts: 1})

	shards[1].Close() // kill one shard; its bricks' owner is now unreachable

	resp, got := get(t, tsFail.URL+region)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover read: %s: %s", resp.Status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("failover read differs from pre-kill single-node read")
	}
	if fleetOf(gwFail).retries.Load() == 0 {
		t.Error("failover read reported zero retries; the dead shard owned nothing?")
	}

	start := time.Now()
	resp, body := get(t, tsNone.URL+region)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("no-failover read with a dead shard: %d, want 502 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("502 without Retry-After")
	}
	var errBody struct {
		Error     string `json:"error"`
		RequestID string `json:"requestId"`
	}
	if err := json.Unmarshal(body, &errBody); err != nil {
		t.Fatalf("502 body is not the JSON error shape: %s", body)
	}
	if errBody.RequestID == "" {
		t.Error("502 body missing requestId")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("502 took %v; a dead shard must fail fast, not hang", elapsed)
	}
	_ = gwNone
}

// TestClusterGatewaySingleFlight piles N identical concurrent requests on
// one hot region while the shards are blocked, then releases them: the
// gateway must run exactly one fan-out, every client must get the full
// correct bytes, and the shards must have seen one fan-out's worth of
// sub-reads — not N.
func TestClusterGatewaySingleFlight(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	mounts := []mount{{name: "nyx", target: p32}}

	release := make(chan struct{})
	var shardRegionReqs atomic.Int64
	shards, _ := startShards(t, mounts, 2, serverOptions{CacheBytes: 32 << 20},
		func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/region") {
					shardRegionReqs.Add(1)
					<-release
				}
				h.ServeHTTP(w, r)
			})
		})
	gw, gts := startGateway(t, gatewayOptions{Shards: shardURLs(shards)})

	const region = "/v1/fields/nyx/region?lo=0,0,0&hi=16,16,16"
	const clients = 8
	bodies := make([][]byte, clients)
	status := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(gts.URL + region)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			status[i] = resp.StatusCode
		}()
	}
	// Wait until the whole herd is coalesced behind the one blocked leader,
	// then let the shards answer.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := gw.flight.Stats()
		if st.Leads == 1 && st.Coalesced == clients-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("herd never coalesced: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	wg.Wait()

	if st := gw.flight.Stats(); st.Leads != 1 {
		t.Errorf("%d fan-outs for %d identical concurrent requests, want 1", st.Leads, clients)
	}
	for i := 1; i < clients; i++ {
		if status[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, status[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d got different bytes than client 0", i)
		}
	}
	if want := 16 * 16 * 16 * 4; len(bodies[0]) != want {
		t.Fatalf("body is %d bytes, want %d", len(bodies[0]), want)
	}
	// The shards saw exactly one fan-out's sub-reads. (How many that is
	// depends on the placement, which hashes the shards' ephemeral-port
	// URLs — the plan for this box is sometimes as large as the herd — so
	// the count is pinned to the one lead's plan, not to the client count.)
	if got, want := shardRegionReqs.Load(), fleetOf(gw).subReads.Load(); got != want {
		t.Errorf("shards saw %d region requests, gateway planned %d sub-reads", got, want)
	}
}

// TestClusterTenantRateLimit puts named tenants behind token buckets at
// the gateway: the throttled tenant's second burst request gets 429 with
// Retry-After while another tenant keeps flowing, and the 429 shows up in
// the per-tenant metric.
func TestClusterTenantRateLimit(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	mounts := []mount{{name: "nyx", target: p32}}
	shards, _ := startShards(t, mounts, 2, serverOptions{CacheBytes: 32 << 20}, nil)
	_, gts := startGateway(t, gatewayOptions{
		Shards: shardURLs(shards),
		Guard: guardOptions{
			Tenants: []tenantCred{
				{name: "alice", token: "a-tok", rate: cluster.RateConfig{RPS: 0.1, Burst: 1}},
				{name: "bob", token: "b-tok"},
			},
		},
	})

	do := func(token string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, gts.URL+"/v1/fields", nil)
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if resp := do("a-tok"); resp.StatusCode != http.StatusOK {
		t.Fatalf("alice's first request: %d, want 200", resp.StatusCode)
	}
	resp := do("a-tok")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice's burst-exceeding request: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Bob's bucket is independent of alice's dry one.
	for i := 0; i < 3; i++ {
		if resp := do("b-tok"); resp.StatusCode != http.StatusOK {
			t.Fatalf("bob's request %d: %d, want 200", i, resp.StatusCode)
		}
	}
	// No token at all: 401, not 429.
	req, _ := http.NewRequest(http.MethodGet, gts.URL+"/v1/fields", nil)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless request: %d, want 401", r2.StatusCode)
	}

	mreq, _ := http.NewRequest(http.MethodGet, gts.URL+"/metrics", nil)
	mreq.Header.Set("Authorization", "Bearer b-tok")
	mresp, err := http.DefaultClient.Do(mreq)
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(metrics), `qozd_rate_limited_total{tenant="alice"} 1`) {
		t.Errorf("metrics missing alice's 429:\n%s", metrics)
	}
}

// TestClusterShardAuth verifies the gateway's shard-facing credential: a
// token-protected fleet serves through a gateway holding the shard token,
// and the client's own tenant token never leaks through to shards.
func TestClusterShardAuth(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	mounts := []mount{{name: "nyx", target: p32}}
	shards, _ := startShards(t, mounts, 2,
		serverOptions{CacheBytes: 32 << 20, Guard: guardOptions{AuthToken: "fleet-secret"}}, nil)
	_, gts := startGateway(t, gatewayOptions{
		Shards:     shardURLs(shards),
		ShardToken: "fleet-secret",
		Guard:      guardOptions{AuthToken: "client-secret"},
	})

	req, _ := http.NewRequest(http.MethodGet, gts.URL+"/v1/fields/nyx/region?lo=0,0,0&hi=4,4,4", nil)
	req.Header.Set("Authorization", "Bearer client-secret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated read through token-protected fleet: %s: %s", resp.Status, body)
	}
	if len(body) != 4*4*4*4 {
		t.Fatalf("body is %d bytes, want %d", len(body), 4*4*4*4)
	}
}

// TestClusterRequestID pins request-id correlation end to end: a
// client-supplied id is echoed by the gateway and presented to every
// shard; an absent or hostile id is replaced with a generated one; error
// bodies carry the id.
func TestClusterRequestID(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	mounts := []mount{{name: "nyx", target: p32}}

	var mu sync.Mutex
	seen := map[string]bool{} // ids observed at the shards
	shards, _ := startShards(t, mounts, 2, serverOptions{CacheBytes: 32 << 20},
		func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/region") {
					mu.Lock()
					seen[r.Header.Get("X-Qoz-Request-Id")] = true
					mu.Unlock()
				}
				h.ServeHTTP(w, r)
			})
		})
	_, gts := startGateway(t, gatewayOptions{Shards: shardURLs(shards)})

	req, _ := http.NewRequest(http.MethodGet, gts.URL+"/v1/fields/nyx/region?lo=0,0,0&hi=32,32,32", nil)
	req.Header.Set("X-Qoz-Request-Id", "trace-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Qoz-Request-Id"); got != "trace-abc-123" {
		t.Errorf("gateway echoed id %q, want trace-abc-123", got)
	}
	mu.Lock()
	propagated := seen["trace-abc-123"]
	mu.Unlock()
	if !propagated {
		t.Error("shards never saw the client's request id")
	}

	// No id supplied: the gateway generates one (16 hex chars).
	resp2, _ := get(t, gts.URL+"/v1/fields")
	gen := resp2.Header.Get("X-Qoz-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(gen) {
		t.Errorf("generated id %q, want 16 hex chars", gen)
	}

	// A hostile id is dropped, not propagated.
	req3, _ := http.NewRequest(http.MethodGet, gts.URL+"/v1/fields", nil)
	req3.Header.Set("X-Qoz-Request-Id", "bad id{}%")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Qoz-Request-Id"); got == "bad id{}%" || got == "" {
		t.Errorf("hostile id handled as %q, want a fresh generated id", got)
	}

	// Error bodies carry the id.
	req4, _ := http.NewRequest(http.MethodGet, gts.URL+"/v1/fields/nosuch", nil)
	req4.Header.Set("X-Qoz-Request-Id", "err-trace-9")
	resp4, err := http.DefaultClient.Do(req4)
	if err != nil {
		t.Fatal(err)
	}
	body4, _ := io.ReadAll(resp4.Body)
	resp4.Body.Close()
	var errBody struct {
		RequestID string `json:"requestId"`
	}
	if err := json.Unmarshal(body4, &errBody); err != nil || errBody.RequestID != "err-trace-9" {
		t.Errorf("404 body %s: requestId %q, want err-trace-9", body4, errBody.RequestID)
	}
}

// TestClusterProbes checks /healthz and /readyz on both roles: always
// credential-free, healthz always 200, gateway readyz degrading to 503
// naming the unreachable shard.
func TestClusterProbes(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	mounts := []mount{{name: "nyx", target: p32}}
	// Shards behind auth: probes must not need the token.
	shards, _ := startShards(t, mounts, 2,
		serverOptions{CacheBytes: 32 << 20, Guard: guardOptions{AuthToken: "secret"}}, nil)
	_, gts := startGateway(t, gatewayOptions{
		Shards:     shardURLs(shards),
		ShardToken: "secret",
		Guard:      guardOptions{AuthToken: "secret"},
	})

	for _, url := range []string{shards[0].URL + "/healthz", shards[0].URL + "/readyz",
		gts.URL + "/healthz", gts.URL + "/readyz"} {
		resp, body := get(t, url)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %s: %s (probes must not need credentials)", url, resp.Status, body)
		}
	}

	shards[1].Close()
	resp, body := get(t, gts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a dead shard: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("not-ready 503 has no Retry-After; every retryable 503 should name a horizon")
	}
	var ready struct {
		Unreachable []string `json:"unreachableShards"`
	}
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if len(ready.Unreachable) != 1 || ready.Unreachable[0] != shards[1].URL {
		t.Errorf("unreachableShards %v, want [%s]", ready.Unreachable, shards[1].URL)
	}
	// Liveness is unaffected.
	if resp, _ := get(t, gts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Error("healthz failed because a shard died; liveness must not depend on the fleet")
	}
}

// TestClusterStaleRetry advances a mutable store on the shards past the
// gateway's catalog: the per-sub-read generation gate must refuse the
// mixed state, and the gateway must refresh its catalog and serve the new
// generation — never stitch two generations into one body.
func TestClusterStaleRetry(t *testing.T) {
	dir := t.TempDir()
	path, _ := buildMutableStoreFile(t, dir, 4, 16, 16)
	mounts := []mount{{name: "live", target: path}}
	shards, srvs := startShards(t, mounts, 2, serverOptions{CacheBytes: 32 << 20}, nil)
	gw, gts := startGateway(t, gatewayOptions{Shards: shardURLs(shards)})
	oldGen := (*fleetOf(gw).catalog.Load())["live"].Generation

	// Append a generation and let the shards adopt it; the gateway's
	// catalog still names the old one.
	m, err := store.OpenMutable(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plane := make([]float32, 16*16)
	for i := range plane {
		plane[i] = 99
	}
	if err := m.AppendSteps(context.Background(), plane); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for _, srv := range srvs {
		srv.refresh(context.Background())
	}

	resp, body := get(t, gts.URL+"/v1/fields/live/region?lo=0,0,0&hi=4,16,16")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read across a generation bump: %s: %s", resp.Status, body)
	}
	_, want := get(t, shards[0].URL+"/v1/fields/live/region?lo=0,0,0&hi=4,16,16")
	if !bytes.Equal(body, want) {
		t.Fatal("post-refresh gateway body differs from shard body")
	}
	newGen := (*fleetOf(gw).catalog.Load())["live"].Generation
	if newGen <= oldGen {
		t.Fatalf("gateway catalog generation %d after stale retry, want > %d", newGen, oldGen)
	}
	if !strings.Contains(resp.Header.Get("ETag"), fmt.Sprintf("-g%d-", newGen)) {
		t.Errorf("response ETag %s does not name the new generation %d", resp.Header.Get("ETag"), newGen)
	}
	// The new step is reachable through the gateway too.
	resp2, body2 := get(t, gts.URL+"/v1/fields/live/region?lo=4,0,0&hi=5,16,16")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("read of appended step: %s: %s", resp2.Status, body2)
	}
}

// TestTenantFlagParsing pins the -tenant name=token[:rps[:burst]] syntax.
func TestTenantFlagParsing(t *testing.T) {
	var tf tenantFlags
	for _, ok := range []string{"alice=tok", "bob=tok2:5", "carol=tok3:2.5:10", "dave=tok4:0"} {
		if err := tf.Set(ok); err != nil {
			t.Errorf("Set(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "noequals", "=tok", "x=", "x=t:abc", "x=t:1:0", "x=t:1:2:3"} {
		var f tenantFlags
		if err := f.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
	if tf[1].rate.RPS != 5 || tf[2].rate != (cluster.RateConfig{RPS: 2.5, Burst: 10}) {
		t.Errorf("parsed rates wrong: %+v", tf)
	}
	if tf[3].rate.RPS != -1 {
		t.Errorf("explicit rate 0 should mark the tenant exempt (RPS -1), got %v", tf[3].rate.RPS)
	}
	if tf[0].rate.RPS != 0 {
		t.Errorf("no rate suffix should leave the default (RPS 0), got %v", tf[0].rate.RPS)
	}
}

// TestShardSingleFlightMetrics drives concurrent identical requests at a
// single shard and checks the shard-side flight counters move — the
// request-layer mirror of the store's remote coalescing.
func TestShardSingleFlightMetrics(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	srv, err := newServer([]mount{{name: "nyx", target: p32}}, serverOptions{CacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const clients = 16
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/fields/nyx/region?lo=0,0,0&hi=32,32,32")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	st := srv.flight.Stats()
	if st.Leads+st.Coalesced != clients {
		t.Fatalf("flight accounted %d+%d requests, want %d", st.Leads, st.Coalesced, clients)
	}
	if st.Leads == 0 {
		t.Fatal("no flight leads recorded")
	}
	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "qozd_flight_leads_total") {
		t.Error("metrics missing qozd_flight_leads_total")
	}
}

// TestClusterGatewayLevelStitch pins the tentpole's cluster contract: a
// coarse (level>1) read through the gateway — stitched from per-shard
// coarse sub-reads — is byte-identical to the same coarse read against a
// single node holding the whole store, with the same level-aware ETag and
// headers. It also pins the strided-subset relation against the gateway's
// own full-resolution body, per-level cache validators, and the 400s for
// malformed levels and regions holding no coarse point.
func TestClusterGatewayLevelStitch(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	p64, _, _ := buildStoreFile64(t, dir)
	mounts := []mount{{name: "nyx", target: p32}, {name: "wave", target: p64}}
	shards, _ := startShards(t, mounts, 2, serverOptions{CacheBytes: 32 << 20}, nil)
	gw, gts := startGateway(t, gatewayOptions{Shards: shardURLs(shards)})

	for _, tc := range []struct {
		field, region string
		level         int
	}{
		// 32^3 field of 8^3 bricks; [1,31)^3 crosses every brick boundary.
		{"nyx", "lo=1,2,3&hi=31,30,29", 2},
		{"nyx", "lo=1,2,3&hi=31,30,29", 3},
		// Stride 16: a single surviving coarse point (16,16,16) — most
		// sub-regions hold no coarse point and must be skipped, not 400ed.
		{"nyx", "lo=1,2,3&hi=31,30,29", 5},
		// 16^3 float64 field (with a NaN), stride 4.
		{"wave", "lo=0,1,2&hi=15,16,14", 3},
	} {
		for _, format := range []string{"", "&format=json"} {
			url := fmt.Sprintf("/v1/fields/%s/region?%s&level=%d%s", tc.field, tc.region, tc.level, format)
			wantResp, want := get(t, shards[0].URL+url)
			if wantResp.StatusCode != http.StatusOK {
				t.Fatalf("single-node %s: %s: %s", url, wantResp.Status, want)
			}
			gotResp, got := get(t, gts.URL+url)
			if gotResp.StatusCode != http.StatusOK {
				t.Fatalf("gateway %s: %s: %s", url, gotResp.Status, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: gateway body differs from single-node body (%d vs %d bytes)", url, len(got), len(want))
			}
			for _, h := range []string{"ETag", "X-Qoz-Dims", "X-Qoz-Dtype", "X-Qoz-Level"} {
				if gotResp.Header.Get(h) != wantResp.Header.Get(h) {
					t.Errorf("%s: header %s: gateway %q, single-node %q", url, h, gotResp.Header.Get(h), wantResp.Header.Get(h))
				}
			}
		}
	}

	// The coarse body really is the stride-2^(L-1) subset of the gateway's
	// own full-resolution read — stitching did not reorder or resample.
	const lo0, hi0 = 1, 31 // same box on every axis keeps the index math short
	const level = 2
	const stride = 1 << (level - 1)
	_, full := get(t, gts.URL+"/v1/fields/nyx/region?lo=1,1,1&hi=31,31,31")
	resp, coarse := get(t, gts.URL+fmt.Sprintf("/v1/fields/nyx/region?lo=1,1,1&hi=31,31,31&level=%d", level))
	if got := resp.Header.Get("X-Qoz-Level"); got != fmt.Sprint(level) {
		t.Errorf("X-Qoz-Level %q, want %d", got, level)
	}
	fullN := hi0 - lo0                 // full-resolution points per axis
	clo := (lo0 + stride - 1) / stride // first coarse coordinate
	cN := (hi0-1)/stride + 1 - clo     // coarse points per axis
	if wantLen := 4 * cN * cN * cN; len(coarse) != wantLen {
		t.Fatalf("coarse body %d bytes, want %d", len(coarse), wantLen)
	}
	for z := 0; z < cN; z++ {
		for y := 0; y < cN; y++ {
			for x := 0; x < cN; x++ {
				ci := ((z*cN+y)*cN + x) * 4
				gz, gy, gx := (clo+z)*stride-lo0, (clo+y)*stride-lo0, (clo+x)*stride-lo0
				fi := ((gz*fullN+gy)*fullN + gx) * 4
				if !bytes.Equal(coarse[ci:ci+4], full[fi:fi+4]) {
					t.Fatalf("coarse point (%d,%d,%d) differs from full-resolution sample", x, y, z)
				}
			}
		}
	}

	// Level is part of the validator: coarse and full reads carry distinct
	// ETags, and revalidating the coarse one answers 304.
	respFull, _ := get(t, gts.URL+"/v1/fields/nyx/region?lo=1,2,3&hi=31,30,29")
	respL, _ := get(t, gts.URL+"/v1/fields/nyx/region?lo=1,2,3&hi=31,30,29&level=2")
	if respFull.Header.Get("ETag") == respL.Header.Get("ETag") {
		t.Error("level-2 read shares the level-1 ETag; caches would serve the wrong resolution")
	}
	req, _ := http.NewRequest(http.MethodGet, gts.URL+"/v1/fields/nyx/region?lo=1,2,3&hi=31,30,29&level=2", nil)
	req.Header.Set("If-None-Match", respL.Header.Get("ETag"))
	resp304, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp304.Body)
	resp304.Body.Close()
	if resp304.StatusCode != http.StatusNotModified {
		t.Errorf("coarse revalidation answered %d, want 304", resp304.StatusCode)
	}

	// Malformed levels and coarse-empty regions are client errors on both
	// roles, stated identically.
	for _, bad := range []string{
		"lo=1,2,3&hi=31,30,29&level=0",
		"lo=1,2,3&hi=31,30,29&level=31",
		"lo=1,2,3&hi=31,30,29&level=x",
		"lo=1,1,1&hi=2,2,2&level=2", // [1,2): no coordinate is a multiple of 2
	} {
		for _, base := range []string{gts.URL, shards[0].URL} {
			resp, body := get(t, base+"/v1/fields/nyx/region?"+bad)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("GET ?%s against %s: %d, want 400 (body %s)", bad, base, resp.StatusCode, body)
			}
		}
	}

	// Fan-out still crossed shard boundaries at level 2 (the coarse grid
	// spans many bricks, so both owners served).
	fleetOf(gw).trafficMu.Lock()
	served := 0
	for _, tr := range fleetOf(gw).traffic {
		if tr.Reads > 0 {
			served++
		}
	}
	fleetOf(gw).trafficMu.Unlock()
	if served != 2 {
		t.Errorf("%d shards served coarse sub-reads, want 2", served)
	}
}

// getHeaders is get with request headers.
func getHeaders(t *testing.T, url string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp, body
}

// TestClusterRoleParity sends one table of malformed and edge requests to
// a shard and to a gateway over the same stores and requires the two
// answers to be indistinguishable: same status, same error string, same
// validator and X-Qoz-* headers, and for 200s the same body. Both roles
// run one request pipeline, so nothing here can depend on which answered —
// including the order in which a request with several faults is rejected.
func TestClusterRoleParity(t *testing.T) {
	dir := t.TempDir()
	p32, _ := buildStoreFile(t, dir)
	p64, _, _ := buildStoreFile64(t, dir)
	live, _ := buildMutableStoreFile(t, dir, 4, 16, 16)
	mounts := []mount{{name: "nyx", target: p32}, {name: "wave", target: p64}, {name: "live", target: live}}
	const maxPoints = 20000 // below the 32^3 nyx field, above its level-2 grid
	shards, _ := startShards(t, mounts, 2, serverOptions{CacheBytes: 32 << 20, MaxPoints: maxPoints}, nil)
	_, gts := startGateway(t, gatewayOptions{Shards: shardURLs(shards), MaxPoints: maxPoints})

	const box = "lo=1,2,3&hi=17,18,19"
	const multi = "lo=16,8,0&hi=32,24,9&lo=0,0,0&hi=8,8,8&lo=4,6,2&hi=20,19,23"
	const query = "op=gt&value=0.5&lo=1,2,3&hi=31,30,29"
	for _, tc := range []struct {
		path string // under /v1/fields/
		inm  string // If-None-Match: "", a literal, or match / weak (the response's own ETag, W/-prefixed for weak)
		gzip bool
	}{
		// Unknown field: 404 before anything else is looked at.
		{path: "nope/region"},
		{path: "nope/region?" + box},
		{path: "nope/region?" + box + "&level=99&format=xml"},
		{path: "nope/query"},
		{path: "nope/query?op=gt&value=1"},
		// Corners: missing, garbled, wrong rank, outside the field, empty.
		{path: "nyx/region"},
		{path: "nyx/region?lo=0,0,0"},
		{path: "nyx/region?lo=a,b,c&hi=1,1,1"},
		{path: "nyx/region?lo=0,0,0&hi=1,x,1"},
		{path: "nyx/region?lo=0,0&hi=1,1"},
		{path: "nyx/region?lo=0,0,0&hi=33,1,1"},
		{path: "nyx/region?lo=5,0,0&hi=5,1,1"},
		// Level: out of range, not a number, a grid the box misses.
		{path: "nyx/region?" + box + "&level=0"},
		{path: "nyx/region?" + box + "&level=99"},
		{path: "nyx/region?" + box + "&level=x"},
		{path: "nyx/region?lo=1,1,1&hi=2,2,2&level=2"},
		// -max-points binds the served grid, not the box.
		{path: "nyx/region?lo=0,0,0&hi=32,32,32"},
		{path: "nyx/region?lo=0,0,0&hi=32,32,32&level=2"},
		// Format, alone and behind an earlier fault.
		{path: "nyx/region?" + box + "&format=xml"},
		{path: "nyx/region?" + box + "&level=99&format=xml"},
		{path: "nyx/region?lo=0,0,0&hi=32,32,32&format=xml"},
		// Good reads in every encoding and both element types.
		{path: "nyx/region?" + box},
		{path: "nyx/region?" + box + "&format=json"},
		{path: "nyx/region?" + box + "&format=json", gzip: true},
		{path: "wave/region?lo=0,1,2&hi=15,16,14"},
		{path: "wave/region?lo=0,1,2&hi=15,16,14&format=json&level=2"},
		{path: "live/region?lo=0,0,0&hi=4,16,16"},
		// Several boxes in one request: the form a gateway sends its shards,
		// answered alike by both roles — out of order, overlapping, on a
		// level, float64 — and its own faults, in the one validation order.
		{path: "nyx/region?" + multi},
		{path: "nyx/region?" + multi + "&level=2"},
		{path: "wave/region?lo=8,0,0&hi=16,16,5&lo=0,1,2&hi=15,16,14&lo=8,0,0&hi=16,16,5"},
		{path: "live/region?lo=2,0,0&hi=4,16,16&lo=0,0,0&hi=2,16,16"},
		{path: "nyx/region?" + multi + "&lo=0,0,0"},
		{path: "nyx/region?hi=1,1,1&" + multi},
		{path: "nyx/region?" + multi + "&lo=&hi="},
		{path: "nyx/region?" + multi + "&lo=0,0,0&hi=33,1,1"},
		{path: "nyx/region?" + multi + "&lo=1,1,1&hi=2,2,2&level=2"},
		{path: "nyx/region?lo=0,0,0&hi=16,32,32&lo=16,0,0&hi=32,32,32"},
		{path: "nyx/region?lo=0,0,0&hi=16,32,32&lo=16,0,0&hi=32,32,32&level=2"},
		{path: "nyx/region?" + multi + "&format=json"},
		{path: "nyx/region?" + multi + "&format=xml"},
		{path: "nyx/region?" + multi + "&level=99&format=json"},
		{path: "nyx/region?" + multi, inm: "match"},
		{path: "nyx/region?" + multi + "&level=2", inm: "weak"},
		{path: "nyx/region?" + multi, inm: `"00000000-g0-n3-0000000000000000-float32-raw"`},
		// Conditional GETs.
		{path: "nyx/region?" + box, inm: `"00000000-g0-stale"`},
		{path: "nyx/region?" + box, inm: "match"},
		{path: "nyx/region?" + box, inm: "weak"},
		{path: "nyx/region?" + box, inm: "*"},
		{path: "nyx/region?" + box + "&level=2", inm: "match"},
		// Queries: bad op, bad parameters, the maxloc limit, good answers.
		{path: "nyx/query"},
		{path: "nyx/query?op=between"},
		{path: "nyx/query?op=gt"},
		{path: "nyx/query?op=gt&value=1&lo=0,0,0"},
		{path: "nyx/query?op=gt&value=1&lo=0,0,0&hi=64,1,1"},
		{path: "nyx/query?op=hist&low=0&high=1&bins=0"},
		{path: "nyx/query?op=hist&low=0&high=1&bins=" + fmt.Sprint(store.MaxQueryBins+1)},
		{path: "nyx/query?op=gt&value=1&maxloc=-1"},
		{path: "nyx/query?op=gt&value=0&maxloc=" + fmt.Sprint(maxPoints+1)},
		{path: "nyx/query?op=gt&value=1&lo=0,0,0&hi=4,4,4&lo=4,4,4&hi=8,8,8"},
		{path: "nyx/query?" + query},
		{path: "nyx/query?" + query + "&maxloc=5"},
		{path: "nyx/query?" + query, gzip: true},
		{path: "wave/query?op=hist&low=-2&high=2&bins=8"},
		{path: "nyx/query?" + query, inm: `"00000000-g0-stale"`},
		{path: "nyx/query?" + query, inm: "match"},
		{path: "nyx/query?" + query, inm: "weak"},
		{path: "nyx/query?" + query, inm: "*"},
	} {
		name := fmt.Sprintf("%s inm=%q gzip=%v", tc.path, tc.inm, tc.gzip)
		header := map[string]string{"X-Qoz-Request-Id": "parity-1"}
		if tc.gzip {
			header["Accept-Encoding"] = "gzip"
		}
		switch tc.inm {
		case "":
		case "match", "weak":
			first, _ := getHeaders(t, shards[0].URL+"/v1/fields/"+tc.path, header)
			etag := first.Header.Get("ETag")
			if etag == "" {
				t.Fatalf("%s: no ETag to revalidate with", name)
			}
			if tc.inm == "weak" {
				etag = "W/" + etag
			}
			header["If-None-Match"] = etag
		default:
			header["If-None-Match"] = tc.inm
		}
		sresp, sbody := getHeaders(t, shards[0].URL+"/v1/fields/"+tc.path, header)
		gresp, gbody := getHeaders(t, gts.URL+"/v1/fields/"+tc.path, header)
		if gresp.StatusCode != sresp.StatusCode {
			t.Errorf("%s: gateway %d (%s), shard %d (%s)", name, gresp.StatusCode, gbody, sresp.StatusCode, sbody)
			continue
		}
		for _, h := range []string{"ETag", "Content-Type", "Content-Encoding", "Retry-After",
			"X-Qoz-Dims", "X-Qoz-Dtype", "X-Qoz-Error-Bound", "X-Qoz-Level", "X-Qoz-Request-Id"} {
			if g, s := gresp.Header.Get(h), sresp.Header.Get(h); g != s {
				t.Errorf("%s: header %s: gateway %q, shard %q", name, h, g, s)
			}
		}
		// Error bodies are compared whole (message and request id); so are
		// 200 bodies, 304s having none.
		if !bytes.Equal(gbody, sbody) {
			if sresp.StatusCode == http.StatusOK {
				t.Errorf("%s: gateway body differs from shard body (%d vs %d bytes)", name, len(gbody), len(sbody))
			} else {
				t.Errorf("%s: gateway answered %s, shard %s", name, gbody, sbody)
			}
		}
	}

	// The manifests differ only in the keys that say where the data lives
	// (a shard's target and read stats, a gateway's shard list).
	for _, field := range []string{"nyx", "wave", "live"} {
		var sm, gm map[string]any
		for base, into := range map[string]*map[string]any{shards[0].URL: &sm, gts.URL: &gm} {
			_, body := get(t, base+"/v1/fields/"+field)
			if err := json.Unmarshal(body, into); err != nil {
				t.Fatalf("%s manifest from %s: %v (%s)", field, base, err, body)
			}
		}
		delete(sm, "target")
		delete(sm, "stats")
		delete(gm, "shards")
		if !reflect.DeepEqual(gm, sm) {
			t.Errorf("%s: gateway manifest %v, shard manifest %v", field, gm, sm)
		}
	}
}

// syncBuffer is a log destination tests read while servers write to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestGatewayReportsDroppedFields: a shard that lists a field the catalog
// cannot plan over (here a float16 one, beside its good field) costs that
// field alone, and says so. The gateway serves the good field, answers 404
// for the dropped one, logs one line naming the shard and the field each
// time the set of dropped reports changes — not on every refresh — and
// exports the count as qozd_gateway_fields_dropped. A refresh that drops a
// report still succeeds, so the stale-generation retry, which retries only
// after a successful refresh, still retries.
func TestGatewayReportsDroppedFields(t *testing.T) {
	var logs syncBuffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)

	path, _ := buildStoreFile(t, t.TempDir())
	var listBad atomic.Bool
	listBad.Store(true)
	shards, _ := startShards(t, []mount{{name: "nyx", target: path}}, 1, serverOptions{},
		func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/fields" || !listBad.Load() {
					h.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				r.Header.Del("Accept-Encoding") // a plain body to edit
				h.ServeHTTP(rec, r)
				var list map[string][]map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
					t.Errorf("shard listing: %v", err)
				}
				list["fields"] = append(list["fields"], map[string]any{
					"name": "half", "dims": []int{8, 8}, "brick": []int{4, 4},
					"dtype": "float16", "errorBound": 0.001, "generation": 1,
				})
				json.NewEncoder(w).Encode(list) //nolint:errcheck
			})
		})
	gw, gts := startGateway(t, gatewayOptions{Shards: shardURLs(shards)})
	dropLine := fmt.Sprintf("catalog: dropped unusable field report %s: field %q: unsupported dtype %q", shards[0].URL, "half", "float16")
	gauge := func() string {
		t.Helper()
		_, body := get(t, gts.URL+"/metrics")
		m := regexp.MustCompile(`(?m)^qozd_gateway_fields_dropped (\S+)$`).FindSubmatch(body)
		if m == nil {
			t.Fatal("/metrics has no qozd_gateway_fields_dropped sample")
		}
		return string(m[1])
	}

	if n := strings.Count(logs.String(), dropLine); n != 1 {
		t.Fatalf("startup logged the dropped field %d times, want once; log:\n%s", n, logs.String())
	}
	if g := gauge(); g != "1" {
		t.Fatalf("qozd_gateway_fields_dropped = %s, want 1", g)
	}
	for range 2 {
		if err := gw.refresh(context.Background()); err != nil {
			t.Fatalf("a refresh that drops a field report failed: %v", err)
		}
	}
	if n := strings.Count(logs.String(), dropLine); n != 1 {
		t.Fatalf("refreshes over an unchanged set logged the dropped field again (%d lines)", n)
	}
	if gw.refreshErrs.Load() != 0 {
		t.Fatalf("a dropped field report counted as %d refresh errors", gw.refreshErrs.Load())
	}
	if resp, _ := get(t, gts.URL+"/v1/fields/nyx/region?lo=0,0,0&hi=8,8,8"); resp.StatusCode != http.StatusOK {
		t.Fatalf("good field beside a dropped one: %s", resp.Status)
	}
	if resp, _ := get(t, gts.URL+"/v1/fields/half"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("dropped field: %s, want 404", resp.Status)
	}

	// The set changes twice: emptied, then the report is back.
	listBad.Store(false)
	if err := gw.refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if g := gauge(); g != "0" || !strings.Contains(logs.String(), "catalog: no field report dropped") {
		t.Fatalf("after the shard fixed its listing: gauge %s; log:\n%s", g, logs.String())
	}
	listBad.Store(true)
	if err := gw.refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(logs.String(), dropLine); n != 2 || gauge() != "1" {
		t.Fatalf("a report dropped again was logged %d times in all, want 2; log:\n%s", n, logs.String())
	}
}
