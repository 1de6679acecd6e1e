package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"qoz"
	"qoz/datagen"
	"qoz/store"
)

// nyxStore encodes buildStoreFile's store once per test process. Nearly
// every test here starts from it, and under -race the encode (tuner trial
// compressions) takes seconds — without this, CI's -count=20 flake hunt
// over the cluster tests would spend its whole budget re-compressing
// identical bytes.
var nyxStore = sync.OnceValues(func() ([]byte, error) {
	ds := datagen.NYX(32, 32, 32)
	var buf bytes.Buffer
	err := store.Write(context.Background(), &buf, ds.Data, ds.Dims, store.WriteOptions{
		Opts:  qoz.Options{RelBound: 1e-3},
		Brick: []int{8, 8, 8},
	})
	return buf.Bytes(), err
})

// buildStoreFile writes a small brick store to dir and returns its path
// and the original field.
func buildStoreFile(t *testing.T, dir string) (string, datagen.Dataset) {
	t.Helper()
	encoded, err := nyxStore()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "nyx.qozb")
	if err := os.WriteFile(path, encoded, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, datagen.NYX(32, 32, 32)
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

func TestServerEndpoints(t *testing.T) {
	path, _ := buildStoreFile(t, t.TempDir())
	srv, err := newServer([]mount{{name: "nyx", target: path}}, serverOptions{
		CacheBytes: 32 << 20,
		MaxPoints:  1 << 20,
	})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Field listing and manifest.
	resp, body := get(t, ts.URL+"/v1/fields")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/fields: %s: %s", resp.Status, body)
	}
	var list struct {
		Fields []fieldInfo `json:"fields"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("/v1/fields: %v", err)
	}
	if len(list.Fields) != 1 || list.Fields[0].Name != "nyx" || list.Fields[0].Bricks != 64 {
		t.Fatalf("/v1/fields listed %+v", list.Fields)
	}
	resp, body = get(t, ts.URL+"/v1/fields/nyx")
	var info fieldInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("/v1/fields/nyx: %v (%s)", err, body)
	}
	if info.Codec == "" || len(info.Dims) != 3 || info.ErrorBound <= 0 {
		t.Fatalf("manifest incomplete: %+v", info)
	}

	// Raw region bytes must equal a local ReadRegion bit for bit.
	local, err := store.OpenFile(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	lo, hi := []int{4, 4, 4}, []int{12, 20, 12}
	want, err := local.ReadRegion(context.Background(), lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = get(t, ts.URL+"/v1/fields/nyx/region?lo=4,4,4&hi=12,20,12")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("region: %s: %s", resp.Status, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("region Content-Type %q", ct)
	}
	if d := resp.Header.Get("X-Qoz-Dims"); d != "8,16,8" {
		t.Fatalf("X-Qoz-Dims %q", d)
	}
	if len(body) != 4*len(want) {
		t.Fatalf("region body %d bytes, want %d", len(body), 4*len(want))
	}
	for i := range want {
		if got := math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:])); got != want[i] {
			t.Fatalf("region byte payload differs at point %d: %v != %v", i, got, want[i])
		}
	}

	// JSON format carries the same values.
	resp, body = get(t, ts.URL+"/v1/fields/nyx/region?lo=0,0,0&hi=2,2,2&format=json")
	var jr struct {
		Dims []int     `json:"dims"`
		Data []float32 `json:"data"`
	}
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("json region: %v (%s)", err, body)
	}
	wantJSON, _ := local.ReadRegion(context.Background(), []int{0, 0, 0}, []int{2, 2, 2})
	if len(jr.Data) != len(wantJSON) || len(jr.Dims) != 3 {
		t.Fatalf("json region shape: %+v", jr.Dims)
	}
	for i := range wantJSON {
		if math.Abs(float64(jr.Data[i]-wantJSON[i])) > 1e-6*math.Abs(float64(wantJSON[i])) {
			t.Fatalf("json region differs at %d: %v != %v", i, jr.Data[i], wantJSON[i])
		}
	}

	// Error contract: 404, 400s, and the region size limit.
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/v1/fields/none", http.StatusNotFound},
		{"/v1/fields/none/region?lo=0,0,0&hi=1,1,1", http.StatusNotFound},
		{"/v1/fields/nyx/region", http.StatusBadRequest},
		{"/v1/fields/nyx/region?lo=0,0&hi=1,1,1", http.StatusBadRequest},
		{"/v1/fields/nyx/region?lo=0,0,0&hi=64,1,1", http.StatusBadRequest},
		{"/v1/fields/nyx/region?lo=x,0,0&hi=1,1,1", http.StatusBadRequest},
		{"/v1/fields/nyx/region?lo=0,0,0&hi=1,1,1&format=xml", http.StatusBadRequest},
	} {
		if resp, _ := get(t, ts.URL+tc.url); resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.url, resp.StatusCode, tc.code)
		}
	}
	big, err := newServer([]mount{{name: "nyx", target: path}}, serverOptions{MaxPoints: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	tsBig := httptest.NewServer(big)
	defer tsBig.Close()
	if resp, _ := get(t, tsBig.URL+"/v1/fields/nyx/region?lo=0,0,0&hi=8,8,8"); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized region: status %d, want 413", resp.StatusCode)
	}

	// Metrics reflect the traffic above.
	_, body = get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"qozd_requests_total",
		`qozd_store_bricks_decoded_total{field="nyx"}`,
		"qozd_cache_bytes",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(string(body), "qozd_region_points_total 1032\n") { // 8*16*8 + 2*2*2
		t.Errorf("/metrics points counter wrong:\n%s", body)
	}
}

// TestServerInflightLimit verifies admission control sheds load with 503
// once -max-inflight region decodes are running.
func TestServerInflightLimit(t *testing.T) {
	path, _ := buildStoreFile(t, t.TempDir())
	srv, err := newServer([]mount{{name: "nyx", target: path}}, serverOptions{MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	localOf(srv).inflight <- struct{}{} // occupy the only slot
	resp, _ := get(t, ts.URL+"/v1/fields/nyx/region?lo=0,0,0&hi=1,1,1")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated server answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if resp.Header.Get("ETag") != "" {
		t.Error("503 carries an ETag; validators belong only to the selected representation")
	}
	<-localOf(srv).inflight
	if resp, _ := get(t, ts.URL+"/v1/fields/nyx/region?lo=0,0,0&hi=1,1,1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("freed server answered %d, want 200", resp.StatusCode)
	}
}

// TestServerRemoteMount is the end-to-end acceptance path: qozd mounts a
// store URL (range reads against an object server) and its region
// endpoint must return the same bytes as a local read — the full
// bucket → range reads → shared cache → HTTP response chain.
func TestServerRemoteMount(t *testing.T) {
	path, _ := buildStoreFile(t, t.TempDir())
	content, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("ETag", `"v1"`)
		http.ServeContent(w, req, "nyx.qozb", time.Unix(1700000000, 0), bytes.NewReader(content))
	}))
	defer origin.Close()

	srv, err := newServer([]mount{{name: "nyx", target: origin.URL}}, serverOptions{
		CacheBytes: 32 << 20,
	})
	if err != nil {
		t.Fatalf("newServer over URL mount: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	local, err := store.OpenFile(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	want, err := local.ReadRegion(context.Background(), []int{4, 4, 4}, []int{12, 12, 12})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, ts.URL+"/v1/fields/nyx/region?lo=4,4,4&hi=12,12,12")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remote-mounted region: %s: %s", resp.Status, body)
	}
	if len(body) != 4*len(want) {
		t.Fatalf("remote-mounted region body %d bytes, want %d", len(body), 4*len(want))
	}
	for i := range want {
		if got := math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:])); got != want[i] {
			t.Fatalf("remote-mounted region differs at %d: %v != %v", i, got, want[i])
		}
	}

	// The store behind the mount fetched only ranges, and metrics show it.
	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), `qozd_store_remote_ranges_total{field="nyx"}`) {
		t.Errorf("/metrics missing remote range counter:\n%s", metrics)
	}
	st := localOf(srv).fields["nyx"].store.Stats()
	if st.RemoteRanges == 0 || st.RemoteBytes >= int64(len(content)) {
		t.Fatalf("URL mount transferred %d bytes of a %d-byte store in %d ranges — not range reads",
			st.RemoteBytes, len(content), st.RemoteRanges)
	}
}

// buildStoreFile64 writes a small float64 brick store (with a NaN the
// JSON path must turn into null) and returns its path and original field.
func buildStoreFile64(t *testing.T, dir string) (string, []float64, []int) {
	t.Helper()
	dims := []int{16, 16, 16}
	n := 16 * 16 * 16
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i)/40) + 1e-9*math.Cos(float64(i)/3)
	}
	data[5] = math.NaN()
	path := filepath.Join(dir, "wave64.qozb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteT(context.Background(), f, data, dims, store.WriteOptions{
		Opts:  qoz.Options{ErrorBound: 1e-7},
		Brick: []int{8, 8, 8},
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, data, dims
}

// TestServerFloat64Field serves a float64 store: the manifest must name
// the dtype, the raw region endpoint must return 8-byte little-endian
// samples bit-identical to a local read, and the JSON format must carry
// full-precision values with NaN as null.
func TestServerFloat64Field(t *testing.T) {
	path, _, _ := buildStoreFile64(t, t.TempDir())
	srv, err := newServer([]mount{{name: "wave", target: path}}, serverOptions{CacheBytes: 32 << 20})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, body := get(t, ts.URL+"/v1/fields/wave")
	var info fieldInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("manifest: %v (%s)", err, body)
	}
	if info.DType != "float64" {
		t.Fatalf("manifest dtype = %q, want float64", info.DType)
	}

	local, err := store.OpenFile(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	lo, hi := []int{0, 0, 0}, []int{8, 12, 8}
	want, err := store.ReadRegionT[float64](context.Background(), local, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, ts.URL+"/v1/fields/wave/region?lo=0,0,0&hi=8,12,8")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("region: %s: %s", resp.Status, body)
	}
	if dt := resp.Header.Get("X-Qoz-Dtype"); dt != "float64" {
		t.Fatalf("X-Qoz-Dtype %q", dt)
	}
	if len(body) != 8*len(want) {
		t.Fatalf("region body %d bytes, want %d (8 per point)", len(body), 8*len(want))
	}
	for i := range want {
		got := math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		same := got == want[i] || (math.IsNaN(got) && math.IsNaN(want[i]))
		if !same {
			t.Fatalf("raw f64 region differs at %d: %v != %v", i, got, want[i])
		}
	}

	// JSON: full float64 precision, NaN as null. Point 5 of the field is
	// the NaN; it lies inside [0,0,0)-[2,2,8).
	resp, body = get(t, ts.URL+"/v1/fields/wave/region?lo=0,0,0&hi=2,2,8&format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json region: %s: %s", resp.Status, body)
	}
	var jr struct {
		Dims  []int      `json:"dims"`
		DType string     `json:"dtype"`
		Data  []*float64 `json:"data"`
	}
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("json region: %v (%s)", err, body)
	}
	if jr.DType != "float64" {
		t.Fatalf("json region dtype %q", jr.DType)
	}
	wantJSON, _ := store.ReadRegionT[float64](context.Background(), local, []int{0, 0, 0}, []int{2, 2, 8})
	if len(jr.Data) != len(wantJSON) {
		t.Fatalf("json region %d points, want %d", len(jr.Data), len(wantJSON))
	}
	for i, p := range jr.Data {
		if math.IsNaN(wantJSON[i]) {
			if p != nil {
				t.Fatalf("json point %d: NaN served as %v, want null", i, *p)
			}
			continue
		}
		if p == nil || *p != wantJSON[i] {
			t.Fatalf("json point %d: %v != %v (float64 precision must survive)", i, p, wantJSON[i])
		}
	}
}

// TestServerConditionalGet exercises the ETag contract: region responses
// carry a strong validator, If-None-Match revalidation answers 304 with no
// body and no decode, and the validator moves with region, format, and
// store content.
func TestServerConditionalGet(t *testing.T) {
	path, _ := buildStoreFile(t, t.TempDir())
	srv, err := newServer([]mount{{name: "nyx", target: path}}, serverOptions{CacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	url := ts.URL + "/v1/fields/nyx/region?lo=0,0,0&hi=4,4,4"
	resp, _ := get(t, url)
	etag := resp.Header.Get("ETag")
	if etag == "" || strings.HasPrefix(etag, "W/") || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("region ETag %q is not a strong quoted validator", etag)
	}
	resp2, _ := get(t, url)
	if resp2.Header.Get("ETag") != etag {
		t.Fatalf("ETag unstable across identical requests: %q then %q", etag, resp2.Header.Get("ETag"))
	}
	respJSON, _ := get(t, url+"&format=json")
	if respJSON.Header.Get("ETag") == etag {
		t.Fatal("json and raw encodings share an ETag; a cache would serve the wrong body")
	}
	respOther, _ := get(t, ts.URL+"/v1/fields/nyx/region?lo=0,0,0&hi=4,4,5")
	if respOther.Header.Get("ETag") == etag {
		t.Fatal("different regions share an ETag")
	}

	decodedBefore := localOf(srv).fields["nyx"].store.Stats().BricksDecoded
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", etag)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match revalidation answered %d, want 304", resp3.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
	if resp3.Header.Get("ETag") != etag {
		t.Fatalf("304 ETag %q, want %q", resp3.Header.Get("ETag"), etag)
	}
	if after := localOf(srv).fields["nyx"].store.Stats().BricksDecoded; after != decodedBefore {
		t.Fatalf("revalidation decoded %d bricks; 304 must not decode", after-decodedBefore)
	}

	// A stale validator (or a list not containing ours) re-sends the body.
	req, _ = http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", `"stale", "also-stale"`)
	resp4, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp4.Body)
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("stale If-None-Match answered %d, want 200", resp4.StatusCode)
	}
	// If-None-Match: * matches any representation.
	req, _ = http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", "*")
	resp5, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match: * answered %d, want 304", resp5.StatusCode)
	}
	// If-None-Match uses the weak comparison: a W/-prefixed copy of our
	// validator (a transforming intermediary's doing) still revalidates.
	req, _ = http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", "W/"+etag)
	resp6, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp6.Body.Close()
	if resp6.StatusCode != http.StatusNotModified {
		t.Fatalf("weakened If-None-Match answered %d, want 304 (weak comparison)", resp6.StatusCode)
	}
}

// TestServerAuth locks the API behind a bearer token: /v1/* must refuse
// missing and wrong tokens with 401, accept the right one, and /metrics
// opens up only behind MetricsPublic.
func TestServerAuth(t *testing.T) {
	path, _ := buildStoreFile(t, t.TempDir())
	const token = "s3cr3t-token"

	for _, tc := range []struct {
		name          string
		metricsPublic bool
		metricsWant   int
	}{
		{"metrics guarded", false, http.StatusUnauthorized},
		{"metrics public", true, http.StatusOK},
	} {
		srv, err := newServer([]mount{{name: "nyx", target: path}}, serverOptions{
			Guard: guardOptions{AuthToken: token, MetricsPublic: tc.metricsPublic},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)

		do := func(path, auth string) int {
			req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
			if auth != "" {
				req.Header.Set("Authorization", auth)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusUnauthorized && resp.Header.Get("WWW-Authenticate") == "" {
				t.Errorf("%s: 401 without WWW-Authenticate", path)
			}
			return resp.StatusCode
		}
		if got := do("/v1/fields", ""); got != http.StatusUnauthorized {
			t.Errorf("%s: unauthenticated /v1/fields: %d, want 401", tc.name, got)
		}
		if got := do("/v1/fields", "Bearer wrong-token"); got != http.StatusUnauthorized {
			t.Errorf("%s: wrong token: %d, want 401", tc.name, got)
		}
		if got := do("/v1/fields/nyx/region?lo=0,0,0&hi=1,1,1", ""); got != http.StatusUnauthorized {
			t.Errorf("%s: unauthenticated region: %d, want 401", tc.name, got)
		}
		if got := do("/v1/fields", "Bearer "+token); got != http.StatusOK {
			t.Errorf("%s: correct token: %d, want 200", tc.name, got)
		}
		if got := do("/metrics", ""); got != tc.metricsWant {
			t.Errorf("%s: unauthenticated /metrics: %d, want %d", tc.name, got, tc.metricsWant)
		}
		ts.Close()
		srv.Close()
	}
}

// buildMutableStoreFile writes a mutable v3 store with `steps` committed
// time steps of shape ny×nx and returns its path.
func buildMutableStoreFile(t *testing.T, dir string, steps, ny, nx int) (string, []float32) {
	t.Helper()
	path := filepath.Join(dir, "live.qozb")
	m, err := store.CreateMutable(path, []int{0, ny, nx}, store.WriteOptions{
		Opts:  qoz.Options{ErrorBound: 1e-3},
		Brick: []int{2, 8, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	var field []float32
	for s := 0; s < steps; s++ {
		plane := make([]float32, ny*nx)
		for i := range plane {
			plane[i] = float32(s)*5 + float32(i%7)
		}
		field = append(field, plane...)
		if err := m.AppendSteps(context.Background(), plane); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return path, field
}

// TestServerLevelReadOnMutableMount: ?level= prefix reads reach mutable
// stores. A growing store (built by CreateMutable + appends, one of them
// leaving a partial last band) is mounted over range reads with the cache
// off, so the bytes each request fetches are auditable: a level-2 request
// must fetch strictly fewer payload bytes than the level-1 request for the
// same box, and return exactly its stride-2 sample.
func TestServerLevelReadOnMutableMount(t *testing.T) {
	const steps, ny, nx = 5, 32, 32
	path := filepath.Join(t.TempDir(), "live.qozb")
	m, err := store.CreateMutable(path, []int{0, ny, nx}, store.WriteOptions{
		Opts:  qoz.Options{ErrorBound: 1e-3},
		Brick: []int{4, 16, 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		plane := make([]float32, ny*nx)
		for i := range plane {
			plane[i] = float32(s) + float32(math.Sin(float64(i)/9)+math.Cos(float64(i%nx)/5))
		}
		if err := m.AppendSteps(context.Background(), plane); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	content, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("ETag", `"v1"`)
		http.ServeContent(w, req, "live.qozb", time.Unix(1700000000, 0), bytes.NewReader(content))
	}))
	defer origin.Close()
	srv, err := newServer([]mount{{name: "live", target: origin.URL}}, serverOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, body := get(t, ts.URL+"/v1/fields/live")
	var info fieldInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Mutable || info.Generation != steps+1 {
		t.Fatalf("mounted manifest: %+v, want a mutable store at generation %d", info, steps+1)
	}

	st := localOf(srv).fields["live"].store
	fetch := func(level int) ([]byte, int64) {
		t.Helper()
		before := st.Stats().RemoteBytes
		resp, body := get(t, fmt.Sprintf("%s/v1/fields/live/region?lo=0,0,0&hi=%d,%d,%d&level=%d", ts.URL, steps, ny, nx, level))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("level %d: %s: %s", level, resp.Status, body)
		}
		return body, st.Stats().RemoteBytes - before
	}
	full, fullBytes := fetch(1)
	coarse, coarseBytes := fetch(2)
	if coarseBytes <= 0 || coarseBytes >= fullBytes {
		t.Fatalf("level-2 request fetched %d payload bytes, level-1 %d — the prefix read saved nothing", coarseBytes, fullBytes)
	}
	k := 0
	for z := 0; z < steps; z += 2 {
		for y := 0; y < ny; y += 2 {
			for x := 0; x < nx; x += 2 {
				i := (z*ny+y)*nx + x
				if !bytes.Equal(coarse[4*k:4*k+4], full[4*i:4*i+4]) {
					t.Fatalf("level-2 point (%d,%d,%d) differs from the level-1 response", z, y, x)
				}
				k++
			}
		}
	}
	if 4*k != len(coarse) {
		t.Fatalf("level-2 body holds %d bytes, the stride-2 sample %d", len(coarse), 4*k)
	}
}

// TestServerGzip: JSON responses negotiate gzip via Accept-Encoding; raw
// little-endian region bytes never do; the gzip variant carries its own
// ETag.
func TestServerGzip(t *testing.T) {
	path, _ := buildStoreFile(t, t.TempDir())
	srv, err := newServer([]mount{{name: "nyx", target: path}}, serverOptions{CacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	getEnc := func(url, enc string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if enc != "" {
			req.Header.Set("Accept-Encoding", enc)
		}
		// A plain transport without DisableCompression would transparently
		// gunzip and hide the Content-Encoding header.
		tr := &http.Transport{DisableCompression: true}
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	regionURL := ts.URL + "/v1/fields/nyx/region?lo=0,0,0&hi=2,2,2&format=json"
	plain, plainBody := getEnc(regionURL, "")
	if plain.Header.Get("Content-Encoding") != "" {
		t.Fatalf("identity request answered with Content-Encoding %q", plain.Header.Get("Content-Encoding"))
	}
	gz, gzBody := getEnc(regionURL, "gzip")
	if gz.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("gzip request answered with Content-Encoding %q", gz.Header.Get("Content-Encoding"))
	}
	if !strings.Contains(gz.Header.Get("Vary"), "Accept-Encoding") {
		t.Fatalf("gzip response missing Vary: Accept-Encoding (got %q)", gz.Header.Get("Vary"))
	}
	if gz.Header.Get("ETag") == plain.Header.Get("ETag") {
		t.Fatal("gzip and identity JSON variants share an ETag")
	}
	zr, err := gzip.NewReader(bytes.NewReader(gzBody))
	if err != nil {
		t.Fatal(err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unzipped, plainBody) {
		t.Fatal("gzip body does not decompress to the identity body")
	}
	// q=0 explicitly refuses gzip.
	refuse, _ := getEnc(regionURL, "gzip;q=0")
	if refuse.Header.Get("Content-Encoding") != "" {
		t.Fatal("Accept-Encoding: gzip;q=0 was answered with gzip")
	}

	// Raw LE samples are never content-coded.
	rawURL := ts.URL + "/v1/fields/nyx/region?lo=0,0,0&hi=2,2,2"
	raw, rawBody := getEnc(rawURL, "gzip")
	if raw.Header.Get("Content-Encoding") != "" {
		t.Fatalf("raw region answered with Content-Encoding %q", raw.Header.Get("Content-Encoding"))
	}
	if len(rawBody) != 2*2*2*4 {
		t.Fatalf("raw region body %d bytes, want 32", len(rawBody))
	}

	// The fields listing negotiates too.
	fl, flBody := getEnc(ts.URL+"/v1/fields", "gzip")
	if fl.Header.Get("Content-Encoding") != "gzip" {
		t.Fatal("/v1/fields did not negotiate gzip")
	}
	zr2, err := gzip.NewReader(bytes.NewReader(flBody))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := io.ReadAll(zr2)
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Fields []fieldInfo `json:"fields"`
	}
	if err := json.Unmarshal(dec, &list); err != nil {
		t.Fatalf("gunzipped /v1/fields is not JSON: %v", err)
	}
}

// TestServerGenerationPickup: qozd serves a mutable store, the simulation
// appends a step, and a poll pass picks the new generation up — new dims,
// new data, moved ETag (a stale If-None-Match gets the full response, not
// a 304).
func TestServerGenerationPickup(t *testing.T) {
	dir := t.TempDir()
	const ny, nx = 16, 16
	path, _ := buildMutableStoreFile(t, dir, 2, ny, nx)
	srv, err := newServer([]mount{{name: "live", target: path}}, serverOptions{CacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := get(t, ts.URL+"/v1/fields/live")
	var info fieldInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Mutable || info.Generation != 3 || info.Dims[0] != 2 {
		t.Fatalf("mounted mutable manifest: %+v", info)
	}

	regionURL := ts.URL + "/v1/fields/live/region?lo=0,0,0&hi=2,4,4"
	resp, _ = get(t, regionURL)
	oldTag := resp.Header.Get("ETag")
	if oldTag == "" {
		t.Fatal("region response missing ETag")
	}

	// The simulation commits another step out of process.
	m, err := store.OpenMutable(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plane := make([]float32, ny*nx)
	for i := range plane {
		plane[i] = 777
	}
	if err := m.AppendSteps(context.Background(), plane); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// Until a poll pass runs, qozd serves the old generation.
	resp, _ = get(t, regionURL)
	if got := resp.Header.Get("ETag"); got != oldTag {
		t.Fatalf("ETag moved before refresh: %q -> %q", oldTag, got)
	}
	srv.refresh(context.Background())

	resp, body = get(t, ts.URL+"/v1/fields/live")
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Generation != 4 || info.Dims[0] != 3 {
		t.Fatalf("after refresh: %+v", info)
	}

	// A client revalidating with the stale ETag must get 200 + data.
	req, _ := http.NewRequest(http.MethodGet, regionURL, nil)
	req.Header.Set("If-None-Match", oldTag)
	cond, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	condBody, _ := io.ReadAll(cond.Body)
	cond.Body.Close()
	if cond.StatusCode != http.StatusOK {
		t.Fatalf("stale If-None-Match answered %s, want 200 with fresh data", cond.Status)
	}
	if len(condBody) != 2*4*4*4 {
		t.Fatalf("stale revalidation body %d bytes, want %d", len(condBody), 2*4*4*4)
	}
	newTag := cond.Header.Get("ETag")
	if newTag == "" || newTag == oldTag {
		t.Fatalf("refreshed region ETag %q did not move from %q", newTag, oldTag)
	}
	// And the fresh validator revalidates to 304.
	req2, _ := http.NewRequest(http.MethodGet, regionURL, nil)
	req2.Header.Set("If-None-Match", newTag)
	cond2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, cond2.Body)
	cond2.Body.Close()
	if cond2.StatusCode != http.StatusNotModified {
		t.Fatalf("fresh If-None-Match answered %s, want 304", cond2.Status)
	}

	// The appended step's data is served.
	resp, body = get(t, ts.URL+"/v1/fields/live/region?lo=2,0,0&hi=3,1,4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("appended-step region: %s", resp.Status)
	}
	for i := 0; i < 4; i++ {
		v := math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
		if math.Abs(float64(v)-777) > 1e-3+1e-6 {
			t.Fatalf("appended step point %d = %v, want ~777", i, v)
		}
	}
}
