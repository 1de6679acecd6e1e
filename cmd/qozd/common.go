// The front door of the qozd handler: tenant credentials, per-tenant rate
// limiting, request-id correlation, and the JSON error shape. It sits
// before the backend, so a client cannot tell — and need not care — which
// role answered 401 or 429.
package main

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"qoz/cluster"
)

// requestIDHeader correlates one logical request across gateway, shards,
// and logs: the gateway (or any first hop) generates it, every hop echoes
// it in the response headers, and error bodies carry it, so a multi-node
// failure is greppable fleet-wide by one id.
const requestIDHeader = "X-Qoz-Request-Id"

// ensureRequestID returns the request's correlation id, generating one
// when the client didn't send one, and echoes it on the response. The id
// is also written back into the request headers so downstream handlers
// (and the gateway's shard fan-out) read one consistent value.
func ensureRequestID(w http.ResponseWriter, r *http.Request) string {
	id := sanitizeRequestID(r.Header.Get(requestIDHeader))
	if id == "" {
		var b [8]byte
		rand.Read(b[:])
		id = hex.EncodeToString(b[:])
	}
	r.Header.Set(requestIDHeader, id)
	w.Header().Set(requestIDHeader, id)
	return id
}

// sanitizeRequestID bounds a client-supplied id and strips anything that
// could smuggle header or log structure; a hostile id is dropped (a fresh
// one is generated) rather than propagated fleet-wide.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for _, c := range id {
		ok := c == '-' || c == '_' || c == '.' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return ""
		}
	}
	return id
}

// jsonError writes the uniform error body: the message plus the request's
// correlation id, so a client-side error report alone identifies the
// server-side log lines.
func jsonError(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{
		"error":     fmt.Sprintf(format, args...),
		"requestId": r.Header.Get(requestIDHeader),
	})
}

// tenantCred is one tenant's credential and (optional) bucket override.
type tenantCred struct {
	name  string
	token string
	rate  cluster.RateConfig // zero RPS = use the guard default
}

// tenantFlags collects repeated -tenant name=token[:rps[:burst]] flags.
type tenantFlags []tenantCred

func (t *tenantFlags) String() string {
	names := make([]string, len(*t))
	for i, c := range *t {
		names[i] = c.name
	}
	return strings.Join(names, ",")
}

func (t *tenantFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" || rest == "" {
		return fmt.Errorf("want name=token[:rps[:burst]], got %q", v)
	}
	c := tenantCred{name: name}
	parts := strings.Split(rest, ":")
	c.token = parts[0]
	if c.token == "" {
		return fmt.Errorf("tenant %q: empty token", name)
	}
	if len(parts) > 3 {
		return fmt.Errorf("tenant %q: want token[:rps[:burst]]", name)
	}
	if len(parts) >= 2 {
		rps, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || rps < 0 {
			return fmt.Errorf("tenant %q: invalid rps %q", name, parts[1])
		}
		// A tenant declared with an explicit rate of 0 is exempt (RPS -1
		// sentinels "unlimited" to the limiter; 0 would mean "default").
		if rps == 0 {
			rps = -1
		}
		c.rate.RPS = rps
	}
	if len(parts) == 3 {
		burst, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || burst <= 0 {
			return fmt.Errorf("tenant %q: invalid burst %q", name, parts[2])
		}
		c.rate.Burst = burst
	}
	*t = append(*t, c)
	return nil
}

// stringsFlag collects a repeatable plain-string flag (-shard).
type stringsFlag []string

func (s *stringsFlag) String() string { return strings.Join(*s, ",") }
func (s *stringsFlag) Set(v string) error {
	v = strings.TrimRight(v, "/")
	if v == "" {
		return fmt.Errorf("empty value")
	}
	*s = append(*s, v)
	return nil
}

// guardOptions configures a guard.
type guardOptions struct {
	// AuthToken is the legacy single credential; it becomes tenant
	// "default". Empty plus no Tenants disables auth.
	AuthToken string
	// Tenants are named credentials ( -tenant ), checked alongside
	// AuthToken.
	Tenants []tenantCred
	// MetricsPublic keeps /metrics credential-free when auth is on.
	MetricsPublic bool
	// RateRPS/RateBurst shape every tenant's token bucket; RateRPS <= 0
	// disables rate limiting (tenant overrides still apply).
	RateRPS, RateBurst float64
}

// guard enforces bearer auth (mapping tokens to tenant names) and
// per-tenant token-bucket rate limits in front of the mux.
type guard struct {
	tenants       []tenantCred // empty = auth disabled
	metricsPublic bool
	limiter       *cluster.Limiter

	mu      sync.Mutex
	limited map[string]int64 // tenant → requests refused with 429
}

func newGuard(opts guardOptions) (*guard, error) {
	g := &guard{metricsPublic: opts.MetricsPublic, limited: map[string]int64{}}
	if opts.AuthToken != "" {
		g.tenants = append(g.tenants, tenantCred{name: "default", token: opts.AuthToken})
	}
	seen := map[string]bool{}
	for _, t := range opts.Tenants {
		if t.name == "default" && opts.AuthToken != "" || seen[t.name] {
			return nil, fmt.Errorf("duplicate tenant %q", t.name)
		}
		seen[t.name] = true
		g.tenants = append(g.tenants, t)
	}
	g.limiter = cluster.NewLimiter(opts.RateRPS, opts.RateBurst)
	for _, t := range g.tenants {
		if t.rate.RPS != 0 {
			g.limiter.SetTenant(t.name, t.rate)
		}
	}
	return g, nil
}

// tenant resolves the request's bearer token to a tenant name. With auth
// disabled every request is tenant "anon". Comparison is constant-time
// per credential so response timing cannot leak token bytes.
func (g *guard) tenant(r *http.Request) (string, bool) {
	if len(g.tenants) == 0 {
		return "anon", true
	}
	token, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok {
		return "", false
	}
	// Every candidate is compared (no early exit), so timing reveals only
	// the tenant count, which is not a secret.
	match := ""
	for _, t := range g.tenants {
		if subtle.ConstantTimeCompare([]byte(token), []byte(t.token)) == 1 {
			match = t.name
		}
	}
	return match, match != ""
}

// admit runs the full front door for one request: auth (except /metrics
// behind MetricsPublic) and the tenant's token bucket. It writes the 401
// or 429 itself and reports whether the request may proceed, along with
// the tenant it resolved to.
func (g *guard) admit(w http.ResponseWriter, r *http.Request) (tenant string, ok bool) {
	if g.metricsPublic && r.URL.Path == "/metrics" {
		return "anon", true
	}
	tenant, ok = g.tenant(r)
	if !ok {
		w.Header().Set("WWW-Authenticate", `Bearer realm="qozd"`)
		jsonError(w, r, http.StatusUnauthorized, "missing or invalid bearer token")
		return "", false
	}
	// /metrics is authenticated but never rate-limited: a scraper must not
	// be able to starve itself (or tenants sharing its token) of the very
	// counters that would explain the 429s.
	if r.URL.Path == "/metrics" {
		return tenant, true
	}
	if allowed, retryAfter := g.limiter.Allow(tenant, time.Now()); !allowed {
		g.mu.Lock()
		g.limited[tenant]++
		g.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter.Seconds()))))
		jsonError(w, r, http.StatusTooManyRequests, "tenant %q over its request rate; retry after %v", tenant, retryAfter.Round(time.Millisecond))
		return tenant, false
	}
	return tenant, true
}

// limitedByTenant snapshots the per-tenant 429 counters for /metrics.
func (g *guard) limitedByTenant() map[string]int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return maps.Clone(g.limited)
}
