package main

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"math/big"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testPKI is an in-process certificate authority with one server and one
// client leaf, written as PEM files so the tests exercise exactly the
// file-loading paths the -shard-ca/-shard-cert/-shard-key and
// -tls-cert/-tls-key/-client-ca flags use.
type testPKI struct {
	caPEM                     string // CA certificate (both trust anchors)
	serverCert, serverKey     string
	clientCert, clientKey     string
	strangerCert, strangerKey string // leaf from an unrelated CA
}

// newTestPKI mints the whole hierarchy into dir.
func newTestPKI(t *testing.T, dir string) testPKI {
	t.Helper()
	caKey, caDER := selfSignedCA(t, "qozd-test-ca")
	ca, err := x509.ParseCertificate(caDER)
	if err != nil {
		t.Fatal(err)
	}
	srvCert, srvKey := issueLeaf(t, ca, caKey, x509.ExtKeyUsageServerAuth)
	cliCert, cliKey := issueLeaf(t, ca, caKey, x509.ExtKeyUsageClientAuth)

	// An unrelated CA signs the stranger: structurally valid, chains to
	// nothing the fleet trusts.
	strangerCAKey, strangerCADER := selfSignedCA(t, "unrelated-ca")
	strangerCA, err := x509.ParseCertificate(strangerCADER)
	if err != nil {
		t.Fatal(err)
	}
	strCert, strKey := issueLeaf(t, strangerCA, strangerCAKey, x509.ExtKeyUsageClientAuth)

	p := testPKI{
		caPEM:        writePEM(t, dir, "ca.pem", "CERTIFICATE", caDER),
		serverCert:   writePEM(t, dir, "server.pem", "CERTIFICATE", srvCert),
		clientCert:   writePEM(t, dir, "client.pem", "CERTIFICATE", cliCert),
		strangerCert: writePEM(t, dir, "stranger.pem", "CERTIFICATE", strCert),
	}
	p.serverKey = writeKeyPEM(t, dir, "server.key", srvKey)
	p.clientKey = writeKeyPEM(t, dir, "client.key", cliKey)
	p.strangerKey = writeKeyPEM(t, dir, "stranger.key", strKey)
	return p
}

func selfSignedCA(t *testing.T, cn string) (*ecdsa.PrivateKey, []byte) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: cn},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	return key, der
}

func issueLeaf(t *testing.T, ca *x509.Certificate, caKey *ecdsa.PrivateKey,
	usage x509.ExtKeyUsage) ([]byte, *ecdsa.PrivateKey) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(time.Now().UnixNano()),
		Subject:      pkix.Name{CommonName: "qozd-test-leaf"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{usage},
		IPAddresses:  []net.IP{net.IPv4(127, 0, 0, 1), net.IPv6loopback},
		DNSNames:     []string{"localhost"},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca, &key.PublicKey, caKey)
	if err != nil {
		t.Fatal(err)
	}
	return der, key
}

func writePEM(t *testing.T, dir, name, blockType string, der []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, pem.EncodeToMemory(&pem.Block{Type: blockType, Bytes: der}), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeKeyPEM(t *testing.T, dir, name string, key *ecdsa.PrivateKey) string {
	t.Helper()
	der, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	return writePEM(t, dir, name, "EC PRIVATE KEY", der)
}

// startTLSShard serves one qozd shard over HTTPS with the given TLS
// configuration (client verification included), mirroring what -tls-cert/
// -tls-key/-client-ca wire up on a real listener.
func startTLSShard(t *testing.T, mounts []mount, cfg *tls.Config) *httptest.Server {
	t.Helper()
	srv, err := newServer(mounts, serverOptions{CacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewUnstartedServer(srv)
	ts.TLS = cfg.Clone()
	ts.StartTLS()
	t.Cleanup(ts.Close)
	return ts
}

// TestClusterMTLS is the mTLS handshake e2e: shards serve HTTPS and
// require client certificates chaining to the fleet CA; a gateway holding
// -shard-ca/-shard-cert/-shard-key reads through them byte-identically,
// while a bare client, a gateway without a client certificate, and a
// client presenting a certificate from an unrelated CA are all refused at
// the handshake — before any request line is parsed.
func TestClusterMTLS(t *testing.T) {
	dir := t.TempDir()
	pki := newTestPKI(t, dir)
	p32, _ := buildStoreFile(t, dir)
	mounts := []mount{{name: "nyx", target: p32}}

	srvCfg, err := serverTLSConfig(pki.serverCert, pki.serverKey, pki.caPEM)
	if err != nil {
		t.Fatalf("serverTLSConfig: %v", err)
	}
	if srvCfg.ClientAuth != tls.RequireAndVerifyClientCert {
		t.Fatalf("client-ca set but ClientAuth is %v", srvCfg.ClientAuth)
	}
	shard1 := startTLSShard(t, mounts, srvCfg)
	shard2 := startTLSShard(t, mounts, srvCfg)
	shardList := []string{shard1.URL, shard2.URL}

	// The full credential: fleet CA as root, client pair presented.
	mtlsHTTP, err := shardTLSClient(pki.caPEM, pki.clientCert, pki.clientKey)
	if err != nil {
		t.Fatalf("shardTLSClient: %v", err)
	}
	gw, gts := startGateway(t, gatewayOptions{Shards: shardList, HTTP: mtlsHTTP})

	const region = "/v1/fields/nyx/region?lo=1,2,3&hi=31,30,29"
	_, want := getWith(t, mtlsHTTP, shard1.URL+region)
	resp, got := get(t, gts.URL+region)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway read over mTLS: %s: %s", resp.Status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("gateway body over mTLS differs from direct shard read")
	}
	fleetOf(gw).trafficMu.Lock()
	served := 0
	for _, tr := range fleetOf(gw).traffic {
		if tr.Reads > 0 {
			served++
		}
	}
	fleetOf(gw).trafficMu.Unlock()
	if served != 2 {
		t.Errorf("%d shards served over mTLS, want 2", served)
	}

	// No client certificate: the handshake itself must fail — the shard
	// never sees an HTTP request to answer.
	bareHTTP, err := shardTLSClient(pki.caPEM, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bareHTTP.Get(shard1.URL + "/v1/fields"); err == nil {
		t.Error("certificate-less client was admitted to an mTLS shard")
	}
	// A certificate from an unrelated CA is refused just the same.
	strangerHTTP, err := shardTLSClient(pki.caPEM, pki.strangerCert, pki.strangerKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strangerHTTP.Get(shard1.URL + "/v1/fields"); err == nil {
		t.Error("client with an untrusted certificate was admitted to an mTLS shard")
	}
	// A gateway built without the client pair cannot even learn the
	// catalog.
	if _, err := newGateway(gatewayOptions{Shards: shardList, HTTP: bareHTTP}); err == nil {
		t.Error("gateway without a client certificate built a catalog from an mTLS fleet")
	}
}

// getWith is get over a specific client (the mTLS one).
func getWith(t *testing.T, hc *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := hc.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp, buf.Bytes()
}

// TestServeTLSFlagValidation pins the flag contract: -client-ca without a
// server certificate is a configuration error, not silent plain HTTP.
func TestServeTLSFlagValidation(t *testing.T) {
	hs := &http.Server{Addr: "127.0.0.1:0"}
	if err := serve(hs, "", "", "some-ca.pem"); err == nil {
		t.Fatal("serve accepted -client-ca without -tls-cert")
	}
	if err := serve(hs, "/nonexistent.pem", "/nonexistent.key", ""); err == nil {
		t.Fatal("serve accepted an unreadable certificate pair")
	}
}
