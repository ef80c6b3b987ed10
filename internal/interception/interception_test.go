// End-to-end scenario suite for the real-TLS intercepting data plane: a
// live CA → distribution point → RA deployment on one side, a real
// crypto/tls upstream on the other, and the interceptor bumping genuine
// handshakes in between. External test package: internal/ra imports
// internal/interception, so these tests must sit outside the package to
// use the RA's NewInterceptor wiring.
package interception_test

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"io"
	"math/big"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ritm/internal/ca"
	"ritm/internal/cdn"
	"ritm/internal/cert"
	"ritm/internal/interception"
	"ritm/internal/ra"
	"ritm/internal/serial"
)

const (
	testCAID = "CA1"
	testHost = "example.com"
)

// upstreamPKI is a real-x509 issuing CA whose subject CN doubles as the
// RITM CA identifier, so leaves it issues map onto the dictionary.
type upstreamPKI struct {
	caCert *x509.Certificate
	caKey  *ecdsa.PrivateKey
	pool   *x509.CertPool
}

func newUpstreamPKI(t *testing.T, caID string) *upstreamPKI {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: caID},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(24 * time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	caCert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(caCert)
	return &upstreamPKI{caCert: caCert, caKey: key, pool: pool}
}

// issue mints a server leaf for host with the given serial; sn is the
// leaf's dictionary identity (issuer CN + minimal big-endian serial).
func (p *upstreamPKI) issue(t *testing.T, host string, rawSN int64) (tls.Certificate, serial.Number) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(rawSN),
		Subject:      pkix.Name{CommonName: host},
		DNSNames:     []string{host},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(12 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, p.caCert, &key.PublicKey, p.caKey)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := serial.New(big.NewInt(rawSN).Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}, sn
}

// sessionLog records every Session the interceptor emits.
type sessionLog struct {
	mu  sync.Mutex
	all []interception.Session
}

func (l *sessionLog) add(s *interception.Session) {
	l.mu.Lock()
	l.all = append(l.all, *s)
	l.mu.Unlock()
}

// wait polls until a recorded session satisfies pred.
func (l *sessionLog) wait(t *testing.T, what string, pred func(interception.Session) bool) interception.Session {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		for _, s := range l.all {
			if pred(s) {
				l.mu.Unlock()
				return s
			}
		}
		l.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("no session matching %q within deadline", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// env is a complete miniature deployment: RITM CA → distribution point →
// edge → RA on the control plane, a real crypto/tls echo server upstream,
// and the RA's interceptor between the test's clients and that upstream.
type env struct {
	authority    *ca.CA
	agent        *ra.RA
	pki          *upstreamPKI
	leafSN       serial.Number
	leafDER      []byte
	upstreamAddr string
	minter       *interception.Minter
	mintPool     *x509.CertPool
	it           *interception.Interceptor
	sessions     *sessionLog
}

func newEnv(t *testing.T, mutate func(*interception.Config)) *env {
	t.Helper()
	dp := cdn.NewDistributionPoint(nil)
	authority, err := ca.New(ca.Config{ID: testCAID, Delta: time.Hour, Publisher: dp})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.RegisterCA(testCAID, authority.PublicKey()); err != nil {
		t.Fatal(err)
	}
	agent, err := ra.New(ra.Config{
		Roots:  []*cert.Certificate{authority.RootCertificate()},
		Origin: cdn.NewEdgeServer(dp, 0, nil),
		Delta:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := authority.PublishRoot(); err != nil {
		t.Fatal(err)
	}
	if err := authority.PublishRefresh(); err != nil {
		t.Fatal(err)
	}
	if err := agent.SyncOnce(); err != nil {
		t.Fatal(err)
	}

	pki := newUpstreamPKI(t, testCAID)
	leafCert, leafSN := pki.issue(t, testHost, 0x2345)
	upstreamAddr := startTLSEcho(t, leafCert)

	mintRoot, err := interception.NewMintingRoot("RITM Test Bump Root", interception.KeyECDSA)
	if err != nil {
		t.Fatal(err)
	}
	minter := interception.NewMinter(mintRoot, 0)
	mintPool := x509.NewCertPool()
	mintPool.AddCert(mintRoot.Certificate())

	sessions := &sessionLog{}
	cfg := interception.Config{
		Minter:    minter,
		Target:    upstreamAddr,
		OnSession: sessions.add,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	it, err := agent.NewInterceptor("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { it.Close() })

	return &env{
		authority:    authority,
		agent:        agent,
		pki:          pki,
		leafSN:       leafSN,
		leafDER:      leafCert.Certificate[0],
		upstreamAddr: upstreamAddr,
		minter:       minter,
		mintPool:     mintPool,
		it:           it,
		sessions:     sessions,
	}
}

// startTLSEcho runs a real crypto/tls echo server presenting leaf.
func startTLSEcho(t *testing.T, leaf tls.Certificate) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	cfg := &tls.Config{Certificates: []tls.Certificate{leaf}}
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				conn := tls.Server(raw, cfg)
				defer conn.Close()
				io.Copy(conn, conn) //nolint:errcheck // echo until either side closes
			}()
		}
	}()
	return ln.Addr().String()
}

// startRawUpstream runs handler on every accepted raw connection.
func startRawUpstream(t *testing.T, handler func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go handler(conn)
		}
	}()
	return ln.Addr().String()
}

// dialBumped completes a client handshake through the interceptor,
// trusting the minting root (the bump path).
func (e *env) dialBumped(t *testing.T) (*tls.Conn, error) {
	t.Helper()
	conn, err := tls.Dial("tcp", e.it.Addr().String(), &tls.Config{
		ServerName: testHost,
		RootCAs:    e.mintPool,
	})
	return conn, err
}

// echoRoundTrip writes msg and expects it echoed back.
func echoRoundTrip(t *testing.T, conn io.ReadWriter, msg string) {
	t.Helper()
	if _, err := conn.Write([]byte(msg)); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("read echo: %v", err)
	}
	if string(buf) != msg {
		t.Fatalf("echo mismatch: got %q want %q", buf, msg)
	}
}

// TestInterceptE2ERevocationFlip is the acceptance-criteria scenario: a
// real crypto/tls handshake is bumped against a live RA store, an injected
// revocation leaves the established session untouched, and the next
// handshake is refused with a certificate_revoked alert.
func TestInterceptE2ERevocationFlip(t *testing.T) {
	e := newEnv(t, nil)

	conn, err := e.dialBumped(t)
	if err != nil {
		t.Fatalf("bumped handshake: %v", err)
	}
	defer conn.Close()

	// The client must see a leaf minted under the bump root, not the
	// upstream's genuine certificate.
	state := conn.ConnectionState()
	if len(state.PeerCertificates) == 0 {
		t.Fatal("no peer certificates")
	}
	if got := state.PeerCertificates[0].Issuer.CommonName; got != "RITM Test Bump Root" {
		t.Fatalf("peer leaf issuer = %q, want the bump root", got)
	}
	if bytes.Equal(state.PeerCertificates[0].Raw, e.leafDER) {
		t.Fatal("client saw the upstream's genuine leaf on the bump path")
	}
	echoRoundTrip(t, conn, "through the bump")

	sess := e.sessions.wait(t, "bumped session", func(s interception.Session) bool {
		return !s.Bypassed && !s.NonTLS && !s.Revoked && s.Host == testHost
	})
	if sess.CA != testCAID {
		t.Fatalf("session CA = %q, want %q", sess.CA, testCAID)
	}
	if !sess.Serial.Equal(e.leafSN) {
		t.Fatalf("session serial = %v, want %v", sess.Serial, e.leafSN)
	}
	if sess.StatusErr != nil {
		t.Fatalf("status lookup failed: %v", sess.StatusErr)
	}

	// Revoke the upstream leaf mid-session and propagate through the
	// dissemination network to the RA replica.
	if _, err := e.authority.Revoke(e.leafSN); err != nil {
		t.Fatal(err)
	}
	if err := e.authority.PublishRefresh(); err != nil {
		t.Fatal(err)
	}
	if err := e.agent.SyncOnce(); err != nil {
		t.Fatal(err)
	}

	// The established session keeps flowing: revocation gates handshakes,
	// not spliced bytes.
	echoRoundTrip(t, conn, "still up after revocation")

	// The next handshake is refused.
	refused, err := e.dialBumped(t)
	if err == nil {
		refused.Close()
		t.Fatal("handshake succeeded for a revoked upstream leaf")
	}
	if !strings.Contains(err.Error(), "revoked") {
		t.Fatalf("refusal error = %v, want a revoked-certificate alert", err)
	}
	rs := e.sessions.wait(t, "refused session", func(s interception.Session) bool { return s.Revoked })
	if rs.CA != testCAID || !rs.Serial.Equal(e.leafSN) {
		t.Fatalf("refused session identity = (%q, %v), want (%q, %v)", rs.CA, rs.Serial, testCAID, e.leafSN)
	}
	if got := e.it.Stats().Refused; got < 1 {
		t.Fatalf("Stats().Refused = %d, want >= 1", got)
	}
	if got := e.agent.Stats().ConnectionsRefused; got < 1 {
		t.Fatalf("RA Stats().ConnectionsRefused = %d, want >= 1", got)
	}
}

// TestBypassGenuineCertificate: a bypass-list hit must splice verbatim —
// the client completes a handshake with the genuine upstream, sees the
// genuine leaf, and the bump root never appears.
func TestBypassGenuineCertificate(t *testing.T) {
	e := newEnv(t, func(cfg *interception.Config) {
		cfg.Bypass = interception.NewBypassList(testHost)
	})

	conn, err := tls.Dial("tcp", e.it.Addr().String(), &tls.Config{
		ServerName: testHost,
		RootCAs:    e.pki.pool, // trusts the genuine upstream CA, not the bump root
	})
	if err != nil {
		t.Fatalf("bypassed handshake: %v", err)
	}
	defer conn.Close()
	if !bytes.Equal(conn.ConnectionState().PeerCertificates[0].Raw, e.leafDER) {
		t.Fatal("bypassed client did not see the genuine upstream leaf")
	}
	echoRoundTrip(t, conn, "verbatim")

	sess := e.sessions.wait(t, "bypassed session", func(s interception.Session) bool { return s.Bypassed })
	if sess.Host != testHost {
		t.Fatalf("bypassed session host = %q, want %q", sess.Host, testHost)
	}
	if got := e.it.Stats().Bumped; got != 0 {
		t.Fatalf("Stats().Bumped = %d on a bypass-only run", got)
	}
}

// captureClientHello records the exact first-flight ClientHello bytes a
// real crypto/tls client would send for host.
func captureClientHello(t *testing.T, host string) []byte {
	t.Helper()
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go tls.Client(c1, &tls.Config{ServerName: host, InsecureSkipVerify: true}).Handshake() //nolint:errcheck // aborted by pipe close
	hdr := make([]byte, 5)
	if _, err := io.ReadFull(c2, hdr); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, int(hdr[3])<<8|int(hdr[4]))
	if _, err := io.ReadFull(c2, payload); err != nil {
		t.Fatal(err)
	}
	return append(hdr, payload...)
}

// TestBypassVerbatimTranscript pins the strongest bypass property: the
// upstream receives byte-for-byte what the client sent (peeked ClientHello
// included), and the client receives byte-for-byte what the upstream
// wrote.
func TestBypassVerbatimTranscript(t *testing.T) {
	var (
		mu  sync.Mutex
		got []byte
	)
	reply := []byte("verbatim-reply-bytes")
	recorder := startRawUpstream(t, func(c net.Conn) {
		defer c.Close()
		b, _ := io.ReadAll(c)
		mu.Lock()
		got = b
		mu.Unlock()
		c.Write(reply) //nolint:errcheck // test upstream
	})
	e := newEnv(t, func(cfg *interception.Config) {
		cfg.Bypass = interception.NewBypassList(testHost)
		cfg.Target = recorder
	})

	sent := captureClientHello(t, testHost)
	sent = append(sent, []byte("pipelined-after-hello")...)

	conn, err := net.Dial("tcp", e.it.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(sent); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite() //nolint:errcheck // signal EOF to the splice
	back, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, reply) {
		t.Fatalf("client received %q, want %q", back, reply)
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(got, sent) {
		t.Fatalf("upstream transcript differs: got %d bytes, sent %d bytes", len(got), len(sent))
	}
}

// TestNonTLSPassThrough: traffic that does not look like TLS is spliced
// untouched in both directions.
func TestNonTLSPassThrough(t *testing.T) {
	echo := startRawUpstream(t, func(c net.Conn) {
		defer c.Close()
		io.Copy(c, c) //nolint:errcheck // echo until EOF
	})
	e := newEnv(t, func(cfg *interception.Config) { cfg.Target = echo })

	conn, err := net.Dial("tcp", e.it.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("GET / HTTP/1.0\r\n\r\n")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite() //nolint:errcheck // signal EOF to the splice
	back, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, msg) {
		t.Fatalf("pass-through echo = %q, want %q", back, msg)
	}
	e.sessions.wait(t, "non-TLS session", func(s interception.Session) bool { return s.NonTLS })
	if got := e.it.Stats().NonTLS; got != 1 {
		t.Fatalf("Stats().NonTLS = %d, want 1", got)
	}
}

// TestNonTLSServerFirstSpliced: a server that speaks first (an SSH banner)
// reaches a client that waits for it. When the handshake deadline expires
// with no client byte, the connection is spliced verbatim and counted as
// non-TLS instead of being dropped without a session.
func TestNonTLSServerFirstSpliced(t *testing.T) {
	const banner = "SSH-2.0-OpenSSH_9.6\r\n"
	upstream := startRawUpstream(t, func(c net.Conn) {
		defer c.Close()
		if _, err := c.Write([]byte(banner)); err != nil {
			return
		}
		io.Copy(c, c) //nolint:errcheck // echo until EOF
	})
	e := newEnv(t, func(cfg *interception.Config) {
		cfg.Target = upstream
		cfg.HandshakeTimeout = 100 * time.Millisecond
	})

	conn, err := net.Dial("tcp", e.it.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // test bound
	got := make([]byte, len(banner))
	if _, err := io.ReadFull(conn, got); err != nil || string(got) != banner {
		t.Fatalf("banner through the interceptor: %q, %v", got, err)
	}
	echoRoundTrip(t, conn, "hello\n")
	e.sessions.wait(t, "non-TLS session", func(s interception.Session) bool { return s.NonTLS })
	if got := e.it.Stats().NonTLS; got != 1 {
		t.Fatalf("Stats().NonTLS = %d, want 1", got)
	}
}

// TestSessionResumption: once the upstream leg resumes (abbreviated
// handshake, no Certificate message on the wire), the bump decision still
// carries the correct dictionary identity — served from the interceptor's
// identity cache.
func TestSessionResumption(t *testing.T) {
	e := newEnv(t, nil)

	deadline := time.Now().Add(10 * time.Second)
	for attempt := 0; ; attempt++ {
		conn, err := e.dialBumped(t)
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		// Exchange data so the splice pumps the upstream leg's
		// post-handshake NewSessionTicket messages into the session cache.
		echoRoundTrip(t, conn, "prime the ticket cache")
		conn.Close()

		var resumed *interception.Session
		e.sessions.mu.Lock()
		for i := range e.sessions.all {
			if e.sessions.all[i].Resumed {
				resumed = &e.sessions.all[i]
			}
		}
		e.sessions.mu.Unlock()
		if resumed != nil {
			if !resumed.IdentityFromCache {
				t.Fatal("resumed bump did not use the identity cache")
			}
			if resumed.CA != testCAID || !resumed.Serial.Equal(e.leafSN) {
				t.Fatalf("resumed identity = (%q, %v), want (%q, %v)", resumed.CA, resumed.Serial, testCAID, e.leafSN)
			}
			if resumed.StatusErr != nil {
				t.Fatalf("resumed status lookup failed: %v", resumed.StatusErr)
			}
			if e.it.Stats().Resumptions < 1 {
				t.Fatal("Stats().Resumptions = 0 after a resumed bump")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no resumed upstream handshake after %d attempts", attempt+1)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestConnectEntry: HTTP CONNECT entry reaches the same bump path, and the
// interceptor dials the address the client asked for.
func TestConnectEntry(t *testing.T) {
	var (
		mu     sync.Mutex
		dialed []string
	)
	var upstreamAddr string
	e := newEnv(t, func(cfg *interception.Config) {
		upstreamAddr = cfg.Target
		cfg.Target = "" // CONNECT-only deployment
		cfg.DialUpstream = func(addr string) (net.Conn, error) {
			mu.Lock()
			dialed = append(dialed, addr)
			mu.Unlock()
			return net.Dial("tcp", upstreamAddr)
		}
	})

	raw, err := net.Dial("tcp", e.it.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("CONNECT " + testHost + ":443 HTTP/1.1\r\nHost: " + testHost + ":443\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	status := make([]byte, len("HTTP/1.1 200 Connection Established\r\n\r\n"))
	if _, err := io.ReadFull(raw, status); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(status), " 200 ") {
		t.Fatalf("CONNECT response = %q", status)
	}

	conn := tls.Client(raw, &tls.Config{ServerName: testHost, RootCAs: e.mintPool})
	if err := conn.Handshake(); err != nil {
		t.Fatalf("bump over CONNECT: %v", err)
	}
	echoRoundTrip(t, conn, "tunnelled")

	sess := e.sessions.wait(t, "CONNECT session", func(s interception.Session) bool { return s.ConnectEntry })
	if sess.Host != testHost {
		t.Fatalf("CONNECT session host = %q, want %q", sess.Host, testHost)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(dialed) == 0 || dialed[0] != testHost+":443" {
		t.Fatalf("interceptor dialed %v, want [%s:443]", dialed, testHost+":443")
	}
	if e.it.Stats().ConnectRequests < 1 {
		t.Fatal("Stats().ConnectRequests = 0 after a CONNECT entry")
	}
}

// TestStatusErrorDoesNotRefuse: an upstream leaf from a CA the RA does not
// replicate still bumps — the status lookup failure is surfaced on the
// session, and policy stays with the client, exactly as when no RA is on
// path.
func TestStatusErrorDoesNotRefuse(t *testing.T) {
	foreign := newUpstreamPKI(t, "UnknownCA")
	leafCert, _ := foreign.issue(t, testHost, 0x7777)
	addr := startTLSEcho(t, leafCert)
	e := newEnv(t, func(cfg *interception.Config) { cfg.Target = addr })

	conn, err := e.dialBumped(t)
	if err != nil {
		t.Fatalf("bump with unknown CA: %v", err)
	}
	defer conn.Close()
	echoRoundTrip(t, conn, "no status, still served")

	sess := e.sessions.wait(t, "status-error session", func(s interception.Session) bool {
		return !s.Bypassed && !s.NonTLS && s.Host == testHost
	})
	if sess.StatusErr == nil {
		t.Fatal("expected a status lookup error for an unreplicated CA")
	}
	if sess.Revoked {
		t.Fatal("status error must not refuse the connection")
	}
}
