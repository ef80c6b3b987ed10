package ritmclient

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"ritm/internal/ca"
	"ritm/internal/cdn"
	"ritm/internal/cert"
	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/ra"
	"ritm/internal/serial"
	"ritm/internal/tlssim"
)

// env is the full pipeline: CA → distribution point → edge → RA proxy →
// server, with a client trust pool.
type env struct {
	ca    *ca.CA
	agent *ra.RA
	pool  *cert.Pool
	chain cert.Chain
	key   *cryptoutil.Signer
}

func newEnv(t *testing.T, delta time.Duration) *env {
	t.Helper()
	dp := cdn.NewDistributionPoint(nil)
	authority, err := ca.New(ca.Config{ID: "CA1", Delta: delta, Publisher: dp})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.RegisterCA("CA1", authority.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := authority.PublishRoot(); err != nil {
		t.Fatal(err)
	}
	agent, err := ra.New(ra.Config{
		Roots:  []*cert.Certificate{authority.RootCertificate()},
		Origin: cdn.NewEdgeServer(dp, 0, nil),
		Delta:  delta,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	serverKey, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := authority.IssueServerCertificate("example.com", serverKey.Public())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cert.NewPool(authority.RootCertificate())
	if err != nil {
		t.Fatal(err)
	}
	return &env{ca: authority, agent: agent, pool: pool, chain: cert.Chain{leaf}, key: serverKey}
}

// startEcho runs a TLS-sim echo server and returns its address.
func startEcho(t *testing.T, cfg *tlssim.Config) net.Addr {
	t.Helper()
	return startServerFunc(t, cfg, func(conn *tlssim.Conn) {
		buf := make([]byte, 4096)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			if _, err := conn.Write(buf[:n]); err != nil {
				return
			}
		}
	})
}

// startDrip runs a TLS-sim server that writes "tick" every interval, the
// long-lived-connection workload (VPNs, IoT) of §II.
func startDrip(t *testing.T, cfg *tlssim.Config, interval time.Duration) net.Addr {
	t.Helper()
	return startServerFunc(t, cfg, func(conn *tlssim.Conn) {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for range ticker.C {
			if _, err := conn.Write([]byte("tick")); err != nil {
				return
			}
		}
	})
}

func startServerFunc(t *testing.T, cfg *tlssim.Config, serve func(*tlssim.Conn)) net.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn := tlssim.Server(raw, cfg)
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr()
}

func (e *env) proxyTo(t *testing.T, serverAddr net.Addr) *ra.Proxy {
	t.Helper()
	proxy, err := e.agent.NewProxy("127.0.0.1:0", serverAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	return proxy
}

func TestDialThroughRAVerifiesStatus(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	addr := startEcho(t, &tlssim.Config{Chain: e.chain, Key: e.key})
	proxy := e.proxyTo(t, addr)

	conn, err := Dial("tcp", proxy.Addr().String(), "example.com", &Config{
		Pool:          e.pool,
		Delta:         10 * time.Second,
		RequireStatus: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if conn.Verifier().ValidCount() == 0 {
		t.Error("no valid status counted")
	}
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := conn.Read(buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("echo: %q, %v", buf[:n], err)
	}
}

func TestRevokedCertificateRejectedAtHandshake(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	if _, err := e.ca.Revoke(e.chain.Leaf().SerialNumber); err != nil {
		t.Fatal(err)
	}
	if err := e.agent.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	addr := startEcho(t, &tlssim.Config{Chain: e.chain, Key: e.key})
	proxy := e.proxyTo(t, addr)

	_, err := Dial("tcp", proxy.Addr().String(), "example.com", &Config{
		Pool:          e.pool,
		Delta:         10 * time.Second,
		RequireStatus: true,
	})
	if err == nil {
		t.Fatal("handshake with revoked certificate succeeded")
	}
	if !errors.Is(err, tlssim.ErrStatusRejected) && !errors.Is(err, ErrRevoked) {
		t.Errorf("err = %v, want revocation rejection", err)
	}
}

func TestRequireStatusFailsWithoutRA(t *testing.T) {
	// Direct connection, no RA on path: a blocking adversary (or a tunnel)
	// produces exactly this view, and the bootstrapped client refuses (§V).
	e := newEnv(t, 10*time.Second)
	addr := startEcho(t, &tlssim.Config{Chain: e.chain, Key: e.key})

	_, err := Dial("tcp", addr.String(), "example.com", &Config{
		Pool:          e.pool,
		Delta:         10 * time.Second,
		RequireStatus: true,
	})
	if !errors.Is(err, ErrNoStatus) {
		t.Errorf("err = %v, want ErrNoStatus", err)
	}
}

func TestRequireServerDeploymentConfirmation(t *testing.T) {
	e := newEnv(t, 10*time.Second)

	// Server does not announce RITM: downgrade detected.
	plain := startEcho(t, &tlssim.Config{Chain: e.chain, Key: e.key})
	_, err := Dial("tcp", plain.String(), "example.com", &Config{
		Pool:                    e.pool,
		Delta:                   10 * time.Second,
		RequireServerDeployment: true,
	})
	if !errors.Is(err, ErrDowngrade) {
		t.Errorf("err = %v, want ErrDowngrade", err)
	}

	// Announcing server (TLS-terminator model): accepted.
	announcing := startEcho(t, &tlssim.Config{Chain: e.chain, Key: e.key, AnnounceRITM: true})
	conn, err := Dial("tcp", announcing.String(), "example.com", &Config{
		Pool:                    e.pool,
		Delta:                   10 * time.Second,
		RequireServerDeployment: true,
	})
	if err != nil {
		t.Fatalf("announcing server rejected: %v", err)
	}
	conn.Close()
}

func TestWatchdogInterruptsWhenStatusesStop(t *testing.T) {
	// No RA on path and a lenient handshake policy: statuses never arrive,
	// so 2∆ after the handshake the watchdog must interrupt (§III step 7).
	e := newEnv(t, 10*time.Second)
	addr := startDrip(t, &tlssim.Config{Chain: e.chain, Key: e.key}, 100*time.Millisecond)

	conn, err := Dial("tcp", addr.String(), "example.com", &Config{
		Pool:          e.pool,
		Delta:         400 * time.Millisecond, // 2∆ = 800 ms
		WatchInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	buf := make([]byte, 16)
	for time.Now().Before(deadline) {
		if _, err := conn.Read(buf); err != nil {
			if !errors.Is(err, ErrStatusExpired) {
				t.Fatalf("Read err = %v, want ErrStatusExpired", err)
			}
			if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrStatusExpired) {
				t.Errorf("Write err = %v, want ErrStatusExpired", err)
			}
			return // interrupted as required
		}
	}
	t.Fatal("connection survived more than 2∆ without any revocation status")
}

func TestMidConnectionRevocationInterrupts(t *testing.T) {
	// The race-condition protection of §V: a long-lived connection is
	// established, THEN the certificate is revoked; the periodic status
	// (presence proof) must kill the established connection. ∆ = 1 s keeps
	// the test fast; the CA refresher and RA fetcher run as in production.
	e := newEnv(t, time.Second)
	refresher := e.ca.StartRefresher(nil)
	t.Cleanup(refresher.Shutdown)
	fetcher := e.agent.StartFetcher(ra.FetcherOptions{})
	t.Cleanup(fetcher.Shutdown)

	addr := startDrip(t, &tlssim.Config{Chain: e.chain, Key: e.key}, 100*time.Millisecond)
	proxy := e.proxyTo(t, addr)

	conn, err := Dial("tcp", proxy.Addr().String(), "example.com", &Config{
		Pool:          e.pool,
		RequireStatus: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Read a little data: the connection works.
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}

	// Revoke mid-connection and let the RA learn it.
	if _, err := e.ca.Revoke(e.chain.Leaf().SerialNumber); err != nil {
		t.Fatal(err)
	}
	if err := e.agent.SyncOnce(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(15 * time.Second)
	var readErr error
	for time.Now().Before(deadline) {
		if _, readErr = conn.Read(buf); readErr != nil {
			break
		}
	}
	if readErr == nil {
		t.Fatal("established connection survived revocation")
	}
	if !errors.Is(readErr, tlssim.ErrStatusRejected) {
		t.Errorf("read err = %v, want status rejection", readErr)
	}
	if !conn.Verifier().Revoked() {
		t.Error("verifier did not record revocation")
	}
}

func TestVerifierRejectsMismatchedStatuses(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	cfg := &Config{Pool: e.pool, Delta: 10 * time.Second}

	// Revoke the leaf so its status carries a presence proof bound to the
	// exact serial (absence proofs for an empty dictionary are universal,
	// so they cannot distinguish serials — presence proofs can).
	if _, err := e.ca.Revoke(e.chain.Leaf().SerialNumber); err != nil {
		t.Fatal(err)
	}
	if err := e.agent.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	status, err := e.agent.Status("CA1", e.chain.Leaf().SerialNumber)
	if err != nil {
		t.Fatal(err)
	}
	raw := status.Encode()

	// Status about a different certificate (wrong serial in state).
	v := NewVerifier(cfg)
	state := &tlssim.ConnectionState{ServerCA: "CA1", ServerSerial: serial.FromUint64(999)}
	if err := v.Handle(raw, state); err == nil {
		t.Error("status accepted for a different serial")
	}

	// Status from a CA that did not issue the certificate.
	v = NewVerifier(cfg)
	state = &tlssim.ConnectionState{ServerCA: "CA2", ServerSerial: e.chain.Leaf().SerialNumber}
	if err := v.Handle(raw, state); !errors.Is(err, ErrWrongCertificate) {
		t.Errorf("err = %v, want ErrWrongCertificate", err)
	}

	// Garbage is rejected.
	v = NewVerifier(cfg)
	if err := v.Handle([]byte{1, 2, 3}, state); err == nil {
		t.Error("garbage accepted as status")
	}
}

func TestVerifierExpiry(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	now := time.Unix(1_400_000_000, 0)
	cfg := &Config{
		Pool:  e.pool,
		Delta: 10 * time.Second,
		Now:   func() time.Time { return now },
	}
	v := NewVerifier(cfg)

	if v.Expired(now.Add(19 * time.Second)) {
		t.Error("expired within 2∆")
	}
	if !v.Expired(now.Add(21 * time.Second)) {
		t.Error("not expired beyond 2∆")
	}
}

func TestVerifierTracksDeltaFromSignedRoot(t *testing.T) {
	// The effective ∆ comes from the signed root (per-CA ∆, §VIII), not
	// from the client's fallback configuration.
	e := newEnv(t, 30*time.Second) // CA publishes ∆ = 30 s
	now := time.Unix(1_400_000_000, 0)
	cfg := &Config{
		Pool:  e.pool,
		Delta: 5 * time.Second, // fallback would expire much sooner
		Now:   func() time.Time { return now },
	}
	v := NewVerifier(cfg)
	status, err := e.agent.Status("CA1", e.chain.Leaf().SerialNumber)
	if err != nil {
		t.Fatal(err)
	}
	state := &tlssim.ConnectionState{ServerCA: "CA1", ServerSerial: e.chain.Leaf().SerialNumber}
	if err := v.Handle(status.Encode(), state); err != nil {
		t.Fatal(err)
	}
	if v.Expired(now.Add(45 * time.Second)) {
		t.Error("expired before 2×30 s although the root's ∆ is 30 s")
	}
	if !v.Expired(now.Add(61 * time.Second)) {
		t.Error("not expired after 2×30 s")
	}
}

func TestStatusCheckAgainstDictionaryResults(t *testing.T) {
	// End-to-end unit check of the CheckValid / CheckRevoked outcomes as
	// the verifier sees them.
	e := newEnv(t, 10*time.Second)
	sn := e.chain.Leaf().SerialNumber
	pub, _ := e.pool.CAKey("CA1")

	status, err := e.agent.Status("CA1", sn)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := status.Check(sn, pub, time.Now().Unix()); err != nil || res != dictionary.CheckValid {
		t.Fatalf("pre-revocation check = %v, %v", res, err)
	}

	if _, err := e.ca.Revoke(sn); err != nil {
		t.Fatal(err)
	}
	if err := e.agent.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	status, err = e.agent.Status("CA1", sn)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := status.Check(sn, pub, time.Now().Unix()); err != nil || res != dictionary.CheckRevoked {
		t.Fatalf("post-revocation check = %v, %v", res, err)
	}
}
