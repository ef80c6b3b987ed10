package ra

import (
	"bufio"
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
	"ritm/internal/serial"
	"ritm/internal/tlssim"
)

// env is a complete miniature deployment: CA → distribution point → edge →
// RA, plus a TLS-sim server behind the RA's proxy.
type env struct {
	ca    *ca.CA
	dp    *cdn.DistributionPoint
	edge  *cdn.EdgeServer
	ra    *RA
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
	edge := cdn.NewEdgeServer(dp, 0, nil)
	agent, err := New(Config{
		Roots:  []*cert.Certificate{authority.RootCertificate()},
		Origin: edge,
		Delta:  delta,
	})
	if err != nil {
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
	// Bootstrap: publish the empty dictionary's root and freshness so the
	// RA can sync before the first revocation.
	if err := authority.PublishRoot(); err != nil {
		t.Fatal(err)
	}
	if err := authority.PublishRefresh(); err != nil {
		t.Fatal(err)
	}
	if err := agent.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	return &env{
		ca:    authority,
		dp:    dp,
		edge:  edge,
		ra:    agent,
		pool:  pool,
		chain: cert.Chain{leaf},
		key:   serverKey,
	}
}

// startServer runs a TLS-sim server that writes payload bursts on demand.
// Each accepted connection echoes application data.
func startServer(t *testing.T, cfg *tlssim.Config) net.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serve(t, ln, cfg)
	return ln.Addr()
}

// serve is startServer on a listener the caller made.
func serve(t *testing.T, ln net.Listener, cfg *tlssim.Config) {
	t.Helper()
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
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
}

// collectStatuses returns a tlssim OnStatus handler that stores decoded
// statuses.
type statusCollector struct {
	mu       sync.Mutex
	statuses []*dictionary.Status
	states   []tlssim.ConnectionState
}

func (sc *statusCollector) handle(raw []byte, st *tlssim.ConnectionState) error {
	status, err := dictionary.DecodeStatus(raw)
	if err != nil {
		return err
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.statuses = append(sc.statuses, status)
	sc.states = append(sc.states, *st)
	return nil
}

func (sc *statusCollector) count() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.statuses)
}

func (sc *statusCollector) last() (*dictionary.Status, tlssim.ConnectionState) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.statuses) == 0 {
		return nil, tlssim.ConnectionState{}
	}
	return sc.statuses[len(sc.statuses)-1], sc.states[len(sc.states)-1]
}

func TestDetectRecord(t *testing.T) {
	tests := []struct {
		name string
		hdr  []byte
		want bool
	}{
		{"handshake", []byte{22, 3, 3, 0, 10}, true},
		{"appdata", []byte{23, 3, 3, 1, 0}, true},
		{"ritm-status", []byte{100, 3, 3, 0, 50}, true},
		{"alert", []byte{21, 3, 3, 0, 2}, true},
		{"http", []byte("GET /"), false},
		{"bad version", []byte{22, 9, 9, 0, 10}, false},
		{"bad type", []byte{99, 3, 3, 0, 10}, false},
		{"short", []byte{22, 3}, false},
		{"oversized", []byte{22, 3, 3, 0xFF, 0xFF}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, got := DetectRecord(tt.hdr); got != tt.want {
				t.Errorf("DetectRecord(%v) = %v, want %v", tt.hdr, got, tt.want)
			}
		})
	}
}

func TestTableLifecycle(t *testing.T) {
	tbl := NewTable()
	tuple := FourTuple{SrcIP: "12.34.56.78", SrcPort: "9012", DstIP: "98.76.54.32", DstPort: "443"}
	cs := tbl.Create(tuple)

	if cs.stage != StageClientHello || cs.ca != "" || cs.lastStatus != 0 {
		t.Errorf("initial state = %+v, want Eq (4) zero state", cs)
	}
	if _, ok := tbl.conns[tuple]; !ok {
		t.Fatal("created state not found")
	}

	cs.setStage(StageEstablished)
	cs.setIdentity("CA1", serial.FromUint64(0x73E10A5))
	cs.markStatus(1000)
	if !cs.needsStatus(1011, 10) {
		t.Error("needsStatus = false after ∆ elapsed")
	}
	if cs.needsStatus(1005, 10) {
		t.Error("needsStatus = true before ∆ elapsed")
	}

	tbl.Remove(tuple)
	if len(tbl.conns) != 0 {
		t.Error("state not removed")
	}
}

func TestSyncAndDesyncRecovery(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	gen := serial.NewGenerator(7, nil)

	if _, err := e.ca.Revoke(gen.NextN(3)...); err != nil {
		t.Fatal(err)
	}
	if err := e.ra.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	replica, err := e.ra.Store().Replica("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if replica.Count() != 3 {
		t.Fatalf("count after sync = %d, want 3", replica.Count())
	}

	// Miss two batches (the RA was "offline"), then recover in one pull.
	if _, err := e.ca.Revoke(gen.NextN(2)...); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ca.Revoke(gen.NextN(4)...); err != nil {
		t.Fatal(err)
	}
	if err := e.ra.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if replica.Count() != 9 {
		t.Fatalf("count after recovery = %d, want 9", replica.Count())
	}
}

func TestProxyInjectsStatusOnFullHandshake(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	serverAddr := startServer(t, &tlssim.Config{Chain: e.chain, Key: e.key})
	proxy, err := e.ra.NewProxy("127.0.0.1:0", serverAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	sc := &statusCollector{}
	conn, err := tlssim.Dial("tcp", proxy.Addr().String(), &tlssim.Config{
		Pool:        e.pool,
		ServerName:  "example.com",
		RequestRITM: true,
		OnStatus:    sc.handle,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if sc.count() == 0 {
		t.Fatal("no status injected during handshake")
	}
	status, state := sc.last()
	pub, _ := e.pool.CAKey("CA1")
	res, err := status.Check(state.ServerSerial, pub, time.Now().Unix())
	if err != nil {
		t.Fatalf("injected status does not verify: %v", err)
	}
	if res != dictionary.CheckValid {
		t.Errorf("check = %v, want CheckValid", res)
	}

	// Application data still flows through the proxy.
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := conn.Read(buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("echo through proxy: %q, %v", buf[:n], err)
	}

	if st := e.ra.Stats(); st.StatusesInjected == 0 || st.ConnectionsSupported == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProxyRevokedCertificateDelivered(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	// Revoke the server's certificate and let the RA learn it.
	if _, err := e.ca.Revoke(e.chain.Leaf().SerialNumber); err != nil {
		t.Fatal(err)
	}
	if err := e.ra.SyncOnce(); err != nil {
		t.Fatal(err)
	}

	serverAddr := startServer(t, &tlssim.Config{Chain: e.chain, Key: e.key})
	proxy, err := e.ra.NewProxy("127.0.0.1:0", serverAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	sc := &statusCollector{}
	conn, err := tlssim.Dial("tcp", proxy.Addr().String(), &tlssim.Config{
		Pool:        e.pool,
		ServerName:  "example.com",
		RequestRITM: true,
		OnStatus:    sc.handle,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	status, state := sc.last()
	if status == nil {
		t.Fatal("no status delivered for revoked certificate")
	}
	pub, _ := e.pool.CAKey("CA1")
	res, err := status.Check(state.ServerSerial, pub, time.Now().Unix())
	if err != nil {
		t.Fatalf("presence status does not verify: %v", err)
	}
	if res != dictionary.CheckRevoked {
		t.Errorf("check = %v, want CheckRevoked", res)
	}
}

func TestProxyTransparentForNonRITMClients(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	serverAddr := startServer(t, &tlssim.Config{Chain: e.chain, Key: e.key})
	proxy, err := e.ra.NewProxy("127.0.0.1:0", serverAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	sc := &statusCollector{}
	conn, err := tlssim.Dial("tcp", proxy.Addr().String(), &tlssim.Config{
		Pool:       e.pool,
		ServerName: "example.com",
		OnStatus:   sc.handle, // would record any stray status
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, err := conn.Read(buf); err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("echo: %q, %v", buf[:n], err)
	}
	if sc.count() != 0 {
		t.Error("status injected into a non-RITM connection")
	}
	if st := e.ra.Stats(); st.ConnectionsSupported != 0 {
		t.Errorf("non-RITM connection counted as supported: %+v", st)
	}
}

func TestProxyNonTLSPassthrough(t *testing.T) {
	e := newEnv(t, 10*time.Second)

	// A raw line-echo server.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				r := bufio.NewReader(c)
				line, err := r.ReadString('\n')
				if err != nil {
					return
				}
				c.Write([]byte(line)) //nolint:errcheck // test echo
			}()
		}
	}()

	proxy, err := e.ra.NewProxy("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	conn, err := net.Dial("tcp", proxy.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("PING\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := conn.Read(buf)
	if err != nil || string(buf[:n]) != "PING\n" {
		t.Fatalf("raw echo: %q, %v", buf[:n], err)
	}
	if st := e.ra.Stats(); st.NonTLSConnections != 1 {
		t.Errorf("NonTLSConnections = %d, want 1", st.NonTLSConnections)
	}
}

func TestProxyPeriodicStatusRefresh(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	// Shrink the RA's notion of ∆ to one second so the refresh fires fast.
	e.ra.delta = time.Second

	serverAddr := startServer(t, &tlssim.Config{Chain: e.chain, Key: e.key})
	proxy, err := e.ra.NewProxy("127.0.0.1:0", serverAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	sc := &statusCollector{}
	conn, err := tlssim.Dial("tcp", proxy.Addr().String(), &tlssim.Config{
		Pool:        e.pool,
		ServerName:  "example.com",
		RequestRITM: true,
		OnStatus:    sc.handle,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	first := sc.count()
	if first == 0 {
		t.Fatal("no handshake status")
	}

	// After ∆ passes, the next server→client record carries a fresh status.
	time.Sleep(1100 * time.Millisecond)
	if _, err := conn.Write([]byte("tick")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if sc.count() <= first {
		t.Errorf("no refreshed status after ∆: %d then %d", first, sc.count())
	}
}

func TestProxySessionResumptionStatus(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	serverCfg := &tlssim.Config{Chain: e.chain, Key: e.key}
	serverAddr := startServer(t, serverCfg)
	proxy, err := e.ra.NewProxy("127.0.0.1:0", serverAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cache := &tlssim.ClientSessionCache{}
	dial := func(sc *statusCollector) *tlssim.Conn {
		t.Helper()
		conn, err := tlssim.Dial("tcp", proxy.Addr().String(), &tlssim.Config{
			Pool:         e.pool,
			ServerName:   "example.com",
			RequestRITM:  true,
			OnStatus:     sc.handle,
			SessionCache: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}

	sc1 := &statusCollector{}
	c1 := dial(sc1)
	c1.Close()
	if sc1.count() == 0 {
		t.Fatal("no status on full handshake")
	}

	sc2 := &statusCollector{}
	c2 := dial(sc2)
	defer c2.Close()
	if !c2.ConnectionState().Resumed {
		t.Fatal("second connection did not resume")
	}
	if sc2.count() == 0 {
		t.Fatal("no status on resumed handshake (session cache miss at RA)")
	}
	status, _ := sc2.last()
	pub, _ := e.pool.CAKey("CA1")
	res, err := status.Check(e.chain.Leaf().SerialNumber, pub, time.Now().Unix())
	if err != nil || res != dictionary.CheckValid {
		t.Errorf("resumed status check = %v, %v", res, err)
	}
}

func TestMultipleRAsReplaceOrForward(t *testing.T) {
	e := newEnv(t, 10*time.Second)

	// A second, independent RA (closer to the client) whose replica is more
	// recent than the first RA's.
	outer, err := New(Config{
		Roots:  []*cert.Certificate{e.ca.RootCertificate()},
		Origin: e.edge,
		Delta:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := outer.SyncOnce(); err != nil {
		t.Fatal(err)
	}

	// Advance the dictionary; only the outer RA learns about it.
	if _, err := e.ca.Revoke(serial.NewGenerator(50, nil).NextN(2)...); err != nil {
		t.Fatal(err)
	}
	if err := outer.SyncOnce(); err != nil {
		t.Fatal(err)
	}

	serverAddr := startServer(t, &tlssim.Config{Chain: e.chain, Key: e.key})
	inner, err := e.ra.NewProxy("127.0.0.1:0", serverAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	outerProxy, err := outer.NewProxy("127.0.0.1:0", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer outerProxy.Close()

	sc := &statusCollector{}
	conn, err := tlssim.Dial("tcp", outerProxy.Addr().String(), &tlssim.Config{
		Pool:        e.pool,
		ServerName:  "example.com",
		RequestRITM: true,
		OnStatus:    sc.handle,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if sc.count() == 0 {
		t.Fatal("no status through chained RAs")
	}
	status, _ := sc.last()
	if status.Root.N != 2 {
		t.Errorf("client saw root with N=%d, want the outer RA's N=2", status.Root.N)
	}
	if st := outer.Stats(); st.StatusesReplaced == 0 {
		t.Errorf("outer RA stats = %+v, expected a replacement", st)
	}
}

func TestStatusForCAWithoutDictionary(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	if _, err := e.ra.Status("CA9", serial.FromUint64(1)); !errors.Is(err, ErrNoDictionary) {
		t.Errorf("err = %v, want ErrNoDictionary", err)
	}
}

func TestStoreRemoveFreesReplica(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	if _, err := e.ra.Store().Replica("CA1"); err != nil {
		t.Fatal(err)
	}
	e.ra.Store().Remove("CA1")
	if _, err := e.ra.Store().Replica("CA1"); !errors.Is(err, ErrNoDictionary) {
		t.Errorf("removed dictionary still served: %v", err)
	}
	// The trust anchor survives removal: the CA can be re-added.
	if _, ok := e.ra.Store().view.Load().pool.CAKey("CA1"); !ok {
		t.Error("trust anchor dropped with the replica")
	}
}

func TestFetcherLifecycle(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	pullEvery(e.ra, 20*time.Millisecond)
	var mu sync.Mutex
	var errs []error
	f := e.ra.StartFetcher(FetcherOptions{OnError: func(err error) {
		mu.Lock()
		defer mu.Unlock()
		errs = append(errs, err)
	}})

	if _, err := e.ca.Revoke(serial.NewGenerator(3, nil).NextN(1)...); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	f.Shutdown()

	replica, err := e.ra.Store().Replica("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if replica.Count() != 1 {
		t.Errorf("fetcher did not sync: count = %d", replica.Count())
	}
	mu.Lock()
	defer mu.Unlock()
	for _, err := range errs {
		t.Errorf("fetcher error: %v", err)
	}
}
