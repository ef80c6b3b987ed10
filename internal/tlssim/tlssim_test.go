package tlssim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"

	"ritm/internal/cert"
	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// testEnv is a server identity plus a client trust pool.
type testEnv struct {
	pool      *cert.Pool
	chain     cert.Chain
	serverKey *cryptoutil.Signer
}

func newTestEnv(t testing.TB) *testEnv {
	t.Helper()
	caKey, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	serverKey, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	root, err := cert.SelfSigned("CA1", caKey, 0, 1<<40, 10)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := cert.Issue("CA1", caKey, cert.Template{
		SerialNumber: serial.FromUint64(0x73E10A5),
		Subject:      "example.com",
		NotBefore:    0,
		NotAfter:     1 << 40,
		PublicKey:    serverKey.Public(),
	})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cert.NewPool(root)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{pool: pool, chain: cert.Chain{leaf}, serverKey: serverKey}
}

// handshakePair runs client and server handshakes over a pipe and returns
// the connected pair.
func handshakePair(t *testing.T, clientCfg, serverCfg *Config) (*Conn, *Conn) {
	t.Helper()
	cRaw, sRaw := net.Pipe()
	client := Client(cRaw, clientCfg)
	server := Server(sRaw, serverCfg)
	errCh := make(chan error, 1)
	go func() { errCh <- server.Handshake() }()
	if err := client.Handshake(); err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server
}

func (e *testEnv) clientConfig() *Config {
	return &Config{Pool: e.pool, ServerName: "example.com", RequestRITM: true}
}

func (e *testEnv) serverConfig() *Config {
	return &Config{Chain: e.chain, Key: e.serverKey}
}

func TestFullHandshakeAndEcho(t *testing.T) {
	env := newTestEnv(t)
	client, server := handshakePair(t, env.clientConfig(), env.serverConfig())

	// Server echoes in the background.
	go func() {
		buf := make([]byte, 256)
		n, err := server.Read(buf)
		if err != nil {
			return
		}
		server.Write(buf[:n])
	}()

	msg := []byte("GET / HTTP/1.1")
	if _, err := client.Write(msg); err != nil {
		t.Fatalf("client write: %v", err)
	}
	buf := make([]byte, 256)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatalf("client read: %v", err)
	}
	if !bytes.Equal(buf[:n], msg) {
		t.Errorf("echo = %q, want %q", buf[:n], msg)
	}

	st := client.ConnectionState()
	if st.ServerCA != "CA1" {
		t.Errorf("ServerCA = %s, want CA1", st.ServerCA)
	}
	if !st.ServerSerial.Equal(serial.FromUint64(0x73E10A5)) {
		t.Errorf("ServerSerial = %v", st.ServerSerial)
	}
	if st.Resumed {
		t.Error("full handshake marked resumed")
	}
	if !st.RITMRequested {
		t.Error("RITM extension not recorded")
	}
}

func TestLargeTransferFragments(t *testing.T) {
	env := newTestEnv(t)
	client, server := handshakePair(t, env.clientConfig(), env.serverConfig())

	payload := bytes.Repeat([]byte("ritm"), 20_000) // 80 KB, several records
	go func() {
		server.Write(payload)
		server.Close()
	}()
	got, err := io.ReadAll(client)
	if err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("transfer mismatch: got %d bytes, want %d", len(got), len(payload))
	}
}

func TestServerNameMismatchRejected(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.clientConfig()
	cfg.ServerName = "other.com"

	cRaw, sRaw := net.Pipe()
	client := Client(cRaw, cfg)
	server := Server(sRaw, env.serverConfig())
	go server.Handshake() //nolint:errcheck // failure expected
	if err := client.Handshake(); err == nil {
		t.Fatal("handshake with wrong server name succeeded")
	}
	cRaw.Close()
	sRaw.Close()
}

func TestUntrustedChainRejected(t *testing.T) {
	env := newTestEnv(t)
	otherEnv := newTestEnv(t) // different root CA

	cRaw, sRaw := net.Pipe()
	client := Client(cRaw, env.clientConfig())
	server := Server(sRaw, otherEnv.serverConfig())
	go server.Handshake() //nolint:errcheck // failure expected
	err := client.Handshake()
	if err == nil {
		t.Fatal("handshake with untrusted chain succeeded")
	}
	if !errors.Is(err, ErrHandshakeFailed) {
		t.Errorf("err = %v, want ErrHandshakeFailed", err)
	}
	cRaw.Close()
	sRaw.Close()
}

func TestSessionIDResumption(t *testing.T) {
	env := newTestEnv(t)
	cache := &ClientSessionCache{}
	serverCfg := env.serverConfig()

	// First connection: full handshake populates the cache.
	cfg1 := env.clientConfig()
	cfg1.SessionCache = cache
	c1, _ := handshakePair(t, cfg1, serverCfg)
	if c1.ConnectionState().Resumed {
		t.Fatal("first connection resumed")
	}

	// Second connection: abbreviated handshake.
	cfg2 := env.clientConfig()
	cfg2.SessionCache = cache
	c2, s2 := handshakePair(t, cfg2, serverCfg)
	st := c2.ConnectionState()
	if !st.Resumed {
		t.Fatal("second connection not resumed")
	}
	// The resumed connection still knows the server certificate identity.
	if st.ServerCA != "CA1" || !st.ServerSerial.Equal(serial.FromUint64(0x73E10A5)) {
		t.Errorf("resumed state lost certificate identity: %+v", st)
	}
	if !s2.ConnectionState().Resumed {
		t.Error("server side not marked resumed")
	}

	// Data still flows.
	go s2.Write([]byte("pong"))
	buf := make([]byte, 16)
	n, err := c2.Read(buf)
	if err != nil || string(buf[:n]) != "pong" {
		t.Errorf("read after resumption: %q, %v", buf[:n], err)
	}
}

func TestSessionTicketResumption(t *testing.T) {
	env := newTestEnv(t)
	cache := &ClientSessionCache{}
	var ticketKey [32]byte
	copy(ticketKey[:], bytes.Repeat([]byte{7}, 32))

	serverCfg := env.serverConfig()
	serverCfg.TicketKey = &ticketKey
	serverCfg.DisableSessionID = true // force ticket-only resumption

	cfg1 := env.clientConfig()
	cfg1.SessionCache = cache
	handshakePair(t, cfg1, serverCfg)

	// A *different* server config object with the same ticket key must be
	// able to resume: tickets are stateless on the server.
	serverCfg2 := env.serverConfig()
	serverCfg2.TicketKey = &ticketKey
	serverCfg2.DisableSessionID = true

	cfg2 := env.clientConfig()
	cfg2.SessionCache = cache
	c2, _ := handshakePair(t, cfg2, serverCfg2)
	if !c2.ConnectionState().Resumed {
		t.Fatal("ticket resumption failed")
	}
	if c2.ConnectionState().ServerCA != "CA1" {
		t.Error("ticket resumption lost certificate identity")
	}
}

func TestResumptionDeclinedFallsBackToFull(t *testing.T) {
	env := newTestEnv(t)
	cache := &ClientSessionCache{}

	cfg1 := env.clientConfig()
	cfg1.SessionCache = cache
	handshakePair(t, cfg1, env.serverConfig())

	// A brand-new server config has no session cache entries and no ticket
	// key, so it declines and the client falls back to a full handshake.
	cfg2 := env.clientConfig()
	cfg2.SessionCache = cache
	c2, _ := handshakePair(t, cfg2, env.serverConfig())
	if c2.ConnectionState().Resumed {
		t.Fatal("resumption against a fresh server succeeded")
	}
	if c2.ConnectionState().ServerCA != "CA1" {
		t.Error("fallback handshake lost certificate identity")
	}
}

func TestServerDeploymentConfirmation(t *testing.T) {
	env := newTestEnv(t)
	serverCfg := env.serverConfig()
	serverCfg.AnnounceRITM = true
	client, _ := handshakePair(t, env.clientConfig(), serverCfg)
	if !client.ConnectionState().ServerDeploysRITM {
		t.Error("deployment confirmation not visible to client")
	}
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- c
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	if b == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

func TestStatusRecordsDispatchedToHandler(t *testing.T) {
	env := newTestEnv(t)

	var received [][]byte
	cfg := env.clientConfig()
	cfg.OnStatus = func(raw []byte, st *ConnectionState) error {
		received = append(received, append([]byte(nil), raw...))
		return nil
	}

	// Loopback TCP, not net.Pipe: the injected record is written while the
	// client is itself writing its second flight, which a synchronous pipe
	// would deadlock on. The kernel buffers it ahead of the server's
	// closing flight, so the client meets it mid-handshake.
	cRaw, sRaw := tcpPair(t)
	client := Client(cRaw, cfg)
	// A fake middlebox terminates the raw connection: it runs a real server
	// handshake but injects a status record between handshake flights and
	// before application data.
	serverCfg := env.serverConfig()
	server := Server(&statusInjectingConn{Conn: sRaw, inject: []byte("status-1")}, serverCfg)

	errCh := make(chan error, 1)
	go func() { errCh <- server.Handshake() }()
	if err := client.Handshake(); err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	if len(received) == 0 {
		t.Fatal("status record did not reach the handler during the handshake")
	}
	if string(received[0]) != "status-1" {
		t.Errorf("status payload = %q", received[0])
	}
	go server.Write([]byte("data"))
	buf := make([]byte, 16)
	if _, err := client.Read(buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	client.Close()
	server.Close()
}

// statusInjectingConn wraps the server's net.Conn and injects one RITM
// status record immediately after the first write (the server's first
// flight), simulating an on-path RA.
type statusInjectingConn struct {
	net.Conn
	inject   []byte
	injected bool
}

func (c *statusInjectingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if err != nil {
		return n, err
	}
	if !c.injected {
		c.injected = true
		rec, recErr := AppendRecord(nil, Record{Type: ContentRITMStatus, Payload: c.inject})
		if recErr != nil {
			return n, recErr
		}
		if _, err := c.Conn.Write(rec); err != nil {
			return n, err
		}
	}
	return n, nil
}

func TestStatusHandlerRejectionAbortsConnection(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.clientConfig()
	cfg.OnStatus = func(raw []byte, st *ConnectionState) error {
		return errors.New("revoked")
	}

	cRaw, sRaw := net.Pipe()
	client := Client(cRaw, cfg)
	server := Server(sRaw, env.serverConfig())
	errCh := make(chan error, 1)
	go func() { errCh <- server.Handshake() }()
	if err := client.Handshake(); err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	defer client.Close()
	defer server.Close()

	// Inject a status record server→client after the handshake.
	rec, err := AppendRecord(nil, Record{Type: ContentRITMStatus, Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	go sRaw.Write(rec) //nolint:errcheck // best-effort injection

	buf := make([]byte, 16)
	_, readErr := client.Read(buf)
	if !errors.Is(readErr, ErrStatusRejected) {
		t.Errorf("Read err = %v, want ErrStatusRejected", readErr)
	}
}

func TestTamperedApplicationRecordRejected(t *testing.T) {
	env := newTestEnv(t)

	cRaw, sRaw := net.Pipe()
	tamper := &tamperingConn{Conn: sRaw}
	client := Client(cRaw, env.clientConfig())
	server := Server(tamper, env.serverConfig())
	errCh := make(chan error, 1)
	go func() { errCh <- server.Handshake() }()
	if err := client.Handshake(); err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	defer client.Close()
	defer server.Close()

	tamper.tamperNext.Store(true)
	go server.Write([]byte("secret"))
	buf := make([]byte, 16)
	if _, err := client.Read(buf); !errors.Is(err, ErrDecrypt) {
		t.Errorf("Read err = %v, want ErrDecrypt", err)
	}
}

// tamperingConn flips a bit in the payload of the next application record.
type tamperingConn struct {
	net.Conn
	tamperNext atomic.Bool
}

func (c *tamperingConn) Write(p []byte) (int, error) {
	if c.tamperNext.Load() && len(p) > recordHeaderLen && p[0] == byte(ContentApplicationData) {
		c.tamperNext.Store(false)
		mutated := append([]byte(nil), p...)
		mutated[len(mutated)-1] ^= 1
		n, err := c.Conn.Write(mutated)
		if n > len(p) {
			n = len(p)
		}
		return n, err
	}
	return c.Conn.Write(p)
}

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := Record{Type: ContentHandshake, Payload: []byte{1, 2, 3}}
	if err := WriteRecord(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
		t.Errorf("round trip: %+v != %+v", got, want)
	}
}

func TestRecordSizeLimit(t *testing.T) {
	_, err := AppendRecord(nil, Record{Type: ContentHandshake, Payload: make([]byte, MaxRecordPayload+1)})
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("err = %v, want ErrRecordTooLarge", err)
	}
}

func TestReadRecordBadVersion(t *testing.T) {
	_, err := ReadRecord(bytes.NewReader([]byte{22, 9, 9, 0, 0}))
	if !errors.Is(err, ErrBadRecord) {
		t.Errorf("err = %v, want ErrBadRecord", err)
	}
}

func TestHandshakeMessageCodecs(t *testing.T) {
	ch := &ClientHello{
		SessionID: []byte{1, 2, 3},
		Extensions: []Extension{
			{Type: ExtRITMSupport},
			{Type: ExtSessionTicket, Data: []byte("ticket")},
		},
	}
	msg := ch.Marshal()
	parsed, err := ParseHandshake(msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseClientHello(parsed.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SupportsRITM() {
		t.Error("RITM extension lost")
	}
	if ticket, ok := got.SessionTicket(); !ok || string(ticket) != "ticket" {
		t.Error("ticket extension lost")
	}
	if !bytes.Equal(got.SessionID, ch.SessionID) {
		t.Error("session ID lost")
	}
}

func TestTicketSealOpenRoundTrip(t *testing.T) {
	var key [32]byte
	key[0] = 9
	s := Session{ServerName: "example.com", ServerCA: "CA1", ServerSerial: serial.FromUint64(7)}
	s.Master[3] = 0xAB
	ticket, err := sealTicket(bytes.NewReader(bytes.Repeat([]byte{5}, 64)), key, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := openTicket(key, ticket)
	if err != nil {
		t.Fatal(err)
	}
	if got.ServerName != s.ServerName || got.ServerCA != s.ServerCA ||
		!got.ServerSerial.Equal(s.ServerSerial) || got.Master != s.Master {
		t.Error("ticket round trip lost state")
	}

	// Wrong key fails.
	var wrong [32]byte
	if _, err := openTicket(wrong, ticket); err == nil {
		t.Error("ticket opened with wrong key")
	}
	// Tampered ticket fails.
	ticket[len(ticket)-1] ^= 1
	if _, err := openTicket(key, ticket); err == nil {
		t.Error("tampered ticket opened")
	}
}
