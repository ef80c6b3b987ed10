package ra

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"ritm/internal/middlebox"
	"ritm/internal/tlssim"
)

// recordingConn counts the writes made to a net.Conn and keeps their bytes.
type recordingConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	sent   bytes.Buffer
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.sent.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// CloseWrite keeps the proxy's half-close a TCP FIN.
func (c *recordingConn) CloseWrite() error { return c.Conn.(*net.TCPConn).CloseWrite() }

// snapshot returns the write count and a copy of the bytes written so far.
func (c *recordingConn) snapshot() (int, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, bytes.Clone(c.sent.Bytes())
}

type recordingListener struct {
	net.Listener
	accepted chan<- *recordingConn
}

func (l *recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	rc := &recordingConn{Conn: c}
	l.accepted <- rc
	return rc, nil
}

// newRecordingProxy is NewProxy with both legs of every connection
// recorded: toClient yields the proxy's client-side conns, toServer its
// upstream conns, one per proxied connection.
func newRecordingProxy(t *testing.T, agent *RA, target string) (p *Proxy, toClient, toServer <-chan *recordingConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Room for every connection a test makes (two at most), so neither
	// Accept nor the dial waits for the test to receive.
	down, up := make(chan *recordingConn, 4), make(chan *recordingConn, 4)
	p = &Proxy{
		ra:  agent,
		srv: middlebox.New(&recordingListener{Listener: ln, accepted: down}),
		dial: func() (net.Conn, error) {
			c, err := net.Dial("tcp", target)
			if err != nil {
				return nil, err
			}
			rc := &recordingConn{Conn: c}
			up <- rc
			return rc, nil
		},
	}
	p.srv.Start(p.handle)
	t.Cleanup(func() { p.Close() })
	return p, down, up
}

// recordSequence names every record in stream: handshake records by message
// type, the others by content type.
func recordSequence(t *testing.T, stream []byte) []string {
	t.Helper()
	var seq []string
	r := bytes.NewReader(stream)
	for {
		rec, err := tlssim.ReadRecord(r)
		if err == io.EOF {
			return seq
		}
		if err != nil {
			t.Fatalf("record stream: %v", err)
		}
		if rec.Type != tlssim.ContentHandshake {
			seq = append(seq, rec.Type.String())
			continue
		}
		msg, err := tlssim.ParseHandshake(rec.Payload)
		if err != nil {
			t.Fatalf("handshake record: %v", err)
		}
		seq = append(seq, msg.Type.String())
	}
}

// TestOneWritePerFlight pins the inject plane's writes on a full and on a
// resumed (ticket) handshake through the proxy: the tlssim client and
// server send each handshake flight with one write, and the proxy re-emits
// a flight its peer sent with one write with at most one write per flight,
// the injected status included. The record sequences on all four legs are
// what one write per record put on the wire.
func TestOneWritePerFlight(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	servers := make(chan *recordingConn, 4) // sized as newRecordingProxy's
	var ticketKey [32]byte
	serve(t, &recordingListener{Listener: ln, accepted: servers},
		&tlssim.Config{Chain: e.chain, Key: e.key, TicketKey: &ticketKey})
	proxy, toClient, toServer := newRecordingProxy(t, e.ra, ln.Addr().String())
	cache := &tlssim.ClientSessionCache{}

	cases := []struct {
		name                       string
		clientWrites, serverWrites int
		toServer, toClient         []string
	}{
		{"full", 2, 2,
			[]string{"ClientHello", "ClientKeyExchange", "Finished"},
			[]string{"ServerHello", "Certificate", "ritm-status", "ServerKeyExchange", "ServerHelloDone", "NewSessionTicket", "Finished"}},
		{"resumed", 2, 1,
			[]string{"ClientHello", "Finished"},
			[]string{"ServerHello", "ritm-status", "Finished"}},
	}
	for _, tc := range cases {
		raw, err := net.Dial("tcp", proxy.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		client := &recordingConn{Conn: raw}
		sc := &statusCollector{}
		conn := tlssim.Client(client, &tlssim.Config{
			Pool:         e.pool,
			ServerName:   "example.com",
			RequestRITM:  true,
			OnStatus:     sc.handle,
			SessionCache: cache,
		})
		if err := conn.Handshake(); err != nil {
			t.Fatalf("%s: handshake: %v", tc.name, err)
		}
		if got := conn.ConnectionState().Resumed; got != (tc.name == "resumed") {
			t.Fatalf("%s: Resumed = %v", tc.name, got)
		}
		if sc.count() != 1 {
			t.Errorf("%s: %d statuses during the handshake, want 1", tc.name, sc.count())
		}
		// The client holds the server's Finished, so the server and the
		// proxy have written every client-bound record; the client's last
		// flight may still be on its way upstream.
		server, down, up := <-servers, <-toClient, <-toServer
		cw, _ := client.snapshot()
		sw, fromServer := server.snapshot()
		dw, downBytes := down.snapshot()
		uw, upBytes := awaitRecords(t, up, len(tc.toServer))
		if cw != tc.clientWrites || sw != tc.serverWrites {
			t.Errorf("%s: writes: client %d server %d, want %d and %d", tc.name, cw, sw, tc.clientWrites, tc.serverWrites)
		}
		if dw > 2 || uw > 2 {
			t.Errorf("%s: writes: proxy to client %d and to server %d, want ≤ 2 each", tc.name, dw, uw)
		}
		if got := recordSequence(t, upBytes); !reflect.DeepEqual(got, tc.toServer) {
			t.Errorf("%s: server received %v, want %v", tc.name, got, tc.toServer)
		}
		if got := recordSequence(t, downBytes); !reflect.DeepEqual(got, tc.toClient) {
			t.Errorf("%s: client received %v, want %v", tc.name, got, tc.toClient)
		}
		sent := slices.DeleteFunc(slices.Clone(tc.toClient), func(r string) bool { return r == "ritm-status" })
		if got := recordSequence(t, fromServer); !reflect.DeepEqual(got, sent) {
			t.Errorf("%s: server sent %v, want %v", tc.name, got, sent)
		}
		conn.Close()
	}
}

// awaitRecords waits until c has written n whole records and returns its
// write count and bytes.
func awaitRecords(t *testing.T, c *recordingConn, n int) (int, []byte) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		writes, sent := c.snapshot()
		if len(recordSequence(t, sent)) >= n || time.Now().After(deadline) {
			return writes, sent
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProxyFlushesWhenPeerStalls: a peer that sends one complete record and
// half of the next, then stalls, must still get the complete record to the
// far side — in both directions. A proxy that held its output until its
// source went quiet would wait on the half record forever.
func TestProxyFlushesWhenPeerStalls(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	hello := mustRecord(t, tlssim.ContentHandshake,
		(&tlssim.ClientHello{Extensions: []tlssim.Extension{{Type: tlssim.ExtRITMSupport}}}).Marshal().Encode())
	serverHello := mustRecord(t, tlssim.ContentHandshake, (&tlssim.ServerHello{}).Marshal().Encode())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	upstreamGot := make(chan []byte, 1)
	stall := make(chan struct{})
	defer close(stall)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			upstreamGot <- nil
			return
		}
		defer c.Close()
		c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // the read fails instead
		got := make([]byte, len(hello))
		if _, err := io.ReadFull(c, got); err != nil {
			got = nil
		}
		upstreamGot <- got
		c.Write(slices.Concat(serverHello, serverHello[:len(serverHello)/2])) //nolint:errcheck // the client's read fails instead
		<-stall
	}()

	proxy, err := e.ra.NewProxy("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	client, err := net.Dial("tcp", proxy.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write(slices.Concat(hello, hello[:len(hello)/2])); err != nil {
		t.Fatal(err)
	}
	if got := <-upstreamGot; !bytes.Equal(got, hello) {
		t.Fatalf("upstream received %x, want the whole ClientHello record %x", got, hello)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // the read fails instead
	got := make([]byte, len(serverHello))
	if _, err := io.ReadFull(client, got); err != nil || !bytes.Equal(got, serverHello) {
		t.Fatalf("client received %x (%v), want the whole ServerHello record", got, err)
	}
}

func mustRecord(t *testing.T, typ tlssim.ContentType, payload []byte) []byte {
	t.Helper()
	rec, err := tlssim.AppendRecord(nil, tlssim.Record{Type: typ, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}
