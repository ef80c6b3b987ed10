package ra

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ritm/internal/cdn"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/tlssim"
)

// Failure-injection tests for the RA: dissemination outages, poisoned
// messages, and unreachable upstreams must surface as errors and never
// corrupt replicated state or wedge the data path.

// outageOrigin simulates a dissemination outage.
type outageOrigin struct {
	cdn.Origin
	down atomic.Bool
}

var errOutage = errors.New("dissemination outage")

func (o *outageOrigin) Pull(ca dictionary.CAID, from uint64) (*cdn.PullResponse, error) {
	if o.down.Load() {
		return nil, errOutage
	}
	return o.Origin.Pull(ca, from)
}

func TestSyncSurvivesOutage(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	outage := &outageOrigin{Origin: e.edge}
	e.ra.origin = outage

	if _, err := e.ca.Revoke(serial.NewGenerator(1, nil).NextN(2)...); err != nil {
		t.Fatal(err)
	}
	outage.down.Store(true)
	if err := e.ra.SyncOnce(); !errors.Is(err, errOutage) {
		t.Fatalf("outage not surfaced: %v", err)
	}
	replica, err := e.ra.Store().Replica("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if replica.Count() != 0 {
		t.Fatalf("state mutated during outage: n=%d", replica.Count())
	}
	// Recovery: the next pull catches up completely.
	outage.down.Store(false)
	if err := e.ra.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if replica.Count() != 2 {
		t.Fatalf("post-outage count = %d, want 2", replica.Count())
	}
}

// poisonOrigin swaps the serials inside issuance messages, keeping the
// (now non-matching) signed root — a corrupting CDN.
type poisonOrigin struct {
	cdn.Origin
}

func (p *poisonOrigin) Pull(ca dictionary.CAID, from uint64) (*cdn.PullResponse, error) {
	resp, err := p.Origin.Pull(ca, from)
	if err != nil || resp.Issuance == nil || len(resp.Issuance.Serials) == 0 {
		return resp, err
	}
	poisoned := *resp.Issuance
	poisoned.Serials = serial.NewGenerator(0xBAD, nil).NextN(len(resp.Issuance.Serials))
	return &cdn.PullResponse{Issuance: &poisoned, Freshness: resp.Freshness}, nil
}

func TestSyncRejectsPoisonedIssuance(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	e.ra.origin = &poisonOrigin{Origin: e.edge}

	if _, err := e.ca.Revoke(serial.NewGenerator(2, nil).NextN(3)...); err != nil {
		t.Fatal(err)
	}
	err := e.ra.SyncOnce()
	if err == nil {
		t.Fatal("poisoned issuance accepted")
	}
	if !errors.Is(err, dictionary.ErrRootMismatch) {
		t.Errorf("err = %v, want ErrRootMismatch (the §V attack signal)", err)
	}
	replica, rerr := e.ra.Store().Replica("CA1")
	if rerr != nil {
		t.Fatal(rerr)
	}
	if replica.Count() != 0 {
		t.Fatalf("poisoned serials committed: n=%d", replica.Count())
	}
}

func TestProxyUnreachableUpstream(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	// Reserve an address and close it: dialing it must fail fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	proxy, err := e.ra.NewProxy("127.0.0.1:0", dead)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	var proxyErr atomic.Value
	proxy.SetOnError(func(err error) { proxyErr.Store(err) })

	conn, err := net.Dial("tcp", proxy.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The proxy closes our connection once the upstream dial fails.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("connection to dead upstream delivered data")
	}
}

func TestProxySurvivesMidHandshakePeerDisappearance(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	serverAddr := startServer(t, &tlssim.Config{Chain: e.chain, Key: e.key})
	proxy, err := e.ra.NewProxy("127.0.0.1:0", serverAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// A client that sends half a ClientHello record and vanishes.
	raw, err := net.Dial("tcp", proxy.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte{22, 3, 3, 0x40, 0x00, 0x01, 0x02}) //nolint:errcheck // partial record
	raw.Close()

	// The proxy must remain fully functional for the next client.
	conn, err := tlssim.Dial("tcp", proxy.Addr().String(), &tlssim.Config{
		Pool:        e.pool,
		ServerName:  "example.com",
		RequestRITM: true,
	})
	if err != nil {
		t.Fatalf("proxy wedged after abandoned connection: %v", err)
	}
	conn.Close()
	// Teardown runs asynchronously after the close; wait for the table to
	// drain rather than racing it.
	tableLen := func() int {
		e.ra.table.mu.RLock()
		defer e.ra.table.mu.RUnlock()
		return len(e.ra.table.conns)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tableLen() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := tableLen(); n != 0 {
		t.Errorf("connection table leaked %d entries", n)
	}
}
