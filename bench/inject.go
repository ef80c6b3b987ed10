package main

import (
	"errors"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net"
	"strings"
	"sync"

	"ritm/internal/cert"
	"ritm/internal/cryptoutil"
	"ritm/internal/ra"
	"ritm/internal/ritmclient"
	"ritm/internal/tlssim"
)

const injectServerName = "server.bench.ritm"

// newSimEcho is a tlssim echo server: the RITM-unaware upstream of the
// paper's native path.
func newSimEcho(cfg *tlssim.Config) (*echoServer, error) {
	return newEchoServer(func(raw net.Conn) io.ReadWriteCloser { return tlssim.Server(raw, cfg) })
}

// injectStack is everything inject_steady runs against.
type injectStack struct {
	ctl      *control
	leaf     *cert.Certificate
	server   *echoServer
	agent    *ra.RA
	proxy    *ra.Proxy
	client   *ritmclient.Config
	mix      *lookupMix
	proxyErr sync.Mutex
	errs     []error
}

func buildInjectStack(cfg runConfig) (*injectStack, error) {
	s := &injectStack{}
	var err error
	if s.ctl, err = newControl(cfg, newVirtualClock()); err != nil {
		return nil, err
	}
	key, err := cryptoutil.NewSigner(nil)
	if err != nil {
		return nil, err
	}
	if s.leaf, err = s.ctl.ca.IssueServerCertificate(injectServerName, key.Public()); err != nil {
		return nil, err
	}
	s.server, err = newSimEcho(&tlssim.Config{Chain: cert.Chain{s.leaf}, Key: key, Time: s.ctl.clk.Now})
	if err != nil {
		return nil, err
	}
	if s.agent, err = s.ctl.heapRA(cfg, s.ctl.dp); err != nil {
		return nil, err
	}
	if s.proxy, err = s.agent.NewProxy("127.0.0.1:0", s.server.addr()); err != nil {
		return nil, err
	}
	s.proxy.SetOnError(func(err error) {
		s.proxyErr.Lock()
		s.errs = append(s.errs, err)
		s.proxyErr.Unlock()
	})
	pool, err := cert.NewPool(s.ctl.roots...)
	if err != nil {
		return nil, err
	}
	s.client = &ritmclient.Config{Pool: pool, Delta: delta, RequireStatus: true, Now: s.ctl.clk.Now}
	s.mix = newLookupMix(cfg.seed, s.ctl.corpus)
	return s, nil
}

func (s *injectStack) close() {
	if s.proxy != nil {
		s.proxy.Close()
	}
	if s.server != nil {
		s.server.close()
	}
	if s.ctl != nil {
		s.ctl.close()
	}
}

// handshake is the inject_steady operation: ritmclient.Dial through the
// RA proxy — the proxy's DPI injects the status, the client verifies
// proof, signature and freshness and fails without one — then one echoed
// byte and close.
func (s *injectStack) handshake(_ int, tr *tracer, parent int32, op int64) error {
	id := tr.begin("ritmclient.Dial", parent, op)
	conn, err := ritmclient.Dial("tcp", s.proxy.Addr().String(), injectServerName, s.client)
	tr.end(id)
	if err != nil {
		return err
	}
	if conn.Verifier().ValidCount() < 1 {
		conn.Close()
		return errors.New("handshake completed without a verified status")
	}
	id = tr.begin("client.echo", parent, op)
	err = echoOnce(conn, 0x42)
	tr.end(id)
	id = tr.begin("client.close", parent, op)
	conn.Close()
	tr.end(id)
	return err
}

// revocationGate revokes the server's certificate, synchronizes the RA
// and requires the next Dial to fail on the injected presence proof,
// while a connection opened before keeps echoing.
func (s *injectStack) revocationGate(rep *report) {
	rep.attempted++
	open, err := ritmclient.Dial("tcp", s.proxy.Addr().String(), injectServerName, s.client)
	if err != nil {
		rep.fail(fmt.Errorf("gate: pre-revocation dial: %w", err))
		return
	}
	defer open.Close()
	if _, err := s.ctl.ca.RevokeCertificate(s.leaf); err != nil {
		rep.fail(fmt.Errorf("gate: revoke: %w", err))
		return
	}
	if err := s.ctl.ca.PublishRefresh(); err != nil {
		rep.fail(fmt.Errorf("gate: publish: %w", err))
		return
	}
	if err := s.agent.SyncOnce(); err != nil {
		rep.fail(fmt.Errorf("gate: sync: %w", err))
		return
	}
	conn, err := ritmclient.Dial("tcp", s.proxy.Addr().String(), injectServerName, s.client)
	if err == nil {
		conn.Close()
		rep.fail(errors.New("gate: dial to a revoked server succeeded"))
		return
	}
	// tlssim flattens the verifier's error into its own with %v.
	if !errors.Is(err, tlssim.ErrStatusRejected) || !strings.Contains(err.Error(), ritmclient.ErrRevoked.Error()) {
		rep.fail(fmt.Errorf("gate: revoked server refused with %v, want %v", err, ritmclient.ErrRevoked))
		return
	}
	if err := echoOnce(open, 0x5a); err != nil {
		rep.fail(fmt.Errorf("gate: connection opened before the revocation stopped echoing: %w", err))
	}
}

func runInject(cfg runConfig, tr *tracer) (*report, error) {
	rep := newReport()
	s, setupS, err := medianSetup(func() (*injectStack, error) { return buildInjectStack(cfg) })
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep.setN("setup_s", setupS, setupRepeats)
	cfg.logf("set-up: median %.3f s of %d builds (corpus %d, proxy %s, server %s)",
		setupS, setupRepeats, cfg.n, s.proxy.Addr(), s.server.addr())

	statusBytes, proofHashes, err := meanStatusBytes(s.agent, s.mix)
	if err != nil {
		return nil, err
	}
	rep.setN("status_bytes", statusBytes, len(s.mix.hot))
	rep.set("dictionary.proof_hashes", proofHashes)
	if _, enc, err := s.agent.StatusEncoded(caID, s.leaf.SerialNumber); err == nil {
		cfg.logf("status attached to this run's handshakes: %d bytes (hot-set mean %.1f)", len(enc), statusBytes)
	}

	statsBefore := s.agent.Stats()
	cacheBefore := s.agent.CacheStats()
	phases := &handshakePhases{
		cfg: cfg, tr: tr, rep: rep, op: s.handshake, rate: injectOpenRate,
		newDrawer: func(*mrand.Rand) func() int { return func() int { return 0 } },
	}
	phases.run()
	statsAfter := s.agent.Stats()
	setCacheDeltas(rep, cacheBefore, s.agent.CacheStats())
	rep.set("heap_inuse_mb", heapInuseMB())

	// Every supported connection must have had a status injected. Errors
	// the proxy absorbed are reported, not failed: a broken handshake failed
	// at the client too, and what is left is teardown noise (a reset from a
	// client that closed with bytes unread).
	supported := statsAfter.ConnectionsSupported - statsBefore.ConnectionsSupported
	injected := statsAfter.StatusesInjected - statsBefore.StatusesInjected
	if injected < supported {
		rep.fail(fmt.Errorf("proxy injected %d statuses into %d supported connections", injected, supported))
	}
	s.proxyErr.Lock()
	if len(s.errs) > 0 {
		cfg.logf("proxy absorbed %d data-path errors, first: %v", len(s.errs), s.errs[0])
	}
	s.proxyErr.Unlock()

	if tr != nil {
		if err := s.probes(cfg, rep); err != nil {
			return nil, err
		}
	}
	s.revocationGate(rep)
	return rep, nil
}
