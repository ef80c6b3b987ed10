package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand/v2"
	"net"
	"sync/atomic"
	"time"

	"ritm/internal/interception"
	"ritm/internal/ra"
	"ritm/internal/serial"
)

// site is one upstream web site: its host name, the real-x509 leaf the
// upstream presents for it, and that leaf's dictionary serial.
type site struct {
	host   string
	leaf   *tls.Certificate
	serial serial.Number
	client *tls.Config // what a browser behind the interceptor dials with
}

// sitePKI is the upstream's issuing CA — its common name is the RITM CA
// identifier, which is how the interceptor maps a bumped chain to a
// dictionary — and one leaf per site under a shared key.
type sitePKI struct {
	sites []site
}

func newSitePKI(seed uint64, count int) (*sitePKI, error) {
	caKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	caTmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: string(caID)},
		NotBefore:             now.Add(-time.Hour),
		NotAfter:              now.Add(24 * time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign,
		BasicConstraintsValid: true,
	}
	caDER, err := x509.CreateCertificate(rand.Reader, caTmpl, caTmpl, &caKey.PublicKey, caKey)
	if err != nil {
		return nil, err
	}
	caCert, err := x509.ParseCertificate(caDER)
	if err != nil {
		return nil, err
	}
	leafKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	pki := &sitePKI{}
	rng := newRNG(seed, streamSites)
	for i := 0; i < count; i++ {
		host := fmt.Sprintf("site-%04d.bench.ritm", i)
		sn := randomSerial(rng)
		raw := sn.Bytes()
		raw[0] &= 0x7f // keep the DER integer positive at 16 bytes
		if raw[0] == 0 {
			raw[0] = 1
		}
		tmpl := &x509.Certificate{
			SerialNumber: new(big.Int).SetBytes(raw),
			Subject:      pkix.Name{CommonName: host},
			DNSNames:     []string{host},
			NotBefore:    now.Add(-time.Hour),
			NotAfter:     now.Add(12 * time.Hour),
			KeyUsage:     x509.KeyUsageDigitalSignature,
			ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		}
		der, err := x509.CreateCertificate(rand.Reader, tmpl, caCert, &leafKey.PublicKey, caKey)
		if err != nil {
			return nil, err
		}
		parsed, err := x509.ParseCertificate(der)
		if err != nil {
			return nil, err
		}
		dictSN, err := interception.SerialFromBig(parsed.SerialNumber)
		if err != nil {
			return nil, err
		}
		pki.sites = append(pki.sites, site{
			host:   host,
			leaf:   &tls.Certificate{Certificate: [][]byte{der}, PrivateKey: leafKey, Leaf: parsed},
			serial: dictSN,
		})
	}
	return pki, nil
}

// newTLSEcho is a crypto/tls echo server.
func newTLSEcho(cfg *tls.Config) (*echoServer, error) {
	return newEchoServer(func(raw net.Conn) io.ReadWriteCloser { return tls.Server(raw, cfg) })
}

// bumpStack is everything bump_steady runs against.
type bumpStack struct {
	ctl      *control
	pki      *sitePKI
	upstream *echoServer
	agent    *ra.RA
	mintRoot *interception.MintingRoot
	mintPool *x509.CertPool
	it       *interception.Interceptor
	dataErrs atomic.Int64 // interceptor OnError calls outside the gate
	inGate   atomic.Bool
	firstErr atomic.Pointer[error]
	mix      *lookupMix
}

func buildBumpStack(cfg runConfig) (*bumpStack, error) {
	s := &bumpStack{}
	var err error
	if s.ctl, err = newControl(cfg, newVirtualClock()); err != nil {
		return nil, err
	}
	if s.pki, err = newSitePKI(cfg.seed, cfg.sites); err != nil {
		return nil, err
	}
	byHost := make(map[string]*tls.Certificate, len(s.pki.sites))
	for i := range s.pki.sites {
		byHost[s.pki.sites[i].host] = s.pki.sites[i].leaf
	}
	s.upstream, err = newTLSEcho(&tls.Config{
		GetCertificate: func(hello *tls.ClientHelloInfo) (*tls.Certificate, error) {
			if c, ok := byHost[hello.ServerName]; ok {
				return c, nil
			}
			return nil, fmt.Errorf("upstream: unknown site %q", hello.ServerName)
		},
	})
	if err != nil {
		return nil, err
	}
	if s.agent, err = s.ctl.heapRA(cfg, s.ctl.dp); err != nil {
		return nil, err
	}
	if s.mintRoot, err = interception.NewMintingRoot("Bench Bump Root", interception.KeyECDSA); err != nil {
		return nil, err
	}
	s.mintPool = x509.NewCertPool()
	s.mintPool.AddCert(s.mintRoot.Certificate())
	for i := range s.pki.sites {
		s.pki.sites[i].client = &tls.Config{ServerName: s.pki.sites[i].host, RootCAs: s.mintPool}
	}
	s.it, err = s.agent.NewInterceptor("127.0.0.1:0", interception.Config{
		Minter: interception.NewMinter(s.mintRoot, 0),
		Target: s.upstream.addr(),
		OnError: func(err error) {
			if s.inGate.Load() {
				return // the revocation gate provokes a refusal on purpose
			}
			s.dataErrs.Add(1)
			s.firstErr.CompareAndSwap(nil, &err)
		},
	})
	if err != nil {
		return nil, err
	}
	s.mix = newLookupMix(cfg.seed, s.ctl.corpus)
	return s, nil
}

func (s *bumpStack) close() {
	if s.it != nil {
		s.it.Close()
	}
	if s.upstream != nil {
		s.upstream.close()
	}
	if s.ctl != nil {
		s.ctl.close()
	}
}

var bumpDialer = &net.Dialer{Timeout: 10 * time.Second}

// echoOnce writes one byte and expects it back.
func echoOnce(conn io.ReadWriter, b byte) error {
	if _, err := conn.Write([]byte{b}); err != nil {
		return fmt.Errorf("echo write: %w", err)
	}
	var got [1]byte
	if _, err := io.ReadFull(conn, got[:]); err != nil {
		return fmt.Errorf("echo read: %w", err)
	}
	if got[0] != b {
		return fmt.Errorf("echo returned %#x, sent %#x", got[0], b)
	}
	return nil
}

// handshake is the bump_steady operation: a full crypto/tls handshake
// through the interceptor (no client session cache, so never resumed),
// verified against the bump root, one echoed byte, close.
func (s *bumpStack) handshake(siteIdx int, tr *tracer, parent int32, op int64) error {
	st := &s.pki.sites[siteIdx]
	id := tr.begin("client.tls_dial", parent, op)
	conn, err := tls.DialWithDialer(bumpDialer, "tcp", s.it.Addr().String(), st.client)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", st.host, err)
	}
	id = tr.begin("client.echo", parent, op)
	err = echoOnce(conn, byte(siteIdx))
	tr.end(id)
	id = tr.begin("client.close", parent, op)
	conn.Close()
	tr.end(id)
	return err
}

// revocationGate is bump_steady's closing correctness check: revoke one
// site's leaf, synchronize, and require the next handshake to that site
// to die with a certificate_revoked alert while a connection opened
// before the revocation keeps echoing.
func (s *bumpStack) revocationGate(rep *report) {
	s.inGate.Store(true)
	defer s.inGate.Store(false)
	victim := &s.pki.sites[len(s.pki.sites)-1]
	rep.attempted++
	open, err := tls.DialWithDialer(bumpDialer, "tcp", s.it.Addr().String(), victim.client)
	if err != nil {
		rep.fail(fmt.Errorf("gate: pre-revocation handshake: %w", err))
		return
	}
	defer open.Close()
	if _, err := s.ctl.ca.Revoke(victim.serial); err != nil {
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
	conn, err := tls.DialWithDialer(bumpDialer, "tcp", s.it.Addr().String(), victim.client)
	if err == nil {
		conn.Close()
		rep.fail(errors.New("gate: handshake to a revoked site succeeded"))
		return
	}
	// crypto/tls reports a received fatal alert as a "remote error"
	// OpError around an unexported alert type; 44 reads "revoked certificate".
	var op *net.OpError
	if !errors.As(err, &op) || op.Op != "remote error" || op.Err.Error() != "tls: revoked certificate" {
		rep.fail(fmt.Errorf("gate: revoked site refused with %v, want alert 44 (certificate_revoked)", err))
		return
	}
	if err := echoOnce(open, 0x5a); err != nil {
		rep.fail(fmt.Errorf("gate: connection opened before the revocation stopped echoing: %w", err))
	}
}

func runBump(cfg runConfig, tr *tracer) (*report, error) {
	rep := newReport()
	s, setupS, err := medianSetup(func() (*bumpStack, error) { return buildBumpStack(cfg) })
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep.setN("setup_s", setupS, setupRepeats)
	cfg.logf("set-up: median %.3f s of %d builds (corpus %d, %d sites, interceptor %s, upstream %s)",
		setupS, setupRepeats, cfg.n, len(s.pki.sites), s.it.Addr(), s.upstream.addr())

	statusBytes, proofHashes, err := meanStatusBytes(s.agent, s.mix)
	if err != nil {
		return nil, err
	}
	rep.setN("status_bytes", statusBytes, len(s.mix.hot))
	rep.set("dictionary.proof_hashes", proofHashes)

	// Hosts are Zipf(s) over every site but the last, which the closing
	// revocation gate keeps for itself.
	newDrawer := func(rng *mrand.Rand) func() int {
		z := mrand.NewZipf(rng, zipfS, 1, uint64(len(s.pki.sites)-2))
		return func() int { return int(z.Uint64()) }
	}
	statsBefore := s.it.Stats()
	cacheBefore := s.agent.CacheStats()
	phases := &handshakePhases{cfg: cfg, tr: tr, rep: rep, op: s.handshake, newDrawer: newDrawer, rate: bumpOpenRate}
	phases.run()
	statsAfter := s.it.Stats()
	cacheAfter := s.agent.CacheStats()
	rep.set("heap_inuse_mb", heapInuseMB())

	// Interceptor-side accounting: a refusal during the window is a
	// failure even if the client happened not to notice. Data-path errors
	// the interceptor absorbed are reported, not failed: a handshake that
	// broke failed at the client too, and what is left is teardown noise
	// (a reset from a client that closed with bytes unread).
	if n := s.dataErrs.Load(); n > 0 {
		cfg.logf("interceptor absorbed %d data-path errors, first: %v", n, *s.firstErr.Load())
	}
	refused := statsAfter.Refused - statsBefore.Refused
	for i := int64(0); i < refused; i++ {
		rep.fail(errors.New("interceptor refused a handshake to an unrevoked site"))
	}
	hits := float64(statsAfter.MintCacheHits - statsBefore.MintCacheHits)
	misses := float64(statsAfter.MintCacheMisses - statsBefore.MintCacheMisses)
	rep.set("interception.refused", float64(refused))
	rep.set("interception.errors", float64(statsAfter.SpliceErrors-statsBefore.SpliceErrors+s.dataErrs.Load()))
	if hits+misses > 0 {
		rep.set("interception.mint_hit_ratio", hits/(hits+misses))
	}
	setCacheDeltas(rep, cacheBefore, cacheAfter)
	rep.set("interception.allocs_per_handshake", rep.values["proc.allocs_per_op"])
	cfg.logf("mint cache: %.0f hits, %.0f misses over the window; upstream resumptions %d of %d bumps",
		hits, misses, statsAfter.Resumptions-statsBefore.Resumptions, statsAfter.Bumped-statsBefore.Bumped)

	if tr != nil {
		if err := s.probes(cfg, rep); err != nil {
			return nil, err
		}
	}
	s.revocationGate(rep)
	return rep, nil
}

// setCacheDeltas reports the RA status cache's activity over a window.
func setCacheDeltas(rep *report, before, after ra.CacheStats) {
	hits := float64(after.Hits - before.Hits)
	misses := float64(after.Misses - before.Misses)
	if hits+misses > 0 {
		rep.set("ra.cache_hit_ratio", hits/(hits+misses))
	}
	rep.set("ra.cache_evictions", float64(after.Evictions-before.Evictions))
}
