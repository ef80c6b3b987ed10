// Package interception is the RA's real-TLS data plane: a crypto/tls
// terminating middlebox ("SSLBump" in squid/redwood terms) that puts the
// RITM revocation check on handshakes a real browser can complete, instead
// of the tlssim wire format the rest of the repository simulates with.
//
// For every accepted connection the interceptor peeks the first packet with
// its own bounds-checked record/ClientHello parser (clienthello.go) and
// decides:
//
//   - not TLS            → splice verbatim, peeked bytes replayed first
//     ("RAs are completely non-invasive for non-supported clients and
//     protocols other than TLS", §VII-F); so is a client silent until
//     HandshakeTimeout, which is waiting for a server that speaks first;
//   - bypassed SNI       → splice verbatim, same replay;
//   - otherwise          → bump: dial the upstream over real TLS, map its
//     leaf certificate to a (CA, serial) dictionary identity, drive
//     ra.Store.Status — the lock-free fast path every simulated handshake
//     already uses — and refuse revoked upstreams with a fatal
//     certificate_revoked alert before a single application byte flows.
//     Valid upstreams get a leaf minted under the local bump root
//     (mint.go) and the two TLS sessions are spliced.
//
// Both deployment entries of §IV are handled on one listener: transparent
// (the first bytes are a TLS record) and explicit HTTP CONNECT (the first
// bytes are an HTTP request line; connect.go).
//
// The interceptor never forges revocation statuses: it can only refuse or
// forward, and everything it serves to clients is minted under its own
// local root, which clients must have explicitly installed.
package interception

import (
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"math/big"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ritm/internal/dictionary"
	"ritm/internal/middlebox"
	"ritm/internal/serial"
)

// StatusSource produces revocation statuses for dictionary identities.
// *ra.Store implements it; the interceptor consults it on every bumped
// handshake (the "status-injected bump" the benchmarks measure).
type StatusSource interface {
	Status(ca dictionary.CAID, sn serial.Number) (*dictionary.Status, []byte, error)
}

// Config configures an Interceptor.
type Config struct {
	// Status is the revocation-status source (required): normally the RA's
	// dictionary store.
	Status StatusSource
	// Minter mints per-site leaves under the local bump root (required).
	Minter *Minter
	// Bypass, when non-nil, lists hosts that are never bumped: matching
	// connections are spliced verbatim (SSLBump bypass list).
	Bypass *BypassList
	// Target is the upstream address for transparent entry. CONNECT entry
	// dials the address the client requested instead. Empty is allowed for
	// CONNECT-only deployments; transparent connections are then refused.
	Target string
	// DialUpstream overrides the upstream TCP dial (tests inject failures
	// and in-process upstreams). Nil = net.Dial("tcp", addr).
	DialUpstream func(addr string) (net.Conn, error)
	// UpstreamTLS is the client-side TLS configuration for the bump's
	// upstream leg. Nil uses InsecureSkipVerify, the redwood default for a
	// middlebox that cannot know every deployment's trust store: chain
	// validation remains the end client's job against the minted chain, and
	// revocation — this system's contribution — is checked against the
	// RITM dictionary regardless. A session cache is installed either way
	// so repeat upstreams resume.
	UpstreamTLS *tls.Config
	// OnSession, when non-nil, receives the metadata of every connection
	// whose bump decision was reached: bumped (client handshake done),
	// bypassed, refused, or non-TLS. Connections that error out before a
	// decision (upstream unreachable, handshake failure) go to OnError
	// only.
	OnSession func(*Session)
	// OnError receives data-path errors the interceptor absorbs. Nil drops
	// them. Must be safe for concurrent use.
	OnError func(error)
	// HandshakeTimeout bounds the time from accept to bump decision
	// (ClientHello read + upstream dial + status check). 0 = 10s.
	HandshakeTimeout time.Duration
}

// Session is the per-connection outcome the interceptor exposes: what the
// bump decision was and, for bumped connections, the revocation-status
// metadata that backed it.
type Session struct {
	// Host is the SNI (or CONNECT target host) the decision was made for.
	Host string
	// ConnectEntry marks connections that arrived via HTTP CONNECT.
	ConnectEntry bool
	// NonTLS marks connections spliced because they did not look like TLS.
	NonTLS bool
	// Bypassed marks connections spliced because of a bypass-list hit (or
	// a ClientHello without SNI, which cannot be bumped meaningfully).
	Bypassed bool
	// Revoked marks connections refused with a certificate_revoked alert.
	Revoked bool
	// Resumed marks bumps whose upstream handshake was abbreviated (no
	// Certificate message crossed the upstream wire).
	Resumed bool
	// IdentityFromCache marks bumps whose (CA, serial) identity came from
	// the interceptor's identity cache rather than a certificate parsed
	// off the wire.
	IdentityFromCache bool
	// CA and Serial are the dictionary identity of the upstream leaf.
	CA     dictionary.CAID
	Serial serial.Number
	// StatusRootN is the dictionary version (signed root N) the status was
	// proved against; zero when no status was obtained.
	StatusRootN uint64
	// StatusErr records a failed status lookup (unknown CA, replica not
	// yet synchronized). The bump proceeded without revocation metadata —
	// the client's policy stays in charge, exactly as when no RA is on
	// path.
	StatusErr error
}

// RefusedError is the typed error recorded when a connection is refused
// because the upstream leaf is revoked in the RITM dictionary.
type RefusedError struct {
	Host   string
	CA     dictionary.CAID
	Serial serial.Number
}

func (e *RefusedError) Error() string {
	return fmt.Sprintf("interception: %s: upstream leaf %v revoked by %s; connection refused", e.Host, e.Serial, e.CA)
}

// Stats counts the interceptor's data-path activity.
type Stats struct {
	// Connections counts accepted connections.
	Connections int64
	// Bumped counts completed TLS bumps (client handshake finished).
	Bumped int64
	// Refused counts connections refused with a certificate_revoked alert.
	Refused int64
	// Bypassed counts verbatim splices due to bypass-list hits or missing SNI.
	Bypassed int64
	// NonTLS counts verbatim splices of traffic that did not look like TLS.
	NonTLS int64
	// ConnectRequests counts HTTP CONNECT entries.
	ConnectRequests int64
	// Resumptions counts bumps whose upstream handshake resumed.
	Resumptions int64
	// SpliceErrors counts non-benign errors surfaced while splicing.
	SpliceErrors int64
	// MintCacheHits / MintCacheMisses are the minter's LRU counters.
	MintCacheHits   int64
	MintCacheMisses int64
}

type interceptCounters struct {
	connections     atomic.Int64
	bumped          atomic.Int64
	refused         atomic.Int64
	bypassed        atomic.Int64
	nonTLS          atomic.Int64
	connectRequests atomic.Int64
	resumptions     atomic.Int64
	spliceErrors    atomic.Int64
}

// upstreamIdentity is what the interceptor remembers per host so that a
// resumed upstream handshake — no Certificate message on the wire — can
// still be mapped to a dictionary identity and a mintable leaf.
type upstreamIdentity struct {
	ca   dictionary.CAID
	sn   serial.Number
	leaf *x509.Certificate
}

// Interceptor is the real-TLS bump middlebox. Safe for concurrent use; one
// goroutine per connection direction, no shared locks on the splice path.
type Interceptor struct {
	cfg      Config
	srv      *middlebox.Server
	upstream *tls.Config // template for the upstream leg, session cache installed

	idmu    sync.RWMutex
	idcache map[string]upstreamIdentity

	stats interceptCounters
}

// DefaultHandshakeTimeout bounds accept-to-bump-decision when the Config
// leaves HandshakeTimeout zero.
const DefaultHandshakeTimeout = 10 * time.Second

// identityCacheCap bounds the host → upstream-identity cache used to
// support resumed upstream handshakes.
const identityCacheCap = 4096

// Listen starts an interceptor on addr. The returned interceptor is
// already accepting.
func Listen(addr string, cfg Config) (*Interceptor, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("interception: listen %s: %w", addr, err)
	}
	it, err := NewWithListener(ln, cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return it, nil
}

// NewWithListener starts an interceptor on an existing listener (tests use
// in-memory listeners).
func NewWithListener(ln net.Listener, cfg Config) (*Interceptor, error) {
	if cfg.Status == nil {
		return nil, errors.New("interception: config missing Status source")
	}
	if cfg.Minter == nil {
		return nil, errors.New("interception: config missing Minter")
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = DefaultHandshakeTimeout
	}
	if cfg.DialUpstream == nil {
		cfg.DialUpstream = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	var upstream *tls.Config
	if cfg.UpstreamTLS != nil {
		upstream = cfg.UpstreamTLS.Clone()
	} else {
		upstream = &tls.Config{InsecureSkipVerify: true} //nolint:gosec // see Config.UpstreamTLS
	}
	if upstream.ClientSessionCache == nil {
		upstream.ClientSessionCache = tls.NewLRUClientSessionCache(0)
	}
	it := &Interceptor{
		cfg:      cfg,
		srv:      middlebox.New(ln),
		upstream: upstream,
		idcache:  make(map[string]upstreamIdentity),
	}
	it.srv.SetOnError(cfg.OnError)
	it.srv.Start(it.handle)
	return it, nil
}

// Addr returns the interceptor's listening address.
func (it *Interceptor) Addr() net.Addr { return it.srv.Addr() }

// Stats returns a copy of the interceptor's counters.
func (it *Interceptor) Stats() Stats {
	hits, misses := it.cfg.Minter.CacheStats()
	return Stats{
		Connections:     it.stats.connections.Load(),
		Bumped:          it.stats.bumped.Load(),
		Refused:         it.stats.refused.Load(),
		Bypassed:        it.stats.bypassed.Load(),
		NonTLS:          it.stats.nonTLS.Load(),
		ConnectRequests: it.stats.connectRequests.Load(),
		Resumptions:     it.stats.resumptions.Load(),
		SpliceErrors:    it.stats.spliceErrors.Load(),
		MintCacheHits:   int64(hits),
		MintCacheMisses: int64(misses),
	}
}

// Close stops accepting, closes active connections, and waits for all
// handlers to exit.
func (it *Interceptor) Close() error { return it.srv.Close() }

func (it *Interceptor) emitSession(s *Session) {
	if fn := it.cfg.OnSession; fn != nil {
		fn(s)
	}
}

// handle runs one accepted connection to completion.
func (it *Interceptor) handle(client net.Conn) error {
	it.stats.connections.Add(1)
	deadline := time.Now().Add(it.cfg.HandshakeTimeout)
	client.SetReadDeadline(deadline) //nolint:errcheck // best effort; cleared before splicing

	sess := &Session{}
	target := it.cfg.Target

	// Entry sniff: a TLS record, an HTTP CONNECT preamble, or neither.
	pk := newPeeker(client)
	hdr, err := pk.peek(RecordHeaderLen)
	if err != nil {
		// Shorter-than-5-byte connections are still spliced, and so is a
		// client that stays silent until the deadline (the server speaks
		// first: SSH, SMTP): the middlebox stays invisible to protocols it
		// does not understand. Only a client gone before its first byte
		// is dropped.
		if len(hdr) == 0 && !errors.Is(err, os.ErrDeadlineExceeded) {
			return nil
		}
		sess.NonTLS = true
		return it.spliceVerbatim(sess, client, pk.buffered(), target, deadline)
	}
	if looksLikeConnect(hdr) {
		host, hostport, cerr := readConnect(pk, client)
		if cerr != nil {
			return fmt.Errorf("interception: CONNECT entry: %w", cerr)
		}
		it.stats.connectRequests.Add(1)
		sess.ConnectEntry = true
		sess.Host = host
		target = hostport
		// The sniff restarts on the tunnel bytes; readConnect already
		// discarded the preamble, and anything the client pipelined after
		// it is still buffered.
		hdr, err = pk.peek(RecordHeaderLen)
		if err != nil {
			sess.NonTLS = true
			return it.spliceVerbatim(sess, client, pk.buffered(), target, deadline)
		}
	}

	if _, _, ok := ParseRecordHeader(hdr); !ok {
		sess.NonTLS = true
		return it.spliceVerbatim(sess, client, pk.buffered(), target, deadline)
	}

	_, hello, err := readClientHelloMessage(pk)
	if err != nil {
		// TLS-looking traffic we could not assemble a ClientHello from:
		// forward verbatim, the endpoints will sort it out.
		sess.NonTLS = true
		return it.spliceVerbatim(sess, client, pk.buffered(), target, deadline)
	}
	// Replay the peeker's whole buffer, not just the hello records: a read
	// can land hello + pipelined bytes in one chunk, and dropping the tail
	// would corrupt the stream.
	ch, err := ParseClientHello(hello)
	if err != nil || len(ch.ServerName) == 0 {
		// No SNI: nothing to mint a believable leaf for. Splice.
		sess.Bypassed = true
		return it.spliceVerbatim(sess, client, pk.buffered(), target, deadline)
	}
	host := string(ch.ServerName)
	if sess.Host == "" {
		sess.Host = host
	}
	if it.cfg.Bypass != nil && it.cfg.Bypass.MatchBytes(ch.ServerName) {
		sess.Bypassed = true
		return it.spliceVerbatim(sess, client, pk.buffered(), target, deadline)
	}
	return it.bump(sess, client, pk.buffered(), host, target, deadline)
}

// spliceVerbatim forwards the connection untouched: the peeked bytes are
// replayed to the upstream first, then both directions are spliced on the
// raw TCP conns.
func (it *Interceptor) spliceVerbatim(sess *Session, client net.Conn, peeked []byte, target string, deadline time.Time) error {
	if sess.NonTLS {
		it.stats.nonTLS.Add(1)
	} else {
		it.stats.bypassed.Add(1)
	}
	it.emitSession(sess)
	if target == "" {
		return errors.New("interception: transparent connection with no Target configured")
	}
	upstream, err := it.dialRaw(target, deadline)
	if err != nil {
		return err
	}
	defer it.srv.Release(upstream)
	if len(peeked) > 0 {
		if _, err := upstream.Write(peeked); err != nil {
			return fmt.Errorf("interception: replay peeked bytes: %w", err)
		}
	}
	client.SetReadDeadline(time.Time{}) //nolint:errcheck // splice runs unbounded
	upstream.SetDeadline(time.Time{})   //nolint:errcheck // splice runs unbounded
	it.stats.spliceErrors.Add(it.srv.Splice(client, nil, upstream))
	return nil
}

// dialRaw dials the upstream TCP leg and tracks the conn for Close.
func (it *Interceptor) dialRaw(addr string, deadline time.Time) (net.Conn, error) {
	upstream, err := it.srv.Dial(func() (net.Conn, error) { return it.cfg.DialUpstream(addr) })
	if err != nil {
		return nil, fmt.Errorf("interception: dial upstream %s: %w", addr, err)
	}
	upstream.SetDeadline(deadline) //nolint:errcheck // cleared before splicing
	return upstream, nil
}

// bump terminates the client's TLS with a minted leaf after checking the
// upstream's revocation status against the RITM dictionary.
func (it *Interceptor) bump(sess *Session, client net.Conn, rawHello []byte, host, target string, deadline time.Time) error {
	if target == "" {
		return errors.New("interception: transparent connection with no Target configured")
	}
	rawUp, err := it.dialRaw(target, deadline)
	if err != nil {
		return err
	}
	defer it.srv.Release(rawUp)

	upCfg := it.upstream.Clone()
	upCfg.ServerName = host
	upstream := tls.Client(rawUp, upCfg)
	if err := upstream.Handshake(); err != nil {
		return fmt.Errorf("interception: upstream handshake %s: %w", host, err)
	}
	cs := upstream.ConnectionState()
	sess.Resumed = cs.DidResume
	if cs.DidResume {
		it.stats.resumptions.Add(1)
	}

	// Resolve the upstream's dictionary identity: from the wire when a
	// certificate crossed it, from the identity cache on abbreviated
	// handshakes (the §III resumption support, on real TLS).
	id, fromCache, err := it.resolveIdentity(host, &cs)
	if err != nil {
		return fmt.Errorf("interception: %s: %w", host, err)
	}
	sess.IdentityFromCache = fromCache
	sess.CA, sess.Serial = id.ca, id.sn

	// The bump decision: ra.Store.Status on a real handshake.
	st, _, serr := it.cfg.Status.Status(id.ca, id.sn)
	switch {
	case serr != nil:
		// Unknown CA or unsynchronized replica: bump without status
		// metadata, the client's policy stays in charge (§VII-F).
		sess.StatusErr = serr
	case st.Proof != nil && st.Proof.Kind == dictionary.ProofPresence:
		// Revoked: refuse before any application byte flows.
		sess.Revoked = true
		if st.Root != nil {
			sess.StatusRootN = st.Root.N
		}
		it.stats.refused.Add(1)
		it.emitSession(sess)
		writeAlert(client, alertCertificateRevoked) //nolint:errcheck // refusal is best-effort
		return &RefusedError{Host: host, CA: id.ca, Serial: id.sn}
	default:
		if st.Root != nil {
			sess.StatusRootN = st.Root.N
		}
	}

	minted, err := it.cfg.Minter.CertFor(host, id.leaf)
	if err != nil {
		return fmt.Errorf("interception: mint for %s: %w", host, err)
	}
	down := tls.Server(newReplayConn(client, rawHello), &tls.Config{
		MinVersion: tls.VersionTLS12,
		GetCertificate: func(*tls.ClientHelloInfo) (*tls.Certificate, error) {
			return minted, nil
		},
	})
	if err := down.Handshake(); err != nil {
		return fmt.Errorf("interception: client handshake %s: %w", host, err)
	}
	it.stats.bumped.Add(1)
	it.emitSession(sess)

	client.SetReadDeadline(time.Time{}) //nolint:errcheck // splice runs unbounded
	rawUp.SetDeadline(time.Time{})      //nolint:errcheck // splice runs unbounded
	it.stats.spliceErrors.Add(it.srv.Splice(down, nil, upstream))
	return nil
}

// resolveIdentity maps the upstream handshake to a dictionary identity,
// caching per host so resumed handshakes keep working.
func (it *Interceptor) resolveIdentity(host string, cs *tls.ConnectionState) (upstreamIdentity, bool, error) {
	// Prefer the cache on abbreviated handshakes: no Certificate message
	// crossed the wire, so the cached identity is the honest provenance
	// even when the TLS stack restored the peer chain from its own cache.
	if cs.DidResume {
		it.idmu.RLock()
		id, ok := it.idcache[host]
		it.idmu.RUnlock()
		if ok {
			return id, true, nil
		}
	}
	if len(cs.PeerCertificates) > 0 {
		leaf := cs.PeerCertificates[0]
		ca, sn, err := IdentityFromX509(leaf)
		if err != nil {
			return upstreamIdentity{}, false, err
		}
		id := upstreamIdentity{ca: ca, sn: sn, leaf: leaf}
		it.idmu.Lock()
		if len(it.idcache) >= identityCacheCap {
			for k := range it.idcache { // cap guard; eviction order does not matter
				delete(it.idcache, k)
				break
			}
		}
		it.idcache[host] = id
		it.idmu.Unlock()
		return id, cs.DidResume, nil
	}
	return upstreamIdentity{}, false, errors.New("upstream presented no certificate and no cached identity")
}

// IdentityFromX509 maps a real X.509 leaf to its RITM dictionary identity:
// the issuing CA's common name selects the dictionary, the RFC 5280 serial
// (minimal big-endian, exactly the dictionary's canonical form) is the key.
func IdentityFromX509(leaf *x509.Certificate) (dictionary.CAID, serial.Number, error) {
	ca := dictionary.CAID(leaf.Issuer.CommonName)
	if ca == "" {
		return "", serial.Number{}, errors.New("interception: upstream leaf has no issuer common name")
	}
	if leaf.SerialNumber == nil || leaf.SerialNumber.Sign() < 0 {
		return "", serial.Number{}, errors.New("interception: upstream leaf has no usable serial")
	}
	b := leaf.SerialNumber.Bytes() // minimal big-endian; empty for zero
	if len(b) == 0 {
		b = []byte{0}
	}
	sn, err := serial.New(b)
	if err != nil {
		return "", serial.Number{}, fmt.Errorf("interception: upstream serial: %w", err)
	}
	return ca, sn, nil
}

// SerialFromBig converts a math/big serial (as x509 templates carry) to the
// dictionary's canonical form; the inverse direction of IdentityFromX509,
// used by tests and deployments registering real certificates with a CA.
func SerialFromBig(v *big.Int) (serial.Number, error) {
	if v == nil || v.Sign() < 0 {
		return serial.Number{}, errors.New("interception: negative or nil serial")
	}
	b := v.Bytes()
	if len(b) == 0 {
		b = []byte{0}
	}
	return serial.New(b)
}
