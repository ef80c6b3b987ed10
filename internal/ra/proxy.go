package ra

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ritm/internal/cert"
	"ritm/internal/dictionary"
	"ritm/internal/interception"
	"ritm/internal/middlebox"
	"ritm/internal/tlssim"
)

// Proxy is the RA's data path: a TCP middlebox between clients and one
// upstream (a server, a load balancer, or the next RA). It realizes both
// deployment models of §IV — run it at a data-center ingress point (close
// to the servers) or on a client network's gateway (close to the clients).
//
// The proxy re-frames the TLS-sim record stream: every record is read,
// classified (DPI), and re-emitted, which lets the RA splice
// ContentRITMStatus records into the server→client direction without the
// TCP sequence-number surgery a packet-level middlebox would need. This is
// the in-stream delivery of §VIII (methods 1/3): the status travels on the
// client's existing connection and port, so NATs are no obstacle.
//
// Traffic that does not look like TLS is forwarded verbatim in both
// directions ("RAs are completely non-invasive for non-supported clients
// and protocols other than TLS", §VII-F).
type Proxy struct {
	ra   *RA
	srv  *middlebox.Server
	dial func() (net.Conn, error)
}

// firstBytesTimeout bounds the wait for the client's first bytes; tests
// shorten it.
var firstBytesTimeout = interception.DefaultHandshakeTimeout

// NewProxy starts an RA proxy listening on listenAddr and forwarding every
// connection to target. The returned proxy is already accepting.
func (ra *RA) NewProxy(listenAddr, target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("ra: listen %s: %w", listenAddr, err)
	}
	p := &Proxy{
		ra:   ra,
		srv:  middlebox.New(ln),
		dial: func() (net.Conn, error) { return net.Dial("tcp", target) },
	}
	p.srv.Start(p.handle)
	return p, nil
}

// Addr returns the proxy's listening address (clients connect here).
func (p *Proxy) Addr() net.Addr { return p.srv.Addr() }

// SetOnError installs a callback receiving per-connection data-path errors
// that the proxy absorbs (it never stops serving because one connection
// misbehaved). Safe to call at any time, including while serving; nil
// uninstalls.
func (p *Proxy) SetOnError(fn func(error)) { p.srv.SetOnError(fn) }

// Close stops accepting, closes every active connection, and waits for all
// handlers to exit.
func (p *Proxy) Close() error { return p.srv.Close() }

// handle runs one proxied connection to completion.
func (p *Proxy) handle(client net.Conn) error {
	p.ra.stats.connectionsTotal.Add(1)

	server, err := p.srv.Dial(p.dial)
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ra proxy: dial upstream: %w", err)
	}
	defer p.srv.Release(server)

	clientBuf := bufio.NewReader(client)

	// DPI first pass: does this even look like TLS? Non-TLS connections —
	// including a server that speaks first and a client that stays silent
	// past the deadline — are forwarded as opaque byte pipes.
	client.SetReadDeadline(time.Now().Add(firstBytesTimeout)) //nolint:errcheck // best effort
	hdr, err := clientBuf.Peek(RecordHeaderLen)
	client.SetReadDeadline(time.Time{}) //nolint:errcheck // the streams run unbounded
	if err != nil || !isRecord(hdr) {
		p.ra.stats.nonTLSConnections.Add(1)
		p.ra.stats.spliceErrors.Add(p.srv.Splice(client, clientBuf, server))
		return nil
	}

	sess := &proxySession{
		ra:     p.ra,
		tuple:  tupleOf(client),
		client: client,
		server: server,
		up:     recordPump{src: clientBuf, dst: bufio.NewWriter(server)},
		down:   recordPump{src: bufio.NewReader(server), dst: bufio.NewWriter(client)},
	}
	defer sess.teardown()

	errCh := make(chan error, 1)
	p.srv.Go(func() { errCh <- sess.clientToServer() })
	s2cErr := sess.serverToClient()
	// Unblock the other pump: its source or sink is about to go away.
	client.Close()
	server.Close()
	c2sErr := <-errCh
	if sess.clientAlerted && middlebox.Benign(c2sErr) && isWrite(s2cErr) {
		// The client refused the connection with an alert and closed its
		// half: writes toward it failing is the teardown it asked for.
		s2cErr = nil
	}
	for _, err := range []error{s2cErr, c2sErr} {
		if err != nil && !middlebox.Benign(err) {
			p.ra.stats.spliceErrors.Add(1)
			return err
		}
	}
	return nil
}

func isRecord(hdr []byte) bool {
	_, _, ok := DetectRecord(hdr)
	return ok
}

// isWrite reports whether err is a failed socket write.
func isWrite(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "write"
}

// recordPump re-frames one direction of a proxied connection. Records go
// out through a buffer that is flushed whenever the bytes already read
// from the source do not hold the next complete record: a flight the peer
// sent with one write leaves with one write, and no output is held while
// the pump waits on the network.
type recordPump struct {
	src *bufio.Reader
	dst *bufio.Writer
}

// next returns the next record from the source, first flushing what is
// pending unless that record is already buffered.
func (p *recordPump) next() (tlssim.Record, error) {
	if !recordBuffered(p.src) {
		if err := p.dst.Flush(); err != nil {
			return tlssim.Record{}, err
		}
	}
	rec, err := tlssim.ReadRecord(p.src)
	if err != nil {
		p.dst.Flush() //nolint:errcheck // best effort: the read error wins
	}
	return rec, err
}

// write queues rec for the sink, encoding it straight into the buffer's
// free space (tlssim.WriteRecord allocates a buffer per record).
func (p *recordPump) write(rec tlssim.Record) error {
	buf, err := tlssim.AppendRecord(p.dst.AvailableBuffer(), rec)
	if err != nil {
		return err
	}
	_, err = p.dst.Write(buf)
	return err
}

// recordBuffered reports whether br holds a whole record without reading.
func recordBuffered(br *bufio.Reader) bool {
	if br.Buffered() < RecordHeaderLen {
		return false
	}
	hdr, _ := br.Peek(RecordHeaderLen)
	return br.Buffered() >= RecordHeaderLen+(int(hdr[3])<<8|int(hdr[4]))
}

func tupleOf(client net.Conn) FourTuple {
	srcIP, srcPort := splitAddr(client.RemoteAddr())
	dstIP, dstPort := splitAddr(client.LocalAddr())
	return FourTuple{SrcIP: srcIP, SrcPort: srcPort, DstIP: dstIP, DstPort: dstPort}
}

func splitAddr(a net.Addr) (ip, port string) {
	if a == nil {
		return "", ""
	}
	host, p, err := net.SplitHostPort(a.String())
	if err != nil {
		return a.String(), ""
	}
	return host, p
}

// proxySession is the per-connection DPI state machine (Fig 3).
type proxySession struct {
	ra     *RA
	tuple  FourTuple
	client net.Conn
	server net.Conn
	// up carries client → server records, down server → client ones; each
	// is used only by its direction's goroutine.
	up, down recordPump

	mu    sync.Mutex
	state *ConnState // nil until a RITM ClientHello is seen
	// idents are the chain identities statuses are injected for: the leaf
	// first, then (with the §VIII chain-proof extension) every CA
	// certificate of the chain.
	idents []connIdentity
	// clientTicket is the resumption ticket offered in the ClientHello,
	// used to recover the certificate identity on abbreviated handshakes.
	clientTicket []byte
	// pendingSessionID is the session ID the server offered in a full
	// handshake; once the certificate identity is known it is remembered
	// for future resumptions.
	pendingSessionID []byte
	// clientAlerted records that the client sent an alert (a refusal,
	// such as the RITM policy alert). Only clientToServer writes it; handle
	// reads it after that pump has returned.
	clientAlerted bool
}

// setIdents records the identities to serve statuses for; the first one is
// the connection's Eq (4) identity.
func (s *proxySession) setIdents(st *ConnState, ids []connIdentity) {
	if len(ids) == 0 {
		return
	}
	s.mu.Lock()
	s.idents = ids
	s.mu.Unlock()
	st.setIdentity(ids[0].ca, ids[0].sn)
}

// statusIdents returns the identities to inject statuses for, falling back
// to the Eq (4) leaf identity.
func (s *proxySession) statusIdents(st *ConnState) []connIdentity {
	s.mu.Lock()
	ids := s.idents
	s.mu.Unlock()
	if len(ids) > 0 {
		return ids
	}
	if ca, sn := st.identity(); ca != "" {
		return []connIdentity{{ca: ca, sn: sn}}
	}
	return nil
}

func (s *proxySession) teardown() {
	s.mu.Lock()
	st := s.state
	s.mu.Unlock()
	if st != nil {
		s.ra.table.Remove(s.tuple)
	}
}

// clientToServer inspects the upstream direction: it watches for the RITM
// ClientHello extension (Fig 3 step 2) and forwards everything.
func (s *proxySession) clientToServer() error {
	for {
		rec, err := s.up.next()
		if err != nil {
			middlebox.HalfClose(s.server)
			return err
		}
		s.ra.stats.recordsInspected.Add(1)
		switch rec.Type {
		case tlssim.ContentHandshake:
			if msg, err := ParseHandshakeRecord(rec.Payload); err == nil && msg.Type == tlssim.TypeClientHello {
				s.onClientHello(msg.Body)
			}
		case tlssim.ContentAlert:
			s.clientAlerted = true
		}
		if err := s.up.write(rec); err != nil {
			return err
		}
	}
}

func (s *proxySession) onClientHello(body []byte) {
	ch, err := tlssim.ParseClientHello(body)
	if err != nil {
		return
	}
	if !ch.SupportsRITM() {
		return // not a supported connection; stay transparent
	}
	st := s.ra.table.Create(s.tuple)
	s.mu.Lock()
	s.state = st
	if ticket, ok := ch.SessionTicket(); ok {
		s.clientTicket = append([]byte(nil), ticket...)
	} else if len(ch.SessionID) > 0 {
		// Session-ID resumption: the offered ID doubles as the handle.
		s.clientTicket = append([]byte(nil), ch.SessionID...)
	}
	s.mu.Unlock()
	s.ra.stats.connectionsSupported.Add(1)
}

// serverToClient is the injection path: it tracks the handshake stage,
// resolves the certificate identity, and splices revocation-status records
// into the stream (Fig 3 steps 4 and 6).
func (s *proxySession) serverToClient() error {
	for {
		rec, err := s.down.next()
		if err != nil {
			middlebox.HalfClose(s.client)
			return err
		}
		s.ra.stats.recordsInspected.Add(1)

		st := s.currentState()
		if st == nil {
			// Unsupported connection: forward untouched.
			if err := s.down.write(rec); err != nil {
				return err
			}
			continue
		}

		switch rec.Type {
		case tlssim.ContentHandshake:
			if err := s.forwardHandshake(st, rec); err != nil {
				return err
			}
		case tlssim.ContentRITMStatus:
			if err := s.forwardUpstreamStatus(st, rec); err != nil {
				return err
			}
		case tlssim.ContentApplicationData:
			// §III step 6: piggyback a fresh status on the first
			// server→client record after ∆ elapsed.
			now := s.ra.now().Unix()
			if st.needsStatus(now, int64(s.ra.delta.Seconds())) {
				if s.injectStatuses(st) {
					st.markStatus(now)
				}
			}
			if err := s.down.write(rec); err != nil {
				return err
			}
		default:
			if err := s.down.write(rec); err != nil {
				return err
			}
		}
	}
}

func (s *proxySession) currentState() *ConnState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// forwardHandshake advances the Fig 3 state machine for one server→client
// handshake message and injects the first revocation status as soon as the
// certificate identity is known (step 4).
func (s *proxySession) forwardHandshake(st *ConnState, rec tlssim.Record) error {
	msg, err := ParseHandshakeRecord(rec.Payload)
	if err != nil {
		// Unparsable handshake data: forward and stop interpreting.
		return s.down.write(rec)
	}
	switch msg.Type {
	case tlssim.TypeServerHello:
		return s.onServerHello(st, rec, msg.Body)

	case tlssim.TypeCertificate:
		chain, err := ParseCertificates(msg.Body)
		if err != nil || chain.Leaf() == nil {
			return s.down.write(rec)
		}
		ids := s.identsForChain(chain)
		s.setIdents(st, ids)
		s.mu.Lock()
		if len(s.pendingSessionID) > 0 {
			s.ra.sessions.remember(s.pendingSessionID, ids)
		}
		s.mu.Unlock()
		if err := s.down.write(rec); err != nil {
			return err
		}
		// Step 4: append the revocation status(es) to the certificate
		// flight — one per chain element with the §VIII extension.
		if s.injectStatuses(st) {
			st.markStatus(s.ra.now().Unix())
		}
		return nil

	case tlssim.TypeNewSessionTicket:
		if nst, err := tlssim.ParseNewSessionTicket(msg.Body); err == nil {
			s.ra.sessions.remember(nst.Ticket, s.statusIdents(st))
		}
		return s.down.write(rec)

	case tlssim.TypeFinished:
		// Step 6: the server accepted the connection.
		st.setStage(StageEstablished)
		return s.down.write(rec)

	default:
		return s.down.write(rec)
	}
}

func (s *proxySession) onServerHello(st *ConnState, rec tlssim.Record, body []byte) error {
	st.setStage(StageServerHello)
	sh, err := tlssim.ParseServerHello(body)
	if err != nil {
		return s.down.write(rec)
	}
	if !sh.Resumed {
		// Full handshake: remember the offered session ID so that a later
		// resumption can be supported without a certificate on the wire.
		s.mu.Lock()
		s.pendingSessionID = append([]byte(nil), sh.SessionID...)
		s.mu.Unlock()
		return s.down.write(rec)
	}
	// Abbreviated handshake: recover the identities from the resumption
	// handle the client offered (§III, TLS resumption support).
	s.mu.Lock()
	handle := s.clientTicket
	s.mu.Unlock()
	if ids, ok := s.ra.sessions.lookup(handle); ok {
		s.setIdents(st, ids)
	}
	if err := s.down.write(rec); err != nil {
		return err
	}
	if ca, _ := st.identity(); ca != "" {
		if s.injectStatuses(st) {
			st.markStatus(s.ra.now().Unix())
		}
	}
	return nil
}

// identsForChain selects the identities to serve statuses for: the leaf
// always; with chain proofs, additionally every CA certificate except
// self-signed roots (a root cannot meaningfully prove its own absence from
// its own dictionary — revoking it requires the PKISN-style mechanism the
// paper cites).
func (s *proxySession) identsForChain(chain cert.Chain) []connIdentity {
	leaf := chain.Leaf()
	ids := []connIdentity{{ca: leaf.Issuer, sn: leaf.SerialNumber}}
	if !s.ra.chainProofs {
		return ids
	}
	for _, c := range chain[1:] {
		if c.Subject == string(c.Issuer) {
			continue // self-signed root
		}
		ids = append(ids, connIdentity{ca: c.Issuer, sn: c.SerialNumber})
	}
	return ids
}

// injectStatuses obtains the revocation status for every identity of the
// connection (the leaf, plus the chain's CA certificates when the §VIII
// extension is on) — from the per-∆ status cache on the overwhelmingly
// common repeated-certificate path — and splices the memoized encodings
// into the client-bound stream. It reports whether at least one status was
// written; failures (unknown CA, replica not yet synchronized) leave the
// stream untouched for that identity and the client's policy in charge.
func (s *proxySession) injectStatuses(st *ConnState) bool {
	wrote := false
	for _, id := range s.statusIdents(st) {
		_, encoded, err := s.ra.StatusEncoded(id.ca, id.sn)
		if err != nil {
			continue
		}
		rec := tlssim.Record{Type: tlssim.ContentRITMStatus, Payload: encoded}
		if err := s.down.write(rec); err != nil {
			return wrote
		}
		s.ra.stats.statusesInjected.Add(1)
		wrote = true
	}
	return wrote
}

// forwardUpstreamStatus applies the multiple-RA rule of §VIII: an RA adds a
// status only when missing and replaces one only if its own dictionary view
// is more recent; otherwise the upstream status passes through unchanged.
// The comparison is per identity: with chain proofs, an upstream status
// about the intermediate is only ever compared with (and replaced by) this
// RA's view of the same certificate — never the leaf's.
func (s *proxySession) forwardUpstreamStatus(st *ConnState, rec tlssim.Record) error {
	theirs, err := dictionary.DecodeStatus(rec.Payload)
	if err != nil {
		return s.down.write(rec)
	}
	id, ok := s.matchIdentity(st, theirs)
	if !ok {
		return s.down.write(rec)
	}
	ours, oursEncoded, ourErr := s.ra.StatusEncoded(id.ca, id.sn)
	if ourErr == nil && newerRoot(ours.Root, theirs.Root) {
		out := tlssim.Record{Type: tlssim.ContentRITMStatus, Payload: oursEncoded}
		if err := s.down.write(out); err != nil {
			return err
		}
		s.ra.stats.statusesReplaced.Add(1)
	} else {
		if err := s.down.write(rec); err != nil {
			return err
		}
		s.ra.stats.statusesForwarded.Add(1)
	}
	st.markStatus(s.ra.now().Unix())
	return nil
}

// matchIdentity resolves which of the connection's identities an upstream
// status concerns: the subject-and-CA match among the chain identities, or
// the leaf for subject-less statuses from the leaf's issuer.
func (s *proxySession) matchIdentity(st *ConnState, theirs *dictionary.Status) (connIdentity, bool) {
	ids := s.statusIdents(st)
	if len(ids) == 0 || theirs.Root == nil {
		return connIdentity{}, false
	}
	if theirs.Subject.IsZero() {
		if ids[0].ca == theirs.Root.CA {
			return ids[0], true
		}
		return connIdentity{}, false
	}
	for _, id := range ids {
		if id.ca == theirs.Root.CA && id.sn.Equal(theirs.Subject) {
			return id, true
		}
	}
	return connIdentity{}, false
}

// newerRoot reports whether a commits to a strictly more recent dictionary
// version than b.
func newerRoot(a, b *dictionary.SignedRoot) bool {
	if a == nil || b == nil {
		return a != nil && b == nil
	}
	if a.N != b.N {
		return a.N > b.N
	}
	return a.Time > b.Time
}
