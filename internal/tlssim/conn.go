package tlssim

import (
	"bufio"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"ritm/internal/cert"
	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
)

// Connection errors.
var (
	// ErrHandshakeFailed reports a handshake that could not complete.
	ErrHandshakeFailed = errors.New("tlssim: handshake failed")
	// ErrDecrypt reports an application record that failed authentication.
	ErrDecrypt = errors.New("tlssim: record decryption failed")
	// ErrStatusRejected reports that the status callback refused a
	// revocation status; the connection is terminated.
	ErrStatusRejected = errors.New("tlssim: revocation status rejected by policy")
)

// ConnectionState describes an established connection.
type ConnectionState struct {
	// ServerName is the name the client asked for.
	ServerName string
	// PeerChain is the server's certificate chain (nil on resumed
	// connections, where no Certificate message is sent).
	PeerChain cert.Chain
	// ServerCA identifies the CA that issued the server certificate; with
	// ServerSerial it selects the dictionary entry for revocation checks.
	ServerCA dictionary.CAID
	// ServerSerial is the server certificate's serial number.
	ServerSerial serial.Number
	// Resumed reports an abbreviated handshake.
	Resumed bool
	// RITMRequested reports that the ClientHello carried the RITM extension.
	RITMRequested bool
	// ServerDeploysRITM reports the server-side deployment confirmation
	// (§IV), authenticated by the handshake.
	ServerDeploysRITM bool
}

// StatusHandler consumes a raw revocation status injected by an on-path RA
// (a ContentRITMStatus record). Returning an error terminates the
// connection with a policy alert. The handler runs on the reading
// goroutine.
type StatusHandler func(raw []byte, state *ConnectionState) error

// Config configures a client or server connection. A Config may be shared
// across connections.
type Config struct {
	// Rand sources all randomness (nil = crypto/rand.Reader).
	Rand io.Reader
	// Time returns the current time (nil = time.Now); injected by tests and
	// virtual-clock experiments.
	Time func() time.Time

	// Pool anchors server chain validation (client side).
	Pool *cert.Pool
	// ServerName is the expected leaf subject (client side).
	ServerName string
	// RequestRITM adds the RITM extension to the ClientHello (Fig 3):
	// "I'm deploying RITM".
	RequestRITM bool
	// SessionCache enables client-side resumption when non-nil.
	SessionCache *ClientSessionCache
	// OnStatus receives RA-injected revocation statuses (client side).
	// If nil, status records are discarded.
	OnStatus StatusHandler

	// Chain is the server's certificate chain, leaf first (server side).
	Chain cert.Chain
	// Key is the server's private key; it must match Chain[0] (server side).
	Key *cryptoutil.Signer
	// AnnounceRITM adds the deployment-confirmation extension to the
	// ServerHello, used by the TLS-terminator deployment model (§IV).
	AnnounceRITM bool
	// TicketKey enables session-ticket resumption when non-nil.
	TicketKey *[32]byte
	// DisableSessionID turns off session-ID resumption (server side).
	DisableSessionID bool

	sessionsOnce sync.Once
	sessions     *serverSessionCache
}

func (c *Config) rand() io.Reader {
	if c.Rand != nil {
		return c.Rand
	}
	return rand.Reader
}

func (c *Config) now() time.Time {
	if c.Time != nil {
		return c.Time()
	}
	return time.Now()
}

func (c *Config) serverSessions() *serverSessionCache {
	c.sessionsOnce.Do(func() { c.sessions = newServerSessionCache(0) })
	return c.sessions
}

// Conn is a TLS-sim connection over an underlying net.Conn. Reads and
// writes are each serialized by their own mutex, so one reader and one
// writer goroutine may operate concurrently.
//
// Records are read through a buffer, and the handshake collects each flight
// (every message a side sends before it next waits for its peer) and sends
// it with one write: the bytes and their order are those of one record per
// write, only the segmentation differs.
type Conn struct {
	conn     net.Conn
	br       *bufio.Reader // records from conn
	cfg      *Config
	isClient bool

	hsMu   sync.Mutex
	hsDone bool
	hsErr  error
	state  ConnectionState

	in, out *aeadState

	readMu  sync.Mutex
	readBuf []byte // undelivered plaintext

	writeMu sync.Mutex
	flight  []byte // handshake records not yet written, under writeMu

	closeOnce sync.Once
	closeErr  error
}

// Client wraps conn as the client side of a TLS-sim connection.
func Client(conn net.Conn, cfg *Config) *Conn {
	return &Conn{conn: conn, br: bufio.NewReader(conn), cfg: cfg, isClient: true}
}

// Server wraps conn as the server side of a TLS-sim connection.
func Server(conn net.Conn, cfg *Config) *Conn {
	return &Conn{conn: conn, br: bufio.NewReader(conn), cfg: cfg}
}

// Dial connects to addr and performs the client handshake.
func Dial(network, addr string, cfg *Config) (*Conn, error) {
	raw, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("tlssim dial: %w", err)
	}
	c := Client(raw, cfg)
	if err := c.Handshake(); err != nil {
		raw.Close()
		return nil, err
	}
	return c, nil
}

// Handshake runs the handshake if it has not run yet.
func (c *Conn) Handshake() error {
	c.hsMu.Lock()
	defer c.hsMu.Unlock()
	if c.hsDone || c.hsErr != nil {
		return c.hsErr
	}
	var err error
	if c.isClient {
		err = c.clientHandshake()
	} else {
		err = c.serverHandshake()
	}
	if err == nil {
		err = c.flush()
	}
	if err != nil {
		c.hsErr = fmt.Errorf("%w: %w", ErrHandshakeFailed, err)
		c.sendAlert(alertHandshakeFailure)
		return c.hsErr
	}
	c.hsDone = true
	return nil
}

// ConnectionState returns the negotiated state; zero before the handshake.
func (c *Conn) ConnectionState() ConnectionState {
	c.hsMu.Lock()
	defer c.hsMu.Unlock()
	return c.state
}

// LocalAddr returns the underlying local address.
func (c *Conn) LocalAddr() net.Addr { return c.conn.LocalAddr() }

// RemoteAddr returns the underlying remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }

// SetReadDeadline sets the read deadline on the underlying connection.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// SetWriteDeadline sets the write deadline on the underlying connection.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.conn.SetWriteDeadline(t) }

// SetDeadline sets both deadlines on the underlying connection.
func (c *Conn) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// alertWriteTimeout bounds best-effort alert writes so that closing a
// connection never blocks on a peer that stopped reading (synchronous
// transports like net.Pipe would otherwise block forever).
const alertWriteTimeout = 100 * time.Millisecond

// Close sends a close-notify alert (best effort) and closes the transport.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.sendAlert(alertCloseNotify)
		c.closeErr = c.conn.Close()
	})
	return c.closeErr
}

// Abort closes the connection with a policy alert; the RITM client uses it
// when a revocation status is missing, stale, or proves revocation.
func (c *Conn) Abort() error {
	c.closeOnce.Do(func() {
		c.sendAlert(alertRITMPolicy)
		c.closeErr = c.conn.Close()
	})
	return c.closeErr
}

// sendAlert writes the alert after whatever flight is still pending, so a
// failed handshake sends the same records in the same order.
func (c *Conn) sendAlert(reason alertReason) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	out, _ := AppendRecord(c.flight, alertRecord(reason))
	c.flight = nil
	_ = c.conn.SetWriteDeadline(time.Now().Add(alertWriteTimeout))
	_, _ = c.conn.Write(out)
	_ = c.conn.SetWriteDeadline(time.Time{})
}

// Write encrypts and sends application data, fragmenting into records.
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.Handshake(); err != nil {
		return 0, err
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	const maxPlain = MaxRecordPayload - 256 // leave room for AEAD expansion
	written := 0
	for len(p) > 0 {
		chunk := p
		if len(chunk) > maxPlain {
			chunk = chunk[:maxPlain]
		}
		sealed := c.out.seal(chunk)
		if err := WriteRecord(c.conn, Record{Type: ContentApplicationData, Payload: sealed}); err != nil {
			return written, err
		}
		written += len(chunk)
		p = p[len(chunk):]
	}
	return written, nil
}

// Read returns decrypted application data. RA-injected status records are
// dispatched to the OnStatus handler transparently: application code never
// sees them (Fig 3 step 5: the client "removes the status from the
// message"). If the handler rejects a status, Read fails and the
// connection is aborted.
func (c *Conn) Read(p []byte) (int, error) {
	if err := c.Handshake(); err != nil {
		return 0, err
	}
	c.readMu.Lock()
	defer c.readMu.Unlock()
	for len(c.readBuf) == 0 {
		rec, err := ReadRecord(c.br)
		if err != nil {
			return 0, err
		}
		switch rec.Type {
		case ContentApplicationData:
			pt, err := c.in.open(rec.Payload)
			if err != nil {
				c.sendAlert(alertDecryptError)
				return 0, err
			}
			c.readBuf = pt
		case ContentRITMStatus:
			if err := c.handleStatus(rec.Payload); err != nil {
				c.Abort()
				return 0, err
			}
		case ContentAlert:
			return 0, parseAlert(rec.Payload)
		default:
			return 0, fmt.Errorf("%w: unexpected %v record", ErrBadRecord, rec.Type)
		}
	}
	n := copy(p, c.readBuf)
	c.readBuf = c.readBuf[n:]
	return n, nil
}

func (c *Conn) handleStatus(raw []byte) error {
	if c.cfg.OnStatus == nil {
		return nil // non-RITM-aware endpoint: transparently discarded
	}
	// Read c.state directly: during the handshake this runs on the
	// handshaking goroutine (which owns the state); afterwards the state is
	// immutable. Taking hsMu here would self-deadlock mid-handshake.
	st := c.state
	if err := c.cfg.OnStatus(raw, &st); err != nil {
		return fmt.Errorf("%w: %v", ErrStatusRejected, err)
	}
	return nil
}

// readHandshakeMessage sends the pending flight, then reads records until a
// handshake message arrives, dispatching interleaved status records (an RA
// may inject its status between the server's handshake flights) and failing
// on alerts. The message is appended to the transcript and must be one of
// the expected types.
func (c *Conn) readHandshakeMessage(tr *transcript, expect ...HandshakeType) (Handshake, error) {
	if err := c.flush(); err != nil {
		return Handshake{}, err
	}
	for {
		rec, err := ReadRecord(c.br)
		if err != nil {
			return Handshake{}, err
		}
		switch rec.Type {
		case ContentHandshake:
			msg, err := ParseHandshake(rec.Payload)
			if err != nil {
				return Handshake{}, err
			}
			for _, want := range expect {
				if msg.Type == want {
					tr.add(msg)
					return msg, nil
				}
			}
			return Handshake{}, fmt.Errorf("%w: got %v, want one of %v", ErrBadHandshake, msg.Type, expect)
		case ContentRITMStatus:
			if err := c.handleStatus(rec.Payload); err != nil {
				return Handshake{}, err
			}
		case ContentAlert:
			return Handshake{}, parseAlert(rec.Payload)
		default:
			return Handshake{}, fmt.Errorf("%w: %v record during handshake", ErrBadRecord, rec.Type)
		}
	}
}

// writeHandshake adds one handshake message to the transcript and to the
// pending flight, which goes out on the next read or when Handshake returns.
func (c *Conn) writeHandshake(tr *transcript, msg Handshake) error {
	tr.add(msg)
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	var err error
	c.flight, err = AppendRecord(c.flight, Record{Type: ContentHandshake, Payload: msg.Encode()})
	return err
}

// flush writes the pending flight with one write.
func (c *Conn) flush() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if len(c.flight) == 0 {
		return nil
	}
	out := c.flight
	c.flight = nil
	if _, err := c.conn.Write(out); err != nil {
		return fmt.Errorf("write handshake flight: %w", err)
	}
	return nil
}

func (c *Conn) setKeys(master [masterSecretLen]byte, clientRandom, serverRandom []byte) error {
	keys := deriveSessionKeys(master, clientRandom, serverRandom)
	var inKey, outKey [32]byte
	if c.isClient {
		inKey, outKey = keys.serverWrite, keys.clientWrite
	} else {
		inKey, outKey = keys.clientWrite, keys.serverWrite
	}
	in, err := newAEADState(inKey)
	if err != nil {
		return err
	}
	out, err := newAEADState(outKey)
	if err != nil {
		return err
	}
	c.in, c.out = in, out
	return nil
}

// clientHandshake implements both the full and abbreviated client flows.
func (c *Conn) clientHandshake() error {
	var tr transcript
	var hello ClientHello
	if _, err := io.ReadFull(c.cfg.rand(), hello.Random[:]); err != nil {
		return fmt.Errorf("client random: %w", err)
	}
	if c.cfg.RequestRITM {
		hello.Extensions = append(hello.Extensions, Extension{Type: ExtRITMSupport})
	}
	cached, haveSession := c.cfg.SessionCache.get(c.cfg.ServerName)
	if haveSession {
		hello.SessionID = cached.sessionID
		if len(cached.ticket) > 0 {
			hello.Extensions = append(hello.Extensions, Extension{Type: ExtSessionTicket, Data: cached.ticket})
		}
	}
	if err := c.writeHandshake(&tr, hello.Marshal()); err != nil {
		return err
	}

	msg, err := c.readHandshakeMessage(&tr, TypeServerHello)
	if err != nil {
		return err
	}
	sh, err := ParseServerHello(msg.Body)
	if err != nil {
		return err
	}
	c.state = ConnectionState{
		ServerName:        c.cfg.ServerName,
		RITMRequested:     c.cfg.RequestRITM,
		ServerDeploysRITM: sh.DeploysRITM(),
	}

	if sh.Resumed {
		if !haveSession {
			return fmt.Errorf("%w: server resumed a session we do not hold", ErrBadHandshake)
		}
		return c.clientFinishResumed(&tr, cached, &hello, sh)
	}
	if haveSession {
		// Resumption declined; fall through to a full handshake and drop
		// the stale session.
		c.cfg.SessionCache.forget(c.cfg.ServerName)
	}

	// Full handshake: Certificate, ServerKeyExchange, ServerHelloDone.
	msg, err = c.readHandshakeMessage(&tr, TypeCertificate)
	if err != nil {
		return err
	}
	certMsg, err := ParseCertificateMsg(msg.Body)
	if err != nil {
		return err
	}
	leaf := certMsg.Chain.Leaf()
	if leaf == nil {
		return fmt.Errorf("%w: empty certificate chain", ErrBadHandshake)
	}
	if c.cfg.Pool == nil {
		return fmt.Errorf("tlssim: client config has no certificate pool")
	}
	if _, err := c.cfg.Pool.VerifyChain(certMsg.Chain, c.cfg.now().Unix()); err != nil {
		c.sendAlert(alertBadCertificate)
		return err
	}
	if c.cfg.ServerName != "" && leaf.Subject != c.cfg.ServerName {
		c.sendAlert(alertBadCertificate)
		return fmt.Errorf("%w: certificate for %q, want %q", cert.ErrBadChain, leaf.Subject, c.cfg.ServerName)
	}
	c.state.PeerChain = certMsg.Chain
	c.state.ServerCA = leaf.Issuer
	c.state.ServerSerial = leaf.SerialNumber

	msg, err = c.readHandshakeMessage(&tr, TypeServerKeyExchange)
	if err != nil {
		return err
	}
	ske, err := ParseServerKeyExchange(msg.Body)
	if err != nil {
		return err
	}
	payload := keyExchangePayload(hello.Random[:], sh.Random[:], ske.Public)
	if err := cryptoutil.Verify(leaf.PublicKey, payload, ske.Signature); err != nil {
		return fmt.Errorf("server key exchange: %w", err)
	}
	if _, err = c.readHandshakeMessage(&tr, TypeServerHelloDone); err != nil {
		return err
	}

	// Client key exchange and Finished.
	priv, err := ecdhKeypair(c.cfg.rand())
	if err != nil {
		return err
	}
	if err := c.writeHandshake(&tr, (&ClientKeyExchange{Public: priv.PublicKey().Bytes()}).Marshal()); err != nil {
		return err
	}
	shared, err := ecdhShared(priv, ske.Public)
	if err != nil {
		return err
	}
	master := masterFromECDH(shared, hello.Random[:], sh.Random[:])
	fin := &Finished{VerifyData: finishedMAC(master, "client finished", tr.bytes())}
	if err := c.writeHandshake(&tr, fin.Marshal()); err != nil {
		return err
	}

	// Server's closing flight: optional NewSessionTicket, then Finished.
	var ticket []byte
	msg, err = c.readHandshakeMessage(&tr, TypeNewSessionTicket, TypeFinished)
	if err != nil {
		return err
	}
	if msg.Type == TypeNewSessionTicket {
		nst, err := ParseNewSessionTicket(msg.Body)
		if err != nil {
			return err
		}
		ticket = nst.Ticket
		if msg, err = c.readHandshakeMessage(&tr, TypeFinished); err != nil {
			return err
		}
	}
	sfin, err := ParseFinished(msg.Body)
	if err != nil {
		return err
	}
	// The server MACs the transcript up to (and including) the client's
	// Finished but not its own; replicate by MACing everything added before
	// this message. The transcript already includes the server Finished, so
	// recompute over the prefix.
	prefix := tr.bytes()[:len(tr.bytes())-len(msg.Encode())]
	if err := verifyFinishedMAC(master, "server finished", prefix, sfin.VerifyData); err != nil {
		return err
	}

	if err := c.setKeys(master, hello.Random[:], sh.Random[:]); err != nil {
		return err
	}
	c.cacheSession(leaf, master, sh.SessionID, ticket)
	return nil
}

// clientFinishResumed completes an abbreviated handshake.
func (c *Conn) clientFinishResumed(tr *transcript, cached *clientSession, hello *ClientHello, sh *ServerHello) error {
	master := cached.session.Master
	c.state.Resumed = true
	c.state.ServerCA = cached.session.ServerCA
	c.state.ServerSerial = cached.session.ServerSerial

	msg, err := c.readHandshakeMessage(tr, TypeNewSessionTicket, TypeFinished)
	if err != nil {
		return err
	}
	if msg.Type == TypeNewSessionTicket {
		nst, err := ParseNewSessionTicket(msg.Body)
		if err != nil {
			return err
		}
		// Store the refreshed ticket as a new cache entry rather than
		// mutating the shared one.
		c.cfg.SessionCache.put(c.cfg.ServerName, &clientSession{
			session:   cached.session,
			sessionID: cached.sessionID,
			ticket:    nst.Ticket,
		})
		if msg, err = c.readHandshakeMessage(tr, TypeFinished); err != nil {
			return err
		}
	}
	sfin, err := ParseFinished(msg.Body)
	if err != nil {
		return err
	}
	prefix := tr.bytes()[:len(tr.bytes())-len(msg.Encode())]
	if err := verifyFinishedMAC(master, "server finished", prefix, sfin.VerifyData); err != nil {
		return err
	}
	fin := &Finished{VerifyData: finishedMAC(master, "client finished", tr.bytes())}
	if err := c.writeHandshake(tr, fin.Marshal()); err != nil {
		return err
	}
	return c.setKeys(master, hello.Random[:], sh.Random[:])
}

func (c *Conn) cacheSession(leaf *cert.Certificate, master [masterSecretLen]byte, sessionID, ticket []byte) {
	if c.cfg.SessionCache == nil || c.cfg.ServerName == "" {
		return
	}
	if len(sessionID) == 0 && len(ticket) == 0 {
		return
	}
	c.cfg.SessionCache.put(c.cfg.ServerName, &clientSession{
		session: Session{
			Master:       master,
			ServerName:   c.cfg.ServerName,
			ServerCA:     leaf.Issuer,
			ServerSerial: leaf.SerialNumber,
		},
		sessionID: sessionID,
		ticket:    ticket,
	})
}

// serverHandshake implements both the full and abbreviated server flows.
func (c *Conn) serverHandshake() error {
	if len(c.cfg.Chain) == 0 || c.cfg.Key == nil {
		return fmt.Errorf("tlssim: server config missing chain or key")
	}
	var tr transcript
	msg, err := c.readHandshakeMessage(&tr, TypeClientHello)
	if err != nil {
		return err
	}
	ch, err := ParseClientHello(msg.Body)
	if err != nil {
		return err
	}
	// Per Fig 3 the server ignores the RITM extension entirely; only the
	// TLS-terminator deployment (AnnounceRITM) reacts to the handshake.
	c.state = ConnectionState{RITMRequested: ch.SupportsRITM()}

	// Attempt resumption: ticket first (stateless), then session ID.
	var (
		resumed Session
		ok      bool
	)
	if ticket, has := ch.SessionTicket(); has && c.cfg.TicketKey != nil {
		if s, err := openTicket(*c.cfg.TicketKey, ticket); err == nil {
			resumed, ok = s, true
		}
	}
	if !ok && len(ch.SessionID) > 0 {
		resumed, ok = c.cfg.serverSessions().get(ch.SessionID)
	}

	var sh ServerHello
	if _, err := io.ReadFull(c.cfg.rand(), sh.Random[:]); err != nil {
		return fmt.Errorf("server random: %w", err)
	}
	if c.cfg.AnnounceRITM {
		sh.Extensions = append(sh.Extensions, Extension{Type: ExtRITMServerDeployed})
	}

	if ok {
		sh.Resumed = true
		sh.SessionID = ch.SessionID
		if err := c.writeHandshake(&tr, sh.Marshal()); err != nil {
			return err
		}
		c.state.Resumed = true
		c.state.ServerCA = resumed.ServerCA
		c.state.ServerSerial = resumed.ServerSerial
		sfin := &Finished{VerifyData: finishedMAC(resumed.Master, "server finished", tr.bytes())}
		if err := c.writeHandshake(&tr, sfin.Marshal()); err != nil {
			return err
		}
		msg, err := c.readHandshakeMessage(&tr, TypeFinished)
		if err != nil {
			return err
		}
		cfin, err := ParseFinished(msg.Body)
		if err != nil {
			return err
		}
		prefix := tr.bytes()[:len(tr.bytes())-len(msg.Encode())]
		if err := verifyFinishedMAC(resumed.Master, "client finished", prefix, cfin.VerifyData); err != nil {
			return err
		}
		return c.setKeys(resumed.Master, ch.Random[:], sh.Random[:])
	}

	// Full handshake.
	if !c.cfg.DisableSessionID {
		sh.SessionID = make([]byte, sessionIDLen)
		if _, err := io.ReadFull(c.cfg.rand(), sh.SessionID); err != nil {
			return fmt.Errorf("session id: %w", err)
		}
	}
	if err := c.writeHandshake(&tr, sh.Marshal()); err != nil {
		return err
	}
	if err := c.writeHandshake(&tr, (&CertificateMsg{Chain: c.cfg.Chain}).Marshal()); err != nil {
		return err
	}
	priv, err := ecdhKeypair(c.cfg.rand())
	if err != nil {
		return err
	}
	pub := priv.PublicKey().Bytes()
	ske := &ServerKeyExchange{
		Public:    pub,
		Signature: c.cfg.Key.Sign(keyExchangePayload(ch.Random[:], sh.Random[:], pub)),
	}
	if err := c.writeHandshake(&tr, ske.Marshal()); err != nil {
		return err
	}
	if err := c.writeHandshake(&tr, ServerHelloDone{}.Marshal()); err != nil {
		return err
	}

	msg, err = c.readHandshakeMessage(&tr, TypeClientKeyExchange)
	if err != nil {
		return err
	}
	cke, err := ParseClientKeyExchange(msg.Body)
	if err != nil {
		return err
	}
	shared, err := ecdhShared(priv, cke.Public)
	if err != nil {
		return err
	}
	master := masterFromECDH(shared, ch.Random[:], sh.Random[:])

	msg, err = c.readHandshakeMessage(&tr, TypeFinished)
	if err != nil {
		return err
	}
	cfin, err := ParseFinished(msg.Body)
	if err != nil {
		return err
	}
	prefix := tr.bytes()[:len(tr.bytes())-len(msg.Encode())]
	if err := verifyFinishedMAC(master, "client finished", prefix, cfin.VerifyData); err != nil {
		return err
	}

	leaf := c.cfg.Chain.Leaf()
	c.state.ServerCA = leaf.Issuer
	c.state.ServerSerial = leaf.SerialNumber
	session := Session{
		Master:       master,
		ServerName:   leaf.Subject,
		ServerCA:     leaf.Issuer,
		ServerSerial: leaf.SerialNumber,
	}
	if c.cfg.TicketKey != nil {
		ticket, err := sealTicket(c.cfg.rand(), *c.cfg.TicketKey, session)
		if err != nil {
			return err
		}
		nst := &NewSessionTicket{LifetimeSecs: 3600, Ticket: ticket}
		if err := c.writeHandshake(&tr, nst.Marshal()); err != nil {
			return err
		}
	}
	sfin := &Finished{VerifyData: finishedMAC(master, "server finished", tr.bytes())}
	if err := c.writeHandshake(&tr, sfin.Marshal()); err != nil {
		return err
	}
	if len(sh.SessionID) > 0 {
		c.cfg.serverSessions().put(sh.SessionID, session)
	}
	return c.setKeys(master, ch.Random[:], sh.Random[:])
}
