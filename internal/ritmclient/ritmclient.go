// Package ritmclient implements the RITM-supported TLS client (§III steps
// 5–7, §V): it requests RITM protection in the ClientHello, verifies every
// revocation status an on-path RA injects (proof against the signed root,
// root signature against the trust pool, freshness against the 2∆ policy),
// and interrupts the connection — including long-established ones — when a
// fresh absence proof stops arriving or a presence proof shows the
// certificate revoked.
//
// The watchdog on established connections is what closes the race condition
// of §V: a connection set up seconds before its certificate was revoked is
// torn down within 2∆ rather than surviving until it naturally ends.
package ritmclient

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ritm/internal/cert"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/tlssim"
)

// Errors returned by the RITM client.
var (
	// ErrRevoked reports a valid presence proof: the server certificate is
	// revoked and the connection must not be used.
	ErrRevoked = errors.New("ritmclient: server certificate is revoked")
	// ErrNoStatus reports that no revocation status arrived during the
	// handshake although policy requires one (blocking/MITM indication, §V).
	ErrNoStatus = errors.New("ritmclient: no revocation status received")
	// ErrStatusExpired reports that an established connection went longer
	// than 2∆ without a fresh status (§III step 7).
	ErrStatusExpired = errors.New("ritmclient: revocation status expired")
	// ErrWrongCertificate reports a status that is not about the server
	// certificate of this connection.
	ErrWrongCertificate = errors.New("ritmclient: status is for a different certificate")
	// ErrUnknownCA reports a status from a CA outside the trust pool.
	ErrUnknownCA = errors.New("ritmclient: status from unknown CA")
	// ErrDowngrade reports a missing server-side deployment confirmation
	// when policy demands one (§IV/§V downgrade protection).
	ErrDowngrade = errors.New("ritmclient: server did not confirm RITM deployment")
)

// Config configures the RITM client.
type Config struct {
	// Pool anchors both certificate chains and dictionary roots.
	Pool *cert.Pool
	// Delta is the fallback ∆ when the CA certificate does not carry one.
	// The effective ∆ for freshness policy comes from the signed root
	// itself (each CA expresses its own ∆, §VIII "Local ∆ parameter").
	Delta time.Duration
	// RequireStatus makes the handshake fail unless at least one valid
	// status arrived before the first application read/write. This is the
	// bootstrapped client of §IV/§V: it knows an RA is on path, so a
	// missing status is an attack, not an unprotected network.
	RequireStatus bool
	// RequireServerDeployment additionally demands the handshake-protected
	// ServerHello confirmation (TLS-terminator deployment model, §IV).
	RequireServerDeployment bool
	// WatchInterval is how often the established-connection watchdog checks
	// staleness. Zero selects ∆/2 (capped at one second minimum).
	WatchInterval time.Duration
	// Now is the clock (nil = time.Now).
	Now func() time.Time
	// SessionCache enables TLS resumption when non-nil.
	SessionCache *tlssim.ClientSessionCache
}

func (c *Config) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

// Verifier checks revocation statuses for one connection and tracks their
// freshness over the connection's lifetime. It is safe for concurrent use
// (the reading goroutine updates it, the watchdog reads it).
type Verifier struct {
	cfg *Config

	mu         sync.Mutex
	validCount int
	lastValid  time.Time
	lastDelta  time.Duration
	revoked    bool
}

// NewVerifier creates a verifier for one connection under cfg.
func NewVerifier(cfg *Config) *Verifier {
	return &Verifier{cfg: cfg, lastValid: cfg.now()}
}

// Handle is the tlssim.StatusHandler: it decodes and verifies one injected
// revocation status (§III step 5). A verification failure or a presence
// proof returns an error, which makes the TLS layer abort the connection.
func (v *Verifier) Handle(raw []byte, state *tlssim.ConnectionState) error {
	status, err := dictionary.DecodeStatus(raw)
	if err != nil {
		return fmt.Errorf("ritmclient: decode status: %w", err)
	}
	return v.verify(status, state)
}

func (v *Verifier) verify(status *dictionary.Status, state *tlssim.ConnectionState) error {
	if status.Root == nil {
		return fmt.Errorf("%w: status without signed root", dictionary.ErrBadProof)
	}
	// 5b prerequisite: the status must be about one of this connection's
	// certificates. Statuses carrying a subject serial are routed to the
	// matching chain element (§VIII "Certificate chains"); bare statuses
	// must be about the leaf.
	subject, pub, err := v.routeStatus(status, state)
	if err != nil {
		return err
	}
	// 5b + 5c: proof against signed root, signature, freshness within 2∆.
	res, err := status.CheckWith(subject, pub, v.cfg.now().Unix(), v.cfg.Pool.Verify)
	if err != nil {
		return err
	}
	if res == dictionary.CheckRevoked {
		v.mu.Lock()
		v.revoked = true
		v.mu.Unlock()
		return fmt.Errorf("%w: serial %v (CA %s)", ErrRevoked, subject, status.Root.CA)
	}
	v.mu.Lock()
	v.validCount++
	v.lastValid = v.cfg.now()
	v.lastDelta = status.Root.Delta()
	v.mu.Unlock()
	return nil
}

// routeStatus resolves which certificate serial the status is about and
// which public key verifies its signed root: the leaf by default, or —
// when the status names a subject — the chain element whose issuer and
// serial match. A status that matches nothing on this connection is
// rejected: accepting a proof about an unrelated certificate would tell
// the client nothing about its peer.
//
// The verification key comes from the next chain element when the issuing
// CA is an intermediate (its key was already validated by the standard
// chain check of step 5a) and from the trust pool for roots and for
// resumed connections where no chain was exchanged.
func (v *Verifier) routeStatus(status *dictionary.Status, state *tlssim.ConnectionState) (serial.Number, ed25519.PublicKey, error) {
	matchIndex := -1
	switch {
	case status.Subject.IsZero():
		if state.ServerCA == "" || status.Root.CA != state.ServerCA {
			return serial.Number{}, nil, fmt.Errorf("%w: status from %s, certificate issued by %s",
				ErrWrongCertificate, status.Root.CA, state.ServerCA)
		}
		status.Subject = state.ServerSerial
		matchIndex = 0

	case status.Root.CA == state.ServerCA && status.Subject.Equal(state.ServerSerial):
		// Leaf match works even on resumed connections.
		matchIndex = 0

	default:
		for i, c := range state.PeerChain {
			if c.Issuer == status.Root.CA && c.SerialNumber.Equal(status.Subject) {
				matchIndex = i
				break
			}
		}
		if matchIndex < 0 {
			return serial.Number{}, nil, fmt.Errorf("%w: status about %v from %s matches no chain certificate",
				ErrWrongCertificate, status.Subject, status.Root.CA)
		}
	}
	if matchIndex+1 < len(state.PeerChain) {
		return status.Subject, state.PeerChain[matchIndex+1].PublicKey, nil
	}
	pub, ok := v.cfg.Pool.CAKey(status.Root.CA)
	if !ok {
		return serial.Number{}, nil, fmt.Errorf("%w: %s", ErrUnknownCA, status.Root.CA)
	}
	return status.Subject, pub, nil
}

// ValidCount returns how many valid absence proofs have been accepted.
func (v *Verifier) ValidCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.validCount
}

// Revoked reports whether a valid presence proof was seen.
func (v *Verifier) Revoked() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.revoked
}

// Expired reports whether the last valid status is older than 2∆ at time
// now — the client-side interruption condition of §III step 7.
func (v *Verifier) Expired(now time.Time) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	delta := v.lastDelta
	if delta == 0 {
		delta = v.cfg.Delta
	}
	if delta == 0 {
		return false // no policy configured and none learned yet
	}
	return now.Sub(v.lastValid) > 2*delta
}

// Conn is a RITM-protected connection: a tlssim.Conn plus the verifier and
// the staleness watchdog.
type Conn struct {
	*tlssim.Conn
	verifier *Verifier
	expired  atomic.Bool // the watchdog aborted the connection

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Verifier exposes the connection's status verifier (tests and examples
// read its counters).
func (c *Conn) Verifier() *Verifier { return c.verifier }

// Read reads application data. Once the watchdog has interrupted the
// connection, the error matches ErrStatusExpired.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	return n, c.wrapExpired(err)
}

// Write writes application data. Once the watchdog has interrupted the
// connection, the error matches ErrStatusExpired.
func (c *Conn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	return n, c.wrapExpired(err)
}

func (c *Conn) wrapExpired(err error) error {
	if err != nil && c.expired.Load() {
		return fmt.Errorf("%w: %w", ErrStatusExpired, err)
	}
	return err
}

// Close stops the watchdog and closes the underlying connection.
func (c *Conn) Close() error {
	c.stopWatchdog()
	return c.Conn.Close()
}

func (c *Conn) stopWatchdog() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// watchdog interrupts the connection when the status goes stale (§III:
// "the connection is interrupted by the client, when a fresh absence proof
// is not provided").
func (c *Conn) watchdog(interval time.Duration, now func() time.Time) {
	defer close(c.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if c.verifier.Expired(now()) {
				c.expired.Store(true)
				c.Conn.Abort()
				return
			}
		case <-c.stop:
			return
		}
	}
}

// Dial establishes a RITM-protected TLS-sim connection to addr. The
// handshake requests RITM protection; every injected status is verified;
// and if cfg.RequireStatus is set, the connection fails unless a valid
// status arrived with the handshake.
func Dial(network, addr, serverName string, cfg *Config) (*Conn, error) {
	if cfg == nil || cfg.Pool == nil {
		return nil, fmt.Errorf("ritmclient: config with a certificate pool is required")
	}
	verifier := NewVerifier(cfg)
	tcfg := &tlssim.Config{
		Pool:         cfg.Pool,
		ServerName:   serverName,
		RequestRITM:  true,
		OnStatus:     verifier.Handle,
		SessionCache: cfg.SessionCache,
		Time:         cfg.Now,
	}
	raw, err := tlssim.Dial(network, addr, tcfg)
	if err != nil {
		return nil, err
	}
	if err := checkPostHandshake(raw, verifier, cfg); err != nil {
		raw.Abort()
		return nil, err
	}
	c := &Conn{
		Conn:     raw,
		verifier: verifier,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	interval := cfg.WatchInterval
	if interval == 0 {
		interval = cfg.Delta / 2
		if interval < time.Second {
			interval = time.Second
		}
	}
	go c.watchdog(interval, cfg.now)
	return c, nil
}

// checkPostHandshake enforces the handshake-time policy: deployment
// confirmation (downgrade protection) and at-least-one-status.
func checkPostHandshake(conn *tlssim.Conn, verifier *Verifier, cfg *Config) error {
	state := conn.ConnectionState()
	if cfg.RequireServerDeployment && !state.ServerDeploysRITM {
		return ErrDowngrade
	}
	if cfg.RequireStatus && verifier.ValidCount() == 0 {
		return ErrNoStatus
	}
	return nil
}
