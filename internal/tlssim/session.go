package tlssim

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"io"
	"sync"

	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/wire"
)

// sessionIDLen is the length of server-assigned session identifiers.
const sessionIDLen = 16

// Session is the resumable state shared by both resumption mechanisms:
// the master secret plus the server certificate identity. The certificate
// identity is retained so that a resuming client still knows which CA
// dictionary its revocation statuses must come from, even though no
// Certificate message crosses the wire on an abbreviated handshake.
type Session struct {
	Master       [masterSecretLen]byte
	ServerName   string
	ServerCA     dictionary.CAID
	ServerSerial serial.Number
}

// ClientSessionCache stores resumable sessions per server name. The zero
// value is an empty cache; it is safe for concurrent use.
type ClientSessionCache struct {
	mu sync.Mutex
	m  map[string]*clientSession
}

type clientSession struct {
	session   Session
	sessionID []byte
	ticket    []byte
}

func (c *ClientSessionCache) put(serverName string, cs *clientSession) {
	if c == nil || serverName == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]*clientSession)
	}
	c.m[serverName] = cs
}

func (c *ClientSessionCache) get(serverName string) (*clientSession, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.m[serverName]
	return cs, ok
}

// forget drops a session (after a failed resumption).
func (c *ClientSessionCache) forget(serverName string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, serverName)
}

// serverSessionCache maps session IDs to sessions, with a crude size bound.
type serverSessionCache struct {
	mu  sync.Mutex
	m   map[string]Session
	max int
}

func newServerSessionCache(max int) *serverSessionCache {
	if max <= 0 {
		max = 4096
	}
	return &serverSessionCache{m: make(map[string]Session), max: max}
}

func (c *serverSessionCache) put(id []byte, s Session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= c.max {
		// Evict an arbitrary entry; map iteration order serves as a cheap
		// random replacement policy adequate for a simulator.
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[string(id)] = s
}

func (c *serverSessionCache) get(id []byte) (Session, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.m[string(id)]
	return s, ok
}

// Ticket sealing (RFC 5077 analogue): the server encrypts the session state
// under a ticket key it alone holds, making the ticket opaque to clients
// and middleboxes.

func encodeSession(s Session) []byte {
	e := wire.NewEncoder(96)
	e.Raw(s.Master[:])
	e.String(s.ServerName)
	e.String(string(s.ServerCA))
	e.BytesField(s.ServerSerial.Raw())
	return e.Bytes()
}

func decodeSession(buf []byte) (Session, error) {
	d := wire.NewDecoder(buf)
	var s Session
	copy(s.Master[:], d.Raw(masterSecretLen))
	s.ServerName = d.String()
	s.ServerCA = dictionary.CAID(d.String())
	raw := d.BytesCopy()
	if err := d.Finish(); err != nil {
		return Session{}, fmt.Errorf("decode session: %w", err)
	}
	if len(raw) > 0 {
		sn, err := serial.New(raw)
		if err != nil {
			return Session{}, fmt.Errorf("decode session serial: %w", err)
		}
		s.ServerSerial = sn
	}
	return s, nil
}

// sealTicket encrypts a session into a ticket under key.
func sealTicket(rng io.Reader, key [32]byte, s Session) ([]byte, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("ticket cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("ticket AEAD: %w", err)
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := io.ReadFull(rng, nonce); err != nil {
		return nil, fmt.Errorf("ticket nonce: %w", err)
	}
	return append(nonce, aead.Seal(nil, nonce, encodeSession(s), nil)...), nil
}

// openTicket decrypts a ticket. Any failure means "do a full handshake".
func openTicket(key [32]byte, ticket []byte) (Session, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return Session{}, fmt.Errorf("ticket cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return Session{}, fmt.Errorf("ticket AEAD: %w", err)
	}
	if len(ticket) < aead.NonceSize() {
		return Session{}, fmt.Errorf("%w: short ticket", ErrBadHandshake)
	}
	pt, err := aead.Open(nil, ticket[:aead.NonceSize()], ticket[aead.NonceSize():], nil)
	if err != nil {
		return Session{}, fmt.Errorf("%w: ticket does not decrypt", ErrBadHandshake)
	}
	return decodeSession(pt)
}
