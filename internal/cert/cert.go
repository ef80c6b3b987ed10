// Package cert implements the certificate substrate RITM operates on: a
// simplified X.509 equivalent with exactly the fields the paper's protocol
// touches — a per-CA serial number (RFC 5280 style, the dictionary key), an
// issuer identifier (which selects the dictionary), a validity period, an
// Ed25519 subject key, and an issuer signature.
//
// Certificates are exchanged in plaintext during the TLS-sim negotiation so
// that a Revocation Agent can parse them in flight (§III "Validation"), and
// chains of any length are supported (§VIII "Certificate chains").
//
// Per §VIII ("Local ∆ parameter"), a CA certificate carries the CA's
// dissemination interval ∆ in a dedicated field, so clients and RAs learn
// the correct freshness cadence from material they must validate anyway.
package cert

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"

	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/wire"
)

// Errors returned by certificate validation.
var (
	// ErrExpired reports a certificate outside its validity window.
	ErrExpired = errors.New("cert: certificate expired or not yet valid")
	// ErrBadChain reports a chain whose links do not verify.
	ErrBadChain = errors.New("cert: invalid certificate chain")
	// ErrUntrusted reports a chain that does not end at a trusted root.
	ErrUntrusted = errors.New("cert: chain does not terminate at a trusted CA")
	// ErrNotCA reports an issuing certificate without CA capability.
	ErrNotCA = errors.New("cert: issuer certificate is not a CA certificate")
)

// signingContext domain-separates certificate signatures from the CA key's
// other uses (dictionary roots).
const signingContext = "RITM/certificate/v1"

// Certificate is a simplified X.509 certificate.
type Certificate struct {
	// SerialNumber is unique per issuer; it is the dictionary lookup key.
	SerialNumber serial.Number
	// Issuer identifies the CA that signed this certificate and therefore
	// the dictionary that holds its revocation status.
	Issuer dictionary.CAID
	// Subject is the entity the certificate binds the key to (a DNS name
	// for servers, the CA name for CA certificates).
	Subject string
	// NotBefore and NotAfter bound the validity period, Unix seconds.
	NotBefore, NotAfter int64
	// PublicKey is the subject's Ed25519 key.
	PublicKey ed25519.PublicKey
	// IsCA marks a certificate whose key may issue other certificates.
	IsCA bool
	// DeltaSecs is the CA's dissemination interval ∆ in seconds; meaningful
	// only on CA certificates (zero otherwise).
	DeltaSecs uint32
	// Signature is the issuer's signature over all fields above.
	Signature []byte
}

// signingPayload returns the bytes covered by the issuer signature.
func (c *Certificate) signingPayload() []byte {
	e := wire.NewEncoder(192)
	e.String(signingContext)
	e.BytesField(c.SerialNumber.Raw())
	e.String(string(c.Issuer))
	e.String(c.Subject)
	e.Int64(c.NotBefore)
	e.Int64(c.NotAfter)
	e.BytesField(c.PublicKey)
	e.Bool(c.IsCA)
	e.Uint32(c.DeltaSecs)
	return e.Bytes()
}

// Template carries the fields a caller chooses when requesting issuance.
type Template struct {
	SerialNumber serial.Number
	Subject      string
	NotBefore    int64
	NotAfter     int64
	PublicKey    ed25519.PublicKey
	IsCA         bool
	DeltaSecs    uint32
}

// Issue signs a certificate from the template under the issuer identity.
func Issue(issuer dictionary.CAID, issuerKey *cryptoutil.Signer, tmpl Template) (*Certificate, error) {
	if tmpl.SerialNumber.IsZero() {
		return nil, fmt.Errorf("cert: template missing serial number")
	}
	if len(tmpl.PublicKey) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("cert: template has bad public key size %d", len(tmpl.PublicKey))
	}
	if tmpl.NotAfter <= tmpl.NotBefore {
		return nil, fmt.Errorf("cert: empty validity window [%d, %d)", tmpl.NotBefore, tmpl.NotAfter)
	}
	c := &Certificate{
		SerialNumber: tmpl.SerialNumber,
		Issuer:       issuer,
		Subject:      tmpl.Subject,
		NotBefore:    tmpl.NotBefore,
		NotAfter:     tmpl.NotAfter,
		PublicKey:    append(ed25519.PublicKey(nil), tmpl.PublicKey...),
		IsCA:         tmpl.IsCA,
		DeltaSecs:    tmpl.DeltaSecs,
	}
	c.Signature = issuerKey.Sign(c.signingPayload())
	return c, nil
}

// SelfSigned issues a root CA certificate: issuer and subject key coincide.
func SelfSigned(ca dictionary.CAID, key *cryptoutil.Signer, notBefore, notAfter int64, deltaSecs uint32) (*Certificate, error) {
	sn := serial.FromUint64(1)
	return Issue(ca, key, Template{
		SerialNumber: sn,
		Subject:      string(ca),
		NotBefore:    notBefore,
		NotAfter:     notAfter,
		PublicKey:    key.Public(),
		IsCA:         true,
		DeltaSecs:    deltaSecs,
	})
}

// CheckSignature verifies the certificate's signature under the issuer key.
func (c *Certificate) CheckSignature(issuerPub ed25519.PublicKey) error {
	return c.checkSignature(issuerPub, cryptoutil.Verify)
}

func (c *Certificate) checkSignature(issuerPub ed25519.PublicKey, verify dictionary.VerifyFunc) error {
	if err := verify(issuerPub, c.signingPayload(), c.Signature); err != nil {
		return fmt.Errorf("certificate %v from %s: %w", c.SerialNumber, c.Issuer, err)
	}
	return nil
}

// CheckValidity verifies the validity window against now (Unix seconds).
func (c *Certificate) CheckValidity(now int64) error {
	if now < c.NotBefore || now >= c.NotAfter {
		return fmt.Errorf("%w: valid [%d, %d), now %d", ErrExpired, c.NotBefore, c.NotAfter, now)
	}
	return nil
}

// Encode serializes the certificate.
func (c *Certificate) Encode() []byte {
	e := wire.NewEncoder(256)
	c.EncodeTo(e)
	return e.Bytes()
}

// EncodeTo appends the certificate's encoding to an encoder; used by chain
// and handshake encodings.
func (c *Certificate) EncodeTo(e *wire.Encoder) {
	e.BytesField(c.SerialNumber.Raw())
	e.String(string(c.Issuer))
	e.String(c.Subject)
	e.Int64(c.NotBefore)
	e.Int64(c.NotAfter)
	e.BytesField(c.PublicKey)
	e.Bool(c.IsCA)
	e.Uint32(c.DeltaSecs)
	e.BytesField(c.Signature)
}

// Decode parses a certificate encoded by Encode.
func Decode(buf []byte) (*Certificate, error) {
	d := wire.NewDecoder(buf)
	c, err := DecodeFrom(d)
	if err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("decode certificate: %w", err)
	}
	return c, nil
}

// DecodeFrom parses one certificate from a decoder stream.
func DecodeFrom(d *wire.Decoder) (*Certificate, error) {
	var c Certificate
	sn, err := serial.New(d.BytesField())
	if err != nil {
		if d.Err() != nil {
			return nil, fmt.Errorf("decode certificate: %w", d.Err())
		}
		return nil, fmt.Errorf("decode certificate serial: %w", err)
	}
	c.SerialNumber = sn
	c.Issuer = dictionary.CAID(d.String())
	c.Subject = d.String()
	c.NotBefore = d.Int64()
	c.NotAfter = d.Int64()
	c.PublicKey = ed25519.PublicKey(d.BytesCopy())
	c.IsCA = d.Bool()
	c.DeltaSecs = d.Uint32()
	c.Signature = d.BytesCopy()
	if d.Err() != nil {
		return nil, fmt.Errorf("decode certificate: %w", d.Err())
	}
	if len(c.PublicKey) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("decode certificate: bad public key size %d", len(c.PublicKey))
	}
	return &c, nil
}

// Chain is a certificate chain ordered leaf-first: chain[0] is the
// end-entity certificate, each chain[i] is signed by chain[i+1], and the
// last element is signed by (or is) a trusted root.
type Chain []*Certificate

// Leaf returns the end-entity certificate, or nil for an empty chain.
func (ch Chain) Leaf() *Certificate {
	if len(ch) == 0 {
		return nil
	}
	return ch[0]
}

// EncodeTo appends the chain's encoding to an encoder.
func (ch Chain) EncodeTo(e *wire.Encoder) {
	e.Uvarint(uint64(len(ch)))
	for _, c := range ch {
		c.EncodeTo(e)
	}
}

// DecodeChainFrom parses a chain from a decoder stream.
func DecodeChainFrom(d *wire.Decoder) (Chain, error) {
	count := d.Uvarint()
	if d.Err() != nil {
		return nil, fmt.Errorf("decode chain: %w", d.Err())
	}
	const maxChain = 16 // real chains are ≤4; generous safety bound
	if count == 0 || count > maxChain {
		return nil, fmt.Errorf("%w: %d certificates", ErrBadChain, count)
	}
	ch := make(Chain, 0, count)
	for i := uint64(0); i < count; i++ {
		c, err := DecodeFrom(d)
		if err != nil {
			return nil, fmt.Errorf("decode chain[%d]: %w", i, err)
		}
		ch = append(ch, c)
	}
	return ch, nil
}

// Pool is a set of trusted root CA certificates, keyed by CA identifier.
// It is the client's and the RA's trust anchor store.
//
// A pool also remembers the signatures it has seen verify (see Verify).
// Every connection of a client shares its pool, so a client that meets the
// same server certificate or signed root again skips the Ed25519
// arithmetic for it; one it has not met is checked in full.
type Pool struct {
	roots map[dictionary.CAID]*Certificate
	sigs  sigMemo
}

// sigMemoCap bounds the signatures one pool remembers, and so its memory:
// a key is the public key, the signature and the signed bytes (at most
// 118 on inject_steady, so about 220 KB of keys at the cap). It is a
// memory bound, not a working set: inject_steady's client, one server
// certificate under one CA, meets 3 distinct signatures in a run and hits
// on 99.996 % of its checks. Past the cap a new signature evicts a random
// one; BenchmarkPoolVerify shows that a client meeting a new certificate
// on every connection, all misses, pays what the plain check pays.
const sigMemoCap = 1024

// sigMemo is a bounded set of (public key, signature, message) triples
// that passed Ed25519 verification. Only successes are stored, keyed on
// all three in full, so a hit is exactly a repeat of a verified check.
type sigMemo struct {
	mu   sync.RWMutex
	seen map[string]struct{}
}

// Verify checks an Ed25519 signature as cryptoutil.Verify does, skipping
// the curve arithmetic for a triple that already verified under this pool.
// Only the signature is memoized: validity windows, proofs and freshness
// are for the caller to check every time.
func (p *Pool) Verify(pub ed25519.PublicKey, msg, sig []byte) error {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		// Fixed sizes keep the concatenated key unambiguous.
		return cryptoutil.Verify(pub, msg, sig)
	}
	var buf [384]byte
	key := append(append(append(buf[:0], pub...), sig...), msg...)
	p.sigs.mu.RLock()
	_, ok := p.sigs.seen[string(key)]
	p.sigs.mu.RUnlock()
	if ok {
		return nil
	}
	if err := cryptoutil.Verify(pub, msg, sig); err != nil {
		return err
	}
	p.sigs.mu.Lock()
	if p.sigs.seen == nil {
		p.sigs.seen = make(map[string]struct{})
	}
	if len(p.sigs.seen) >= sigMemoCap {
		for k := range p.sigs.seen { // map order is random: evict any one
			delete(p.sigs.seen, k)
			break
		}
	}
	p.sigs.seen[string(key)] = struct{}{}
	p.sigs.mu.Unlock()
	return nil
}

// NewPool returns a pool trusting the given self-signed root certificates.
func NewPool(roots ...*Certificate) (*Pool, error) {
	p := &Pool{roots: make(map[dictionary.CAID]*Certificate, len(roots))}
	for _, r := range roots {
		if err := p.AddRoot(r); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// AddRoot adds a self-signed CA certificate to the trust store.
func (p *Pool) AddRoot(root *Certificate) error {
	if !root.IsCA {
		return fmt.Errorf("%w: %s", ErrNotCA, root.Subject)
	}
	if err := root.CheckSignature(root.PublicKey); err != nil {
		return fmt.Errorf("root %s is not self-signed: %w", root.Issuer, err)
	}
	p.roots[root.Issuer] = root
	return nil
}

// Clone returns a pool with the same roots that shares no mutable state
// (the clone starts with no remembered signatures):
// later AddRoot calls on either pool are invisible to the other. The RA
// store's copy-on-write views rely on this to keep published views
// immutable without re-verifying every root self-signature.
func (p *Pool) Clone() *Pool {
	roots := make(map[dictionary.CAID]*Certificate, len(p.roots))
	for ca, c := range p.roots {
		roots[ca] = c
	}
	return &Pool{roots: roots}
}

// CAKey returns the trusted public key for a CA, used to verify dictionary
// roots from that CA.
func (p *Pool) CAKey(ca dictionary.CAID) (ed25519.PublicKey, bool) {
	c, ok := p.roots[ca]
	if !ok {
		return nil, false
	}
	return c.PublicKey, true
}

// VerifyChain performs the "standard validation" of §III step 5a: each link
// signature, CA capability of issuers, validity windows, and anchoring at a
// pool root. It returns the issuing CA of the leaf certificate, which is
// the dictionary the revocation status must come from.
//
// Revocation is deliberately NOT checked here: in RITM the revocation
// status arrives separately from the on-path RA and is verified by the
// client against the same pool (ritmclient package). Signatures go through
// the pool's memo (Verify); everything else is checked on every call.
func (p *Pool) VerifyChain(ch Chain, now int64) (dictionary.CAID, error) {
	if len(ch) == 0 {
		return "", fmt.Errorf("%w: empty chain", ErrBadChain)
	}
	for i, c := range ch {
		if err := c.CheckValidity(now); err != nil {
			return "", fmt.Errorf("chain[%d] (%s): %w", i, c.Subject, err)
		}
		if i > 0 && !ch[i].IsCA {
			return "", fmt.Errorf("chain[%d] (%s): %w", i, c.Subject, ErrNotCA)
		}
		if i+1 < len(ch) {
			if err := c.checkSignature(ch[i+1].PublicKey, p.Verify); err != nil {
				return "", fmt.Errorf("%w: link %d: %v", ErrBadChain, i, err)
			}
		}
	}
	last := ch[len(ch)-1]
	root, ok := p.roots[last.Issuer]
	if !ok {
		return "", fmt.Errorf("%w: no root for %s", ErrUntrusted, last.Issuer)
	}
	if err := last.checkSignature(root.PublicKey, p.Verify); err != nil {
		return "", fmt.Errorf("%w: anchor: %v", ErrUntrusted, err)
	}
	return ch[0].Issuer, nil
}
