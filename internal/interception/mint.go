package interception

import (
	"container/list"
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"encoding/pem"
	"errors"
	"fmt"
	"math/big"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Certificate minting: the interceptor presents clients a leaf for the
// intercepted site, signed by a local root the client has explicitly
// installed. The minted leaf's identity fields (serial, SANs, validity) are
// derived deterministically from the upstream leaf, so a site keeps the
// same minted identity until its real certificate changes — and so the
// derivation is testable byte-for-byte (golden tests).

// KeyAlg selects the minting root's key algorithm.
type KeyAlg int

// Supported root key algorithms. The per-site leaf key is always ECDSA
// P-256: leaves are minted on demand and EC keygen is ~3 orders of
// magnitude cheaper than RSA.
const (
	// KeyECDSA uses an ECDSA P-256 root key (default).
	KeyECDSA KeyAlg = iota
	// KeyRSA uses an RSA 2048 root key, for clients that cannot chain to
	// an EC root.
	KeyRSA
)

// MintingRoot is the local CA the interceptor mints under: a self-signed
// root certificate, its private key, and the shared per-site leaf key.
type MintingRoot struct {
	cert    *x509.Certificate
	certDER []byte
	key     crypto.Signer
	leafKey crypto.Signer
	// id is a digest of the root certificate; it prefixes every mint-cache
	// key, so rotating the root implicitly invalidates all cached mints.
	id [8]byte
}

// NewMintingRoot generates a fresh self-signed minting root valid for ten
// years.
func NewMintingRoot(commonName string, alg KeyAlg) (*MintingRoot, error) {
	var (
		key crypto.Signer
		err error
	)
	switch alg {
	case KeyECDSA:
		key, err = ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	case KeyRSA:
		key, err = rsa.GenerateKey(rand.Reader, 2048)
	default:
		return nil, fmt.Errorf("interception: unknown key algorithm %d", alg)
	}
	if err != nil {
		return nil, fmt.Errorf("interception: generate root key: %w", err)
	}
	serialLimit := new(big.Int).Lsh(big.NewInt(1), 128)
	sn, err := rand.Int(rand.Reader, serialLimit)
	if err != nil {
		return nil, fmt.Errorf("interception: root serial: %w", err)
	}
	now := time.Now()
	tmpl := &x509.Certificate{
		SerialNumber:          sn,
		Subject:               pkix.Name{CommonName: commonName, Organization: []string{"RITM interception"}},
		NotBefore:             now.Add(-time.Hour),
		NotAfter:              now.AddDate(10, 0, 0),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
		MaxPathLen:            0,
		MaxPathLenZero:        true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, key.Public(), key)
	if err != nil {
		return nil, fmt.Errorf("interception: self-sign root: %w", err)
	}
	return newMintingRootFrom(der, key)
}

func newMintingRootFrom(der []byte, key crypto.Signer) (*MintingRoot, error) {
	parsed, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("interception: parse root: %w", err)
	}
	leafKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("interception: generate leaf key: %w", err)
	}
	r := &MintingRoot{cert: parsed, certDER: der, key: key, leafKey: leafKey}
	sum := sha256.Sum256(der)
	copy(r.id[:], sum[:])
	return r, nil
}

// Certificate returns the root certificate clients must install.
func (r *MintingRoot) Certificate() *x509.Certificate { return r.cert }

// CertPEM returns the root certificate as PEM, for trust-store install.
func (r *MintingRoot) CertPEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: r.certDER})
}

// LoadOrCreateMintingRoot loads a minting root from a PEM file holding a
// CERTIFICATE and a PRIVATE KEY block, generating (alg-keyed) and writing
// one if the file does not exist. This is what `ritm-ra -bump-root` points
// at: the root survives restarts, so clients install it once.
func LoadOrCreateMintingRoot(path, commonName string, alg KeyAlg) (*MintingRoot, error) {
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		return parseRootPEM(data)
	case errors.Is(err, os.ErrNotExist):
		root, err := NewMintingRoot(commonName, alg)
		if err != nil {
			return nil, err
		}
		keyDER, err := x509.MarshalPKCS8PrivateKey(root.key)
		if err != nil {
			return nil, fmt.Errorf("interception: marshal root key: %w", err)
		}
		out := append(root.CertPEM(), pem.EncodeToMemory(&pem.Block{Type: "PRIVATE KEY", Bytes: keyDER})...)
		if err := os.WriteFile(path, out, 0o600); err != nil {
			return nil, fmt.Errorf("interception: write %s: %w", path, err)
		}
		return root, nil
	default:
		return nil, fmt.Errorf("interception: read %s: %w", path, err)
	}
}

func parseRootPEM(data []byte) (*MintingRoot, error) {
	var certDER []byte
	var key crypto.Signer
	for {
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			break
		}
		switch block.Type {
		case "CERTIFICATE":
			certDER = block.Bytes
		case "PRIVATE KEY":
			k, err := x509.ParsePKCS8PrivateKey(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("interception: parse root key: %w", err)
			}
			signer, ok := k.(crypto.Signer)
			if !ok {
				return nil, fmt.Errorf("interception: root key %T cannot sign", k)
			}
			key = signer
		case "EC PRIVATE KEY":
			k, err := x509.ParseECPrivateKey(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("interception: parse EC root key: %w", err)
			}
			key = k
		case "RSA PRIVATE KEY":
			k, err := x509.ParsePKCS1PrivateKey(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("interception: parse RSA root key: %w", err)
			}
			key = k
		}
	}
	if certDER == nil || key == nil {
		return nil, errors.New("interception: bump-root PEM must hold a CERTIFICATE and a PRIVATE KEY block")
	}
	return newMintingRootFrom(certDER, key)
}

// DefaultMintCacheCap bounds the minted-leaf LRU when the Minter is built
// with cap 0.
const DefaultMintCacheCap = 1024

// Minter mints per-site leaves under a MintingRoot, memoized in an LRU
// keyed by (host, upstream identity) with singleflight so N
// concurrent first hits on one site mint exactly once.
type Minter struct {
	mu    sync.Mutex
	root  *MintingRoot
	cap   int
	lru   *list.List // of *mintEntry, front = most recent
	cache map[string]*list.Element
	calls map[string]*mintCall

	hits   atomic.Uint64
	misses atomic.Uint64
}

type mintEntry struct {
	key  string
	cert *tls.Certificate
}

type mintCall struct {
	done chan struct{}
	cert *tls.Certificate
	err  error
}

// NewMinter creates a minter over root with an LRU of cacheCap minted
// leaves (0 = DefaultMintCacheCap).
func NewMinter(root *MintingRoot, cacheCap int) *Minter {
	if cacheCap <= 0 {
		cacheCap = DefaultMintCacheCap
	}
	return &Minter{
		root:  root,
		cap:   cacheCap,
		lru:   list.New(),
		cache: make(map[string]*list.Element),
		calls: make(map[string]*mintCall),
	}
}

// CacheStats returns the mint cache's hit and miss counts.
func (m *Minter) CacheStats() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}

// cacheKey identifies one mintable leaf under the Minter's root: host and
// the fields of the upstream leaf the mint derives from — a renewed
// upstream certificate (new serial or validity) re-mints.
func cacheKey(host string, upstream *x509.Certificate) string {
	return host + "|" + upstream.SerialNumber.Text(16) + "|" + upstream.NotAfter.UTC().Format(time.RFC3339)
}

// CertFor returns the minted leaf for host, derived from the upstream
// leaf. Cache hits return the identical *tls.Certificate (and therefore
// byte-identical DER); concurrent misses for one key coalesce into a
// single mint.
func (m *Minter) CertFor(host string, upstream *x509.Certificate) (*tls.Certificate, error) {
	if upstream == nil {
		return nil, errors.New("interception: mint: nil upstream leaf")
	}
	key := cacheKey(host, upstream)
	m.mu.Lock()
	if el, ok := m.cache[key]; ok {
		m.lru.MoveToFront(el)
		m.mu.Unlock()
		m.hits.Add(1)
		return el.Value.(*mintEntry).cert, nil
	}
	if c, ok := m.calls[key]; ok {
		m.mu.Unlock()
		<-c.done
		// Coalesced callers count as hits: one mint served them all.
		m.hits.Add(1)
		return c.cert, c.err
	}
	c := &mintCall{done: make(chan struct{})}
	m.calls[key] = c
	m.mu.Unlock()
	m.misses.Add(1)

	c.cert, c.err = mintLeaf(m.root, host, upstream)
	close(c.done)

	m.mu.Lock()
	delete(m.calls, key)
	if c.err == nil {
		el := m.lru.PushFront(&mintEntry{key: key, cert: c.cert})
		m.cache[key] = el
		if m.lru.Len() > m.cap {
			oldest := m.lru.Back()
			m.lru.Remove(oldest)
			delete(m.cache, oldest.Value.(*mintEntry).key)
		}
	}
	m.mu.Unlock()
	return c.cert, c.err
}

// MintTemplate derives the minted leaf's identity fields from the upstream
// leaf — exported so the golden tests pin the derivation itself, not just
// its output:
//
//   - serial: SHA-256 over (root digest ‖ host ‖ upstream serial ‖
//     upstream NotAfter), truncated to 16 bytes, top bit cleared — unique
//     per (root, site, upstream cert) and stable until any of them change;
//   - SANs: host plus the upstream's DNS names and IPs, deduplicated and
//     sorted (host first);
//   - validity: the upstream's window clamped into the root's (a client
//     must never see a minted leaf outliving either).
func MintTemplate(root *MintingRoot, host string, upstream *x509.Certificate) *x509.Certificate {
	h := sha256.New()
	h.Write(root.id[:])
	h.Write([]byte(host))
	h.Write(upstream.SerialNumber.Bytes())
	var ts [8]byte
	binary.BigEndian.PutUint64(ts[:], uint64(upstream.NotAfter.Unix()))
	h.Write(ts[:])
	digest := h.Sum(nil)[:16]
	digest[0] &= 0x7f
	sn := new(big.Int).SetBytes(digest)
	if sn.Sign() == 0 {
		sn.SetInt64(1)
	}

	dns := []string{}
	if host != "" && net.ParseIP(host) == nil {
		dns = append(dns, host)
	}
	rest := append([]string(nil), upstream.DNSNames...)
	sort.Strings(rest)
	prev := ""
	for _, n := range rest {
		if n == prev || (len(dns) > 0 && n == dns[0]) {
			continue // duplicate within the sorted names, or the host again
		}
		dns = append(dns, n)
		prev = n
	}
	ips := append([]net.IP(nil), upstream.IPAddresses...)
	if ip := net.ParseIP(host); ip != nil {
		ips = append(ips, ip)
	}

	notBefore := upstream.NotBefore
	if notBefore.Before(root.cert.NotBefore) {
		notBefore = root.cert.NotBefore
	}
	notAfter := upstream.NotAfter
	if notAfter.After(root.cert.NotAfter) {
		notAfter = root.cert.NotAfter
	}

	cn := host
	if cn == "" {
		cn = upstream.Subject.CommonName
	}
	return &x509.Certificate{
		SerialNumber: sn,
		Subject:      pkix.Name{CommonName: cn},
		DNSNames:     dns,
		IPAddresses:  ips,
		NotBefore:    notBefore,
		NotAfter:     notAfter,
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageKeyEncipherment,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
}

// mintLeaf signs the derived template under the root.
func mintLeaf(root *MintingRoot, host string, upstream *x509.Certificate) (*tls.Certificate, error) {
	tmpl := MintTemplate(root, host, upstream)
	der, err := x509.CreateCertificate(rand.Reader, tmpl, root.cert, root.leafKey.Public(), root.key)
	if err != nil {
		return nil, fmt.Errorf("interception: sign minted leaf for %s: %w", host, err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("interception: re-parse minted leaf: %w", err)
	}
	return &tls.Certificate{
		Certificate: [][]byte{der, root.certDER},
		PrivateKey:  root.leafKey,
		Leaf:        leaf,
	}, nil
}
