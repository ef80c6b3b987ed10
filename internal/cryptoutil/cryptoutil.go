// Package cryptoutil provides the cryptographic primitives RITM builds on:
// the truncated hash used throughout the authenticated dictionary, hash
// chains for freshness statements, and Ed25519 signing identities for CAs.
//
// Following §VI of the paper, the hash function is SHA-256 truncated to its
// first 20 bytes, and the signature scheme is Ed25519 (64-byte signatures).
package cryptoutil

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
)

// HashSize is the size in bytes of the truncated hash used by RITM
// (SHA-256 truncated to 20 bytes, §VI).
const HashSize = 20

// Hash is a truncated SHA-256 digest. It is a value type so that it can be
// used as a map key and compared with ==.
type Hash [HashSize]byte

// Errors returned by primitives in this package.
var (
	// ErrBadSignature reports a signature that does not verify.
	ErrBadSignature = errors.New("cryptoutil: invalid signature")
	// ErrBadHashSize reports a byte slice of the wrong length for a Hash.
	ErrBadHashSize = errors.New("cryptoutil: wrong hash size")
	// ErrChainTooLong reports a hash-chain offset beyond the chain length.
	ErrChainTooLong = errors.New("cryptoutil: offset exceeds chain length")
)

// HashBytes returns the truncated SHA-256 digest of data.
func HashBytes(data []byte) (h Hash) {
	var p [blockSize]byte
	if len(data) <= blockMax {
		hashIn(&h, &p, p[:copy(p[:], data)])
	} else {
		sum256(&h, data)
	}
	return h
}

func sum256(out *Hash, data []byte) {
	full := sha256.Sum256(data)
	copy(out[:], full[:HashSize])
}

// blockSize is SHA-256's block size; blockMax is the longest preimage its
// padding — the 0x80 terminator and the 8-byte bit length — fits into one
// block. Every tree preimage (node 41 B, leaf ≤ 52 B) and chain step (21 B)
// is that short, so hashing one costs exactly one compression.
const (
	blockSize = 64
	blockMax  = blockSize - 1 - 8
)

// iv is SHA-256's initial hash value (FIPS 180-4 §5.3.3).
var iv = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}

// hashIn writes to out the truncated SHA-256 of b, a preimage assembled at
// the start of the zeroed block p (b is p[:len(b)] whenever it fits). With
// the kernel, a preimage of at most blockMax bytes is padded in place and
// compressed once from the IV — no digest to set up, copy or tear down —
// and the digest is written straight to its destination: a Hash passed back
// by value through each frame costs more than the hashing glue around it.
func hashIn(out *Hash, p *[blockSize]byte, b []byte) {
	n := len(b)
	if !useBlock || n > blockMax {
		sum256(out, b)
		return
	}
	p[n] = 0x80
	binary.BigEndian.PutUint64(p[blockSize-8:], uint64(n)<<3)
	s := iv
	block(&s, p)
	binary.BigEndian.PutUint32(out[0:], s[0])
	binary.BigEndian.PutUint32(out[4:], s[1])
	binary.BigEndian.PutUint32(out[8:], s[2])
	binary.BigEndian.PutUint32(out[12:], s[3])
	binary.BigEndian.PutUint32(out[16:], s[4])
}

// HashFromBytes converts a 20-byte slice into a Hash.
func HashFromBytes(b []byte) (Hash, error) {
	var h Hash
	if len(b) != HashSize {
		return h, fmt.Errorf("%w: got %d bytes", ErrBadHashSize, len(b))
	}
	copy(h[:], b)
	return h, nil
}

// IsZero reports whether h is the all-zero hash.
func (h Hash) IsZero() bool { return h == Hash{} }

// String returns the hex encoding of the hash.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Equal compares two hashes in constant time. Use it whenever the comparison
// involves an attacker-supplied value.
func (h Hash) Equal(other Hash) bool {
	return subtle.ConstantTimeCompare(h[:], other[:]) == 1
}

// HashStep applies the chain hash function once: H(x). Hash chains use the
// same truncated hash as the dictionary but with a distinct domain-separator
// prefix so that chain values can never collide with tree nodes.
func HashStep(h Hash) (out Hash) {
	var p [blockSize]byte
	p[0] = domainChain
	*(*Hash)(p[1:]) = h
	hashIn(&out, &p, p[:1+HashSize])
	return out
}

// HashIter applies HashStep n times: Hⁿ(x). HashIter(h, 0) returns h.
func HashIter(h Hash, n int) Hash {
	for i := 0; i < n; i++ {
		h = HashStep(h)
	}
	return h
}

// Domain separators for the different uses of the hash function. Leaf and
// interior prefixes follow the standard second-preimage-resistant Merkle
// construction (RFC 6962 style); the chain prefix isolates freshness chains.
// 0x03 and 0x04 are retired — they separated the bucket and root
// commitments of the deleted forest layout — and must never be reused: a
// hash under either could collide with a commitment an old proof carries.
const (
	domainLeaf  = 0x00
	domainNode  = 0x01
	domainChain = 0x02
)

// HashLeafSerial computes the dictionary leaf hash from the leaf's fields:
// the leaf domain byte, then the leaf's wire payload (length-prefixed
// serial bytes, then the issuance counter as a uvarint). It assembles the
// preimage in a stack block: verifiers hash a leaf or two per status and
// must not allocate. Rebuilds hash through a TreeHasher.
func HashLeafSerial(serialRaw []byte, num uint64) (out Hash) {
	hashLeafSerial(&out, serialRaw, num)
	return out
}

func hashLeafSerial(out *Hash, serialRaw []byte, num uint64) {
	var p [blockSize]byte
	hashIn(out, &p, appendLeafSerial(p[:0], serialRaw, num))
}

// HashNode computes the hash of an interior Merkle node from its children.
// The kernel builds the preimage in registers; the fallback assembles it
// on the stack like HashLeafSerial's.
func HashNode(left, right Hash) (out Hash) {
	if useBlock {
		nodeBlock(&out, &left, &right)
		return out
	}
	var p [blockSize]byte
	sum256(&out, putNode(&p, &left, &right))
	return out
}

// appendLeafSerial and putNode are the only places the two tree preimages
// are assembled in memory (nodeBlock builds the node's in registers); the
// free functions above and TreeHasher share them. A leaf
// whose serial is at most 40 bytes long fits the 64-byte block b is cut
// from, so appending to it does not allocate.
func appendLeafSerial(b, serialRaw []byte, num uint64) []byte {
	b = append(b, domainLeaf)
	b = binary.AppendUvarint(b, uint64(len(serialRaw)))
	b = append(b, serialRaw...)
	return binary.AppendUvarint(b, num)
}

// putNode writes the node preimage at the start of p with fixed-size copies
// and returns it.
func putNode(p *[blockSize]byte, left, right *Hash) []byte {
	p[0] = domainNode
	*(*Hash)(p[1:]) = *left
	*(*Hash)(p[1+HashSize:]) = *right
	return p[:1+2*HashSize]
}

// TreeHasher hashes the leaves and interior nodes of a ∆ rebuild —
// hundreds of thousands of single-block preimages. Where the single-block
// kernel runs it calls the kernel, one compression per node. Elsewhere
// it hashes through one reused digest and preimage buffer: per node the
// one-shot sha256.Sum256 spends more time setting a digest up and tearing
// it down than compressing the block, and a dictionary tree that owns one
// TreeHasher pays that once. The zero value is ready to use; it is not safe
// for concurrent use. Results, written to dst, equal HashLeafSerial's and
// HashNode's.
type TreeHasher struct {
	d   hash.Hash
	buf [blockSize]byte
	sum [sha256.Size]byte
}

func (h *TreeHasher) hash(dst *Hash, preimage []byte) {
	if h.d == nil {
		h.d = sha256.New()
	}
	h.d.Reset()
	h.d.Write(preimage)
	copy(dst[:], h.d.Sum(h.sum[:0]))
}

// LeafSerial writes HashLeafSerial(serialRaw, num) to dst.
func (h *TreeHasher) LeafSerial(dst *Hash, serialRaw []byte, num uint64) {
	if useBlock {
		hashLeafSerial(dst, serialRaw, num)
		return
	}
	h.hash(dst, appendLeafSerial(h.buf[:0], serialRaw, num))
}

// Node writes HashNode(*left, *right) to dst.
func (h *TreeHasher) Node(dst, left, right *Hash) {
	if useBlock {
		nodeBlock(dst, left, right)
		return
	}
	h.hash(dst, putNode(&h.buf, left, right))
}

// Chain is a finite hash chain v, H(v), …, Hᵐ(v) owned by a CA. The CA
// reveals values from the anchor Hᵐ(v) backwards: the statement for period p
// is H^{m−p}(v), so that anyone holding the anchor can verify a statement by
// hashing forward, while only the owner (who knows v) can produce the next
// one (§II, §III).
type Chain struct {
	seed   Hash
	length int
	// values[i] = Hⁱ(seed); values[length] is the anchor.
	values []Hash
}

// NewChain creates a chain of the given length from a random seed read from
// rng (crypto/rand.Reader in production, a deterministic reader in tests).
func NewChain(rng io.Reader, length int) (*Chain, error) {
	if length <= 0 {
		return nil, fmt.Errorf("cryptoutil: chain length %d, must be positive", length)
	}
	var seed Hash
	if _, err := io.ReadFull(rng, seed[:]); err != nil {
		return nil, fmt.Errorf("read chain seed: %w", err)
	}
	return NewChainFromSeed(seed, length), nil
}

// NewChainFromSeed creates a chain deterministically from a seed. The full
// chain is precomputed; for the chain lengths RITM uses (thousands of
// periods) this costs a few hundred kilobytes and makes Value O(1).
func NewChainFromSeed(seed Hash, length int) *Chain {
	values := make([]Hash, length+1)
	values[0] = seed
	for i := 1; i <= length; i++ {
		values[i] = HashStep(values[i-1])
	}
	return &Chain{seed: seed, length: length, values: values}
}

// Seed returns the chain's secret seed v. It is as sensitive as a signing
// key: anyone holding it can mint freshness statements for every period of
// this chain. The CA-side durable store persists it (in the CA's own trust
// domain, next to the signing key) so that a restarted authority resumes
// the exact chain — and therefore the exact signed root — it crashed with.
func (c *Chain) Seed() Hash { return c.seed }

// Anchor returns Hᵐ(v), the value committed to in a signed root.
func (c *Chain) Anchor() Hash { return c.values[c.length] }

// Value returns the freshness statement for period p, H^{m−p}(v).
// Value(0) is the anchor itself. It fails once p exceeds the chain length,
// at which point the CA must issue a new signed root with a fresh chain
// (Fig 2, refresh step 3).
func (c *Chain) Value(p int) (Hash, error) {
	if p < 0 || p > c.length {
		return Hash{}, fmt.Errorf("%w: period %d of %d", ErrChainTooLong, p, c.length)
	}
	return c.values[c.length-p], nil
}

// VerifyChainValue checks that statement is a valid freshness statement for
// period p against the anchor: H^p(statement) == anchor. It returns
// ErrBadSignature on mismatch so callers can treat forged statements
// uniformly with forged signatures.
func VerifyChainValue(anchor, statement Hash, p int) error {
	if p < 0 {
		return fmt.Errorf("cryptoutil: negative chain period %d", p)
	}
	if !HashIter(statement, p).Equal(anchor) {
		return fmt.Errorf("%w: freshness statement does not chain to anchor", ErrBadSignature)
	}
	return nil
}

// Signer holds an Ed25519 signing identity (a CA, or a TLS-sim server).
type Signer struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewSigner generates a fresh Ed25519 key pair from rng. Pass nil to use
// crypto/rand.Reader.
func NewSigner(rng io.Reader) (*Signer, error) {
	if rng == nil {
		rng = rand.Reader
	}
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("generate ed25519 key: %w", err)
	}
	return &Signer{pub: pub, priv: priv}, nil
}

// NewSignerFromSeed derives a signer deterministically from a 32-byte seed,
// used by workload generators to create reproducible CA populations.
func NewSignerFromSeed(seed [32]byte) *Signer {
	priv := ed25519.NewKeyFromSeed(seed[:])
	return &Signer{pub: priv.Public().(ed25519.PublicKey), priv: priv}
}

// Public returns the public key.
func (s *Signer) Public() ed25519.PublicKey { return s.pub }

// Seed returns the 32-byte Ed25519 private-key seed, from which
// NewSignerFromSeed reconstructs the identity. CA operators persist it
// (mode 0600, CA trust domain) so a restarted CA keeps its identity.
func (s *Signer) Seed() [32]byte {
	var seed [32]byte
	copy(seed[:], s.priv.Seed())
	return seed
}

// Sign returns the Ed25519 signature over msg.
func (s *Signer) Sign(msg []byte) []byte {
	return ed25519.Sign(s.priv, msg)
}

// Verify checks sig over msg under pub.
func Verify(pub ed25519.PublicKey, msg, sig []byte) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: bad public key size %d", ErrBadSignature, len(pub))
	}
	if !ed25519.Verify(pub, msg, sig) {
		return ErrBadSignature
	}
	return nil
}
