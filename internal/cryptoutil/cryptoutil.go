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
func HashBytes(data []byte) Hash {
	full := sha256.Sum256(data)
	var h Hash
	copy(h[:], full[:HashSize])
	return h
}

// HashConcat hashes the concatenation of the given byte slices without
// building the concatenation in memory.
func HashConcat(parts ...[]byte) Hash {
	st := sha256.New()
	for _, p := range parts {
		st.Write(p)
	}
	var full [sha256.Size]byte
	st.Sum(full[:0])
	var h Hash
	copy(h[:], full[:HashSize])
	return h
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
func HashStep(h Hash) Hash {
	return HashConcat([]byte{domainChain}, h[:])
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

// HashLeaf computes the hash of a Merkle tree leaf with domain separation.
func HashLeaf(payload []byte) Hash {
	return HashConcat([]byte{domainLeaf}, payload)
}

// HashLeafSerial computes the dictionary leaf hash directly from the
// leaf's fields — byte-identical to HashLeaf over the leaf's wire payload
// (length-prefixed serial bytes, then the issuance counter as a uvarint)
// — assembling the preimage in a stack buffer: verifiers hash a leaf or two
// per status and must not allocate. Rebuilds hash through a TreeHasher.
func HashLeafSerial(serialRaw []byte, num uint64) Hash {
	var buf [preimageMax]byte
	return HashBytes(appendLeafSerial(buf[:0], serialRaw, num))
}

// HashNode computes the hash of an interior Merkle node from its children,
// the fixed-size preimage on the stack like HashLeafSerial's.
func HashNode(left, right Hash) Hash {
	var buf [preimageMax]byte
	return HashBytes(appendNode(buf[:0], &left, &right))
}

// preimageMax bounds a leaf or interior-node preimage: the domain byte, two
// uvarints and a serial of up to 40 bytes; a node's 41 bytes fit inside.
const preimageMax = 1 + binary.MaxVarintLen64 + 40 + binary.MaxVarintLen64

// appendLeafSerial and appendNode are the only places the two tree
// preimages are assembled; the free functions above and TreeHasher share
// them.
func appendLeafSerial(b, serialRaw []byte, num uint64) []byte {
	b = append(b, domainLeaf)
	b = binary.AppendUvarint(b, uint64(len(serialRaw)))
	b = append(b, serialRaw...)
	return binary.AppendUvarint(b, num)
}

func appendNode(b []byte, left, right *Hash) []byte {
	b = append(b, domainNode)
	b = append(b, left[:]...)
	return append(b, right[:]...)
}

// TreeHasher hashes leaves and interior nodes through one reused digest and
// one preimage buffer. A ∆ rebuild hashes hundreds of thousands of 41-byte
// nodes, and per node the one-shot sha256.Sum256 spends more time setting a
// digest up and tearing it down than compressing the single block; a
// dictionary tree owns one TreeHasher and pays that once. The zero value is ready to use;
// it is not safe for concurrent use. Results equal HashLeafSerial/HashNode.
type TreeHasher struct {
	d   hash.Hash
	buf [preimageMax]byte
	sum [sha256.Size]byte
}

func (h *TreeHasher) hash(preimage []byte) (out Hash) {
	if h.d == nil {
		h.d = sha256.New()
	}
	h.d.Reset()
	h.d.Write(preimage)
	copy(out[:], h.d.Sum(h.sum[:0]))
	return out
}

// LeafSerial is HashLeafSerial through the reused digest.
func (h *TreeHasher) LeafSerial(serialRaw []byte, num uint64) Hash {
	return h.hash(appendLeafSerial(h.buf[:0], serialRaw, num))
}

// Node is HashNode through the reused digest.
func (h *TreeHasher) Node(left, right *Hash) Hash {
	return h.hash(appendNode(h.buf[:0], left, right))
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

// Length returns m, the number of hash applications from seed to anchor.
func (c *Chain) Length() int { return c.length }

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

// SignatureSize is the size of an Ed25519 signature in bytes.
const SignatureSize = ed25519.SignatureSize

// PublicKeySize is the size of an Ed25519 public key in bytes.
const PublicKeySize = ed25519.PublicKeySize

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

// KeyID returns a short identifier for a public key (the truncated hash of
// the key bytes), used to select the right trust anchor for verification.
func KeyID(pub ed25519.PublicKey) Hash {
	return HashBytes(pub)
}
