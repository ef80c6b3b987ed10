package dictionary

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"io"
	"sync"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// DefaultChainLength is the default freshness-chain length m. With
// ∆ = 10 s a chain of 8,640 periods lasts one day before the CA must sign a
// fresh root; with ∆ = 1 h it lasts almost a year. The value of m is a CA
// parameter per Fig 2 ("m: parameter chosen by CA").
const DefaultChainLength = 8640

// AuthorityConfig configures a CA-side dictionary.
type AuthorityConfig struct {
	// CA is the dictionary's identity, carried in every signed root.
	CA CAID
	// Signer is the CA's Ed25519 identity.
	Signer *cryptoutil.Signer
	// Delta is the dissemination interval ∆.
	Delta time.Duration
	// ChainLength is m, the number of freshness periods one signed root
	// supports. Zero selects DefaultChainLength.
	ChainLength int
	// Rand is the randomness source for hash-chain seeds; nil selects
	// crypto/rand.Reader. Tests inject deterministic readers.
	Rand io.Reader
}

func (c *AuthorityConfig) validate() error {
	if c.CA == "" {
		return fmt.Errorf("dictionary: authority config missing CA id")
	}
	if c.Signer == nil {
		return fmt.Errorf("dictionary: authority config missing signer")
	}
	if c.Delta < time.Second {
		return fmt.Errorf("dictionary: ∆ = %v, must be at least one second", c.Delta)
	}
	if c.ChainLength < 0 {
		return fmt.Errorf("dictionary: negative chain length %d", c.ChainLength)
	}
	return nil
}

// Authority is the CA side of a dictionary: it owns the tree, the signing
// key, and the freshness chain, and implements the insert and refresh
// operations of Fig 2. Authority is safe for concurrent use.
type Authority struct {
	cfg AuthorityConfig

	mu    sync.Mutex
	tree  *Tree
	chain *cryptoutil.Chain
	root  *SignedRoot
}

// NewAuthority creates a CA-side dictionary, signing an initial (empty)
// root at time now.
func NewAuthority(cfg AuthorityConfig, now int64) (*Authority, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.ChainLength == 0 {
		cfg.ChainLength = DefaultChainLength
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Reader
	}
	a := &Authority{cfg: cfg, tree: NewTree()}
	if err := a.rotateChainAndSign(now); err != nil {
		return nil, err
	}
	return a, nil
}

// CA returns the dictionary's CA identifier.
func (a *Authority) CA() CAID { return a.cfg.CA }

// PublicKey returns the CA's verification key.
func (a *Authority) PublicKey() ed25519.PublicKey { return a.cfg.Signer.Public() }

// Delta returns the CA's dissemination interval ∆.
func (a *Authority) Delta() time.Duration { return a.cfg.Delta }

// HashedNodes returns the cumulative hash computations the dictionary has
// performed across inserts — the per-∆-cycle rebuild cost.
func (a *Authority) HashedNodes() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tree.HashedNodes()
}

// Count returns the number of revocations issued so far.
func (a *Authority) Count() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tree.Count()
}

// SignedRoot returns the latest signed root.
func (a *Authority) SignedRoot() *SignedRoot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.root
}

// rotateChainAndSign draws a fresh chain seed (Fig 2 insert step 2) and
// signs a root for the current tree at time now. Caller must hold mu or be
// the constructor.
func (a *Authority) rotateChainAndSign(now int64) error {
	chain, err := cryptoutil.NewChain(a.cfg.Rand, a.cfg.ChainLength)
	if err != nil {
		return fmt.Errorf("rotate freshness chain: %w", err)
	}
	a.chain = chain
	root := &SignedRoot{
		CA:        a.cfg.CA,
		Root:      a.tree.Root(),
		N:         a.tree.Count(),
		Anchor:    chain.Anchor(),
		Time:      now,
		ChainLen:  uint32(a.cfg.ChainLength),
		DeltaSecs: uint32(a.cfg.Delta / time.Second),
	}
	root.sign(a.cfg.Signer)
	a.root = root
	return nil
}

// Insert revokes the given serials as one batch (Fig 2, insert): it inserts
// them into the tree, rebuilds it, rotates the freshness chain, and returns
// the issuance message (serials + new signed root) for dissemination.
func (a *Authority) Insert(serials []serial.Number, now int64) (*IssuanceMessage, error) {
	if len(serials) == 0 {
		return nil, fmt.Errorf("dictionary: empty revocation batch")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.tree.InsertBatch(serials); err != nil {
		return nil, err
	}
	if err := a.rotateChainAndSign(now); err != nil {
		return nil, err
	}
	batch := make([]serial.Number, len(serials))
	copy(batch, serials)
	return &IssuanceMessage{Serials: batch, Root: a.root}, nil
}

// Refresh is Fig 2's refresh operation, executed at least every ∆ when no
// new revocation was issued. While the chain lasts (p < m) it returns the
// freshness statement H^{m−p}(v); once exhausted it signs a fresh root with
// a new chain and returns that instead.
type Refresh struct {
	// Statement is non-nil when the existing root is still serviceable.
	Statement *FreshnessStatement
	// NewRoot is non-nil when the chain was exhausted and a new signed root
	// (with its period-0 statement in Statement) replaces the old one.
	NewRoot *SignedRoot
}

// Refresh produces the dissemination payload for the current period.
func (a *Authority) Refresh(now int64) (*Refresh, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.root.Period(now)
	if p < int(a.root.ChainLen) {
		v, err := a.chain.Value(p)
		if err != nil {
			return nil, fmt.Errorf("refresh %s: %w", a.cfg.CA, err)
		}
		return &Refresh{Statement: &FreshnessStatement{CA: a.cfg.CA, Value: v}}, nil
	}
	// p ≥ m: the chain is exhausted; sign a new root (refresh step 3).
	if err := a.rotateChainAndSign(now); err != nil {
		return nil, err
	}
	return &Refresh{
		Statement: &FreshnessStatement{CA: a.cfg.CA, Value: a.chain.Anchor()},
		NewRoot:   a.root,
	}, nil
}

// Statement returns the freshness statement for time now without rotating
// anything; it fails if the chain is exhausted.
func (a *Authority) Statement(now int64) (*FreshnessStatement, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	v, err := a.chain.Value(a.root.Period(now))
	if err != nil {
		return nil, fmt.Errorf("statement %s: %w", a.cfg.CA, err)
	}
	return &FreshnessStatement{CA: a.cfg.CA, Value: v}, nil
}

// Prove produces a revocation status directly from the authority's own
// dictionary. CAs are provers too (the RA is simply the usual one); this is
// used by tests and by the OCSP-style baseline comparison.
func (a *Authority) Prove(s serial.Number, now int64) (*Status, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	v, err := a.chain.Value(a.root.Period(now))
	if err != nil {
		return nil, fmt.Errorf("prove %s: %w", a.cfg.CA, err)
	}
	return &Status{Proof: a.tree.Prove(s), Root: a.root, Freshness: v}, nil
}

// Revoked reports whether the authority has revoked s.
func (a *Authority) Revoked(s serial.Number) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.tree.Revoked(s)
	return ok
}

// LogSuffix exposes the issuance log range (from, to] for the distribution
// point's synchronization endpoint.
func (a *Authority) LogSuffix(from, to uint64) ([]serial.Number, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tree.LogSuffix(from, to)
}

// SerializedSize reports the canonical serialized size of the dictionary
// (the issuance log), the §VII-D storage-overhead metric.
func (a *Authority) SerializedSize() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tree.SerializedSize()
}

// MemoryFootprint estimates the resident bytes of the dictionary tree.
func (a *Authority) MemoryFootprint() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tree.MemoryFootprint()
}
