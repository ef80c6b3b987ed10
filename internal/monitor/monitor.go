// Package monitor implements RITM's consistency-checking machinery (§III
// "Consistency Checking", §V "Misbehaving CA"): parties exchange their
// latest signed roots, and any two validly signed roots of the same size
// with different hashes constitute transferable, cryptographic proof that
// the CA equivocated.
//
// The package provides:
//
//   - Auditor: accumulates observed roots per CA and dictionary size,
//     detecting equivocation and (given an issuance log) append-only
//     violations;
//   - MapServer: the RA/edge registry proposed in §III so that parties can
//     find each other and compare views directly;
//   - CrossCheck / Gossip: the comparison procedures run over the map
//     server's membership or between two peers.
package monitor

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ritm/internal/cert"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
)

// Errors returned by monitoring operations.
var (
	// ErrUnknownSource reports a lookup of an unregistered source.
	ErrUnknownSource = errors.New("monitor: unknown source")
	// ErrUntrustedCA reports a root from a CA outside the trust pool.
	ErrUntrustedCA = errors.New("monitor: no trust anchor for CA")
)

// RootSource provides the latest signed root for a CA. It is implemented
// by cdn.DistributionPoint, cdn.EdgeServer, cdn.HTTPClient, and ra.Store —
// every party that holds dictionary state.
type RootSource interface {
	LatestRoot(ca dictionary.CAID) (*dictionary.SignedRoot, error)
}

// Auditor accumulates signed roots and detects CA misbehavior. An honest
// CA signs exactly one root per dictionary size n (dictionaries are
// append-only with consecutive revocation numbers), so two different roots
// at the same n prove equivocation. The auditor is safe for concurrent use.
type Auditor struct {
	pool *cert.Pool

	mu     sync.Mutex
	seen   map[dictionary.CAID]map[uint64]*dictionary.SignedRoot
	proofs []*dictionary.MisbehaviorProof
}

// NewAuditor creates an auditor trusting the CA keys in pool.
func NewAuditor(pool *cert.Pool) *Auditor {
	return &Auditor{
		pool: pool,
		seen: make(map[dictionary.CAID]map[uint64]*dictionary.SignedRoot),
	}
}

// Observe records one signed root. It returns a misbehavior proof if the
// root equivocates against a previously observed root of the same size,
// and an error if the root itself does not verify. Equivocation is not an
// error: the proof is the (successful) detection result.
func (a *Auditor) Observe(root *dictionary.SignedRoot) (*dictionary.MisbehaviorProof, error) {
	if root == nil {
		return nil, fmt.Errorf("monitor: nil signed root")
	}
	pub, ok := a.pool.CAKey(root.CA)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUntrustedCA, root.CA)
	}
	if err := root.VerifySignature(pub); err != nil {
		return nil, err
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	byN, ok := a.seen[root.CA]
	if !ok {
		byN = make(map[uint64]*dictionary.SignedRoot)
		a.seen[root.CA] = byN
	}
	prev, ok := byN[root.N]
	if !ok {
		byN[root.N] = root
		return nil, nil
	}
	proof, err := dictionary.CheckEquivocation(prev, root, pub)
	if errors.Is(err, dictionary.ErrNoMisbehavior) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	a.proofs = append(a.proofs, proof)
	return proof, nil
}

// CheckAppendOnly verifies that two observed roots are prefix-consistent
// under the full issuance log held by some replica: failing means the CA
// rewrote history between the two versions (§V: revocation reordering or
// deletion). A nil return means the log explains both roots.
func (a *Auditor) CheckAppendOnly(log []serial.Number, older, newer *dictionary.SignedRoot) error {
	if older == nil || newer == nil {
		return fmt.Errorf("monitor: nil signed root")
	}
	pub, ok := a.pool.CAKey(older.CA)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUntrustedCA, older.CA)
	}
	return dictionary.VerifyPrefix(log, older, newer, pub)
}

// Proofs returns a copy of every misbehavior proof collected so far.
func (a *Auditor) Proofs() []*dictionary.MisbehaviorProof {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*dictionary.MisbehaviorProof, len(a.proofs))
	copy(out, a.proofs)
	return out
}

// MapServer is the registry of §III: it stores the parties (RAs, edge
// servers) willing to exchange their dictionary views, so that consistency
// checking is not limited to the handful of edge servers DNS happens to
// return. It is safe for concurrent use.
type MapServer struct {
	mu      sync.RWMutex
	sources map[string]RootSource
}

// NewMapServer creates an empty registry.
func NewMapServer() *MapServer {
	return &MapServer{sources: make(map[string]RootSource)}
}

// Register adds (or replaces) a named source.
func (m *MapServer) Register(id string, src RootSource) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sources[id] = src
}

// Source returns a registered source.
func (m *MapServer) Source(id string) (RootSource, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	src, ok := m.sources[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSource, id)
	}
	return src, nil
}

// IDs lists the registered source names, sorted.
func (m *MapServer) IDs() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.sources))
	for id := range m.sources {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// CrossCheckResult reports one consistency-checking pass.
type CrossCheckResult struct {
	// RootsCompared counts the roots successfully fetched and observed.
	RootsCompared int
	// Proofs are the equivocations detected during this pass.
	Proofs []*dictionary.MisbehaviorProof
	// Errors are per-source fetch or verification failures (the pass
	// continues past them: an unreachable RA must not stop auditing).
	Errors []error
}

// CrossCheck fetches the latest root for ca from every source registered
// with the map server and feeds them to the auditor. This is the
// "periodically request a random edge server for its copy of the signed
// root" procedure of §III, run across the full membership.
func CrossCheck(m *MapServer, a *Auditor, ca dictionary.CAID) *CrossCheckResult {
	res := &CrossCheckResult{}
	for _, id := range m.IDs() {
		src, err := m.Source(id)
		if err != nil {
			res.Errors = append(res.Errors, err)
			continue
		}
		root, err := src.LatestRoot(ca)
		if err != nil {
			res.Errors = append(res.Errors, fmt.Errorf("source %s: %w", id, err))
			continue
		}
		proof, err := a.Observe(root)
		if err != nil {
			res.Errors = append(res.Errors, fmt.Errorf("source %s: %w", id, err))
			continue
		}
		res.RootsCompared++
		if proof != nil {
			res.Proofs = append(res.Proofs, proof)
		}
	}
	return res
}

// Gossip compares the views of two peers directly (the client-gossip
// alternative of §III): both roots for ca are observed by the auditor, and
// any equivocation between them surfaces as a proof.
func Gossip(a *Auditor, ca dictionary.CAID, peerA, peerB RootSource) (*dictionary.MisbehaviorProof, error) {
	rootA, err := peerA.LatestRoot(ca)
	if err != nil {
		return nil, fmt.Errorf("monitor: gossip peer A: %w", err)
	}
	rootB, err := peerB.LatestRoot(ca)
	if err != nil {
		return nil, fmt.Errorf("monitor: gossip peer B: %w", err)
	}
	if _, err := a.Observe(rootA); err != nil {
		return nil, err
	}
	return a.Observe(rootB)
}
