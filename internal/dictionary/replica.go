package dictionary

import (
	"crypto/ed25519"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// Replica is the RA side of a dictionary: a full copy of one CA's
// dictionary that is updated only through verified issuance messages
// (Fig 2, update) and freshness statements, and that produces revocation
// statuses for clients (Fig 2, prove).
//
// Replica is safe for concurrent use and optimized for the RA's workload:
// one fetcher goroutine writing every ∆, thousands of DPI goroutines
// proving on the TLS handshake path. Writers serialize on an internal
// mutex, rebuild the tree copy-on-write, and publish the result as an
// immutable Snapshot through an atomic pointer; readers load the pointer
// and never block — a Prove observes either the previous or the new
// version, both of which verify against a CA-signed root.
type Replica struct {
	ca  CAID
	pub ed25519.PublicKey

	// snap is the current published version; never nil (the initial
	// snapshot is empty with a nil signed root).
	snap atomic.Pointer[Snapshot]

	mu        sync.Mutex
	tree      *Tree
	root      *SignedRoot     // latest verified signed root, nil until first update
	freshness cryptoutil.Hash // latest verified freshness statement value
	freshPer  int             // period the statement was verified for
	gen       uint64          // publication counter behind the snapshots
}

// NewReplica creates an empty replica of the dictionary of the given CA.
// The public key is the trust anchor against which every signed root is
// verified; it normally comes from the CA's certificate.
func NewReplica(ca CAID, pub ed25519.PublicKey) *Replica {
	r := &Replica{ca: ca, pub: pub, tree: NewTree()}
	r.snap.Store(newSnapshot(r.tree, nil, cryptoutil.Hash{}, 0, 0))
	return r
}

// publish freezes the current state as the next snapshot. Caller holds mu.
func (r *Replica) publish() {
	r.gen++
	r.snap.Store(newSnapshot(r.tree, r.root, r.freshness, r.freshPer, r.gen))
}

// Snapshot returns the current published version. The result is immutable
// and remains provable forever; callers needing several consistent reads
// (root + proof + freshness) should take one snapshot and use it for all
// of them.
func (r *Replica) Snapshot() *Snapshot { return r.snap.Load() }

// CurrentGeneration returns the generation of the current snapshot.
// Generation-validated caches (ra's status cache) use it to test entry
// staleness without retaining the snapshot itself.
func (r *Replica) CurrentGeneration() uint64 { return r.snap.Load().Generation() }

// CA returns the CA whose dictionary this replica mirrors.
func (r *Replica) CA() CAID { return r.ca }

// PublicKey returns the trust anchor every signed root is verified
// against. Recovery paths use it to build a replacement replica with the
// same trust relationship (see ra.RA.Resync).
func (r *Replica) PublicKey() ed25519.PublicKey { return r.pub }

// Count returns the replica's revocation count n.
func (r *Replica) Count() uint64 { return r.snap.Load().Count() }

// Root returns the latest verified signed root, or nil before the first
// successful update.
func (r *Replica) Root() *SignedRoot { return r.snap.Load().Root() }

// Update applies an issuance message (Fig 2, update): it verifies the
// signature, checks that the batch extends the local count contiguously,
// replays the insertions, and commits only if the rebuilt root and count
// equal the signed values. A message straight from Authority.Insert in this
// process skips the replay when the replica holds the state the authority
// inserted into: it adopts the authority's rebuilt tree, whose root and
// count it checks against the signed ones (see adopt). On any failure the
// replica is left unchanged.
// On success the new version is published atomically; in-flight Prove
// calls keep using the previous snapshot, which stays valid.
//
// A count gap (the message starts beyond our log) returns
// ErrDesynchronized; the caller should resynchronize via the sync protocol
// (§III), requesting the log suffix after Count(). A message coalescing
// several of the authority's batches (a catch-up suffix) is replayed as one
// batch.
func (r *Replica) Update(msg *IssuanceMessage) error {
	if msg == nil || msg.Root == nil {
		return fmt.Errorf("dictionary: nil issuance message")
	}
	if msg.Root.CA != r.ca {
		return fmt.Errorf("dictionary: issuance message for %s applied to replica of %s", msg.Root.CA, r.ca)
	}
	if err := msg.Root.VerifySignature(r.pub); err != nil {
		return err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if have := r.tree.Count(); msg.Root.N == have && len(msg.Serials) == 0 {
		// Root-only refresh (chain rotation with no new revocations).
		if !msg.Root.Root.Equal(r.tree.Root()) {
			return fmt.Errorf("%w: rotated root differs at n=%d", ErrRootMismatch, have)
		}
		if msg.Root.Equal(r.root) {
			// The dissemination network re-delivered the root we already
			// hold (every pull carries the latest root). Publishing would
			// bump the snapshot generation and flush every cached status
			// of this CA for nothing — and regress the freshness value to
			// the anchor until the statement is re-applied. Keep the
			// current snapshot.
			return nil
		}
	} else if !r.adopt(msg) {
		// The checkpoint is the state of the last published snapshot, so
		// restoring it costs O(batch). The replay lays the new version out
		// in its own checkpoint image, which PersistentStateV2 hands over
		// as it is.
		cp := r.tree.checkpoint()
		err := r.tree.extend(msg.Serials, msg.Root.N, rootSectionLen(msg.Root))
		if err == nil && !r.tree.Root().Equal(msg.Root.Root) {
			// The signed root does not match what an honest replay
			// produces (update step 3).
			err = ErrRootMismatch
		}
		if err != nil {
			r.tree.rollback(cp)
			return err
		}
	}
	r.root = msg.Root
	// A new signed root restarts the freshness chain at period 0; its
	// anchor doubles as the period-0 statement.
	r.freshness = msg.Root.Anchor
	r.freshPer = 0
	r.publish()
	return nil
}

// adopt installs the tree the authority rebuilt for msg, when msg is the
// unaltered message of an authority in this process and this replica holds
// exactly the state that authority inserted the batch into: its count and
// root before the insert, the batch as the authority logged it, and a
// rebuilt root and count equal to the signed ones — the state a replay would
// reach and accept. Anything else, including every message that was encoded
// on the way, returns false and is replayed. Caller holds mu; the signature
// is already verified.
func (r *Replica) adopt(msg *IssuanceMessage) bool {
	b := msg.built
	if b == nil || r.tree.Count() != b.prevN || !r.tree.Root().Equal(b.prevRoot) ||
		msg.Root.N != b.prevN+uint64(len(b.batch)) ||
		!slices.EqualFunc(msg.Serials, b.batch, serial.Number.Equal) || !b.take() ||
		!b.run.root().Equal(msg.Root.Root) {
		return false
	}
	r.tree.adopt(b.run, msg.Serials)
	return true
}

// ApplyFreshness verifies a freshness statement against the chain and,
// if it is strictly newer than the adopted one (and no newer than the
// current period), replaces it (§III "Dissemination"), publishing a new
// snapshot generation. Any genuinely newer statement is adopted — not
// just the {p, p−1} window a live pull sees — because recovery replay
// and shared readers re-verify statements long after they were first
// adopted; the client's 2∆ tolerance is enforced at Status.Check.
func (r *Replica) ApplyFreshness(st *FreshnessStatement, now int64) error {
	if st == nil {
		return fmt.Errorf("dictionary: nil freshness statement")
	}
	if st.CA != r.ca {
		return fmt.Errorf("dictionary: freshness statement for %s applied to replica of %s", st.CA, r.ca)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.root == nil {
		return fmt.Errorf("%w: no signed root yet", ErrDesynchronized)
	}
	p := r.root.Period(now)
	if p > int(r.root.ChainLen) {
		return fmt.Errorf("%w: signed root expired", ErrStale)
	}
	if st.Value.Equal(r.freshness) {
		return nil // no change; keep the published generation
	}
	if k := freshnessGap(st.Value, r.freshness, p-r.freshPer); k > 0 {
		r.freshness = st.Value
		r.freshPer += k
		r.publish()
		return nil
	}
	return fmt.Errorf("%w: freshness statement does not verify for period %d", ErrStale, p)
}

// Prove produces the revocation status for s (Fig 2, prove): the
// presence/absence proof, the signed root, and the latest freshness
// statement, all read from one consistent snapshot with no locking. It
// fails with ErrDesynchronized before the first update.
func (r *Replica) Prove(s serial.Number) (*Status, error) {
	return r.snap.Load().Prove(s)
}

// Log returns a copy of the replica's issuance log (for consistency
// checking and resynchronization serving between RAs). It reads the
// published snapshot, lock-free: a mid-update, not-yet-verified log is
// never exposed.
func (r *Replica) Log() []serial.Number {
	return r.snap.Load().Log()
}

// MemoryFootprint estimates resident memory of the replica's tree.
func (r *Replica) MemoryFootprint() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tree.MemoryFootprint()
}
