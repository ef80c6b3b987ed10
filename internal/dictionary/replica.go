package dictionary

import (
	"crypto/ed25519"
	"fmt"
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
	r.snap.Store(newSnapshot(ca, r.tree, nil, cryptoutil.Hash{}, 0, 0))
	return r
}

// publish freezes the current state as the next snapshot. Caller holds mu.
func (r *Replica) publish() {
	r.gen++
	r.snap.Store(newSnapshot(r.ca, r.tree, r.root, r.freshness, r.freshPer, r.gen))
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

// Revoked reports whether s is revoked in the replica's current view.
func (r *Replica) Revoked(s serial.Number) bool { return r.snap.Load().Revoked(s) }

// Update applies an issuance message (Fig 2, update): it verifies the
// signature, checks that the batch extends the local count contiguously,
// replays the insertions, and commits only if the rebuilt root and count
// equal the signed values. On any failure the replica is left unchanged.
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
	} else {
		// The checkpoint is the state of the last published snapshot, so
		// restoring it costs O(batch).
		cp := r.tree.checkpoint()
		err := r.tree.extend(msg.Serials, msg.Root.N)
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

// FreshnessAge returns how many periods old the stored freshness statement
// is relative to now; RAs use it to decide whether a new status must be
// pushed on established connections (§III step 6).
func (r *Replica) FreshnessAge(now int64) (int, error) {
	snap := r.snap.Load()
	if snap.Root() == nil {
		return 0, fmt.Errorf("%w: replica has no signed root", ErrDesynchronized)
	}
	return snap.Root().Period(now) - snap.FreshnessPeriod(), nil
}

// Log returns a copy of the replica's issuance log (for consistency
// checking and resynchronization serving between RAs). It reads the
// published snapshot, lock-free: a mid-update, not-yet-verified log is
// never exposed.
func (r *Replica) Log() []serial.Number {
	return r.snap.Load().Log()
}

// LogSuffix returns the serials with revocation numbers in (from, to]; the
// distribution point serves it to resynchronize lagging replicas (§III).
// Like Log it reads the published snapshot without locking; callers
// needing the suffix consistent with a root should take one Snapshot and
// use its accessors.
func (r *Replica) LogSuffix(from, to uint64) ([]serial.Number, error) {
	return r.snap.Load().LogSuffix(from, to)
}

// Freshness returns the latest verified freshness-statement value. Before
// any statement arrives it is the signed root's anchor (the period-0 value),
// and before the first update it is the zero hash.
func (r *Replica) Freshness() cryptoutil.Hash {
	return r.snap.Load().Freshness()
}

// SerializedSize reports the canonical serialized size of the replica's
// dictionary (the §VII-D storage-overhead metric).
func (r *Replica) SerializedSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tree.SerializedSize()
}

// MemoryFootprint estimates resident memory of the replica's tree.
func (r *Replica) MemoryFootprint() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tree.MemoryFootprint()
}
