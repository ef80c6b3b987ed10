package dictionary

import (
	"fmt"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// Snapshot is one immutable, self-contained version of a replicated
// dictionary: the frozen run of sorted leaves and levels, the signed root
// it verifies against, and the freshness statement for the period the snapshot
// was published in. A Replica publishes a new Snapshot atomically after
// every verified update or freshness refresh; readers obtain one with
// Replica.Snapshot and may then call Prove, Revoked, and the accessors with
// zero locking, forever — the arrays are never written again (the tree's
// copy-on-write rebuild guarantees it). It is the one snapshot type, over
// one byte layout: the view of a replica opened over a mapped checkpoint
// (OpenMappedReplica) reads the checkpoint's sections where an ordinary
// replica's reads the arrays its rebuilds wrote, with byte-identical proofs,
// and such a snapshot is valid for as long as that mapping is.
//
// The paper's observation that makes snapshots worthwhile (§III, §VI): a
// revocation status is immutable for a whole ∆ window. Proof, signed root,
// and freshness statement only change when a new root or freshness
// statement arrives, so one Generation value summarizes everything a
// status depends on. Caches key on (CA, serial) and compare generations:
// equal generation ⇒ byte-identical status.
type Snapshot struct {
	ca        CAID
	view      run
	base      uint64          // revocations below the log; see Tree.base
	log       []serial.Number // issuance order above base; immutable
	bounds    []uint64        // Tree.bounds above base, for checkpoints; immutable
	root      *SignedRoot     // nil until the replica's first verified update
	rootEnc   []byte          // memoized root encoding; spliced into statuses
	freshness cryptoutil.Hash
	freshPer  int    // period the freshness value was verified for
	gen       uint64 // publication counter; strictly increasing per replica
}

// newSnapshot freezes the tree's current version together with the
// authentication state. The caller (Replica) must hold its writer lock so
// that tree, root, and freshness are mutually consistent. The log slice is
// shared with the tree: InsertBatch only ever appends (and a failed-update
// rollback replaces the whole array), so the first Count() elements this
// header covers are never written again.
func newSnapshot(ca CAID, t *Tree, root *SignedRoot, freshness cryptoutil.Hash, freshPer int, gen uint64) *Snapshot {
	s := &Snapshot{
		ca:        ca,
		view:      t.view(),
		base:      t.base,
		log:       t.log,
		bounds:    t.bounds,
		root:      root,
		freshness: freshness,
		freshPer:  freshPer,
		gen:       gen,
	}
	if root != nil {
		// Encode the root once per publication: every status proved from
		// this snapshot splices these bytes instead of re-encoding the
		// (immutable) root per call.
		s.rootEnc = root.Encode()
	}
	return s
}

// CA returns the CA whose dictionary the snapshot belongs to.
func (s *Snapshot) CA() CAID { return s.ca }

// Generation returns the snapshot's publication counter. Generations are
// strictly increasing per replica; two statuses proved from snapshots of
// equal generation are identical, which is the cache-invalidation contract
// the RA's status cache builds on.
func (s *Snapshot) Generation() uint64 { return s.gen }

// Root returns the signed root the snapshot's proofs verify against, or
// nil for the initial (never-updated) snapshot.
func (s *Snapshot) Root() *SignedRoot { return s.root }

// Freshness returns the freshness-statement value current at publication.
func (s *Snapshot) Freshness() cryptoutil.Hash { return s.freshness }

// FreshnessPeriod returns the period index the freshness value was
// verified for.
func (s *Snapshot) FreshnessPeriod() int { return s.freshPer }

// Count returns the number of revocations in the snapshot.
func (s *Snapshot) Count() uint64 { return s.base + uint64(len(s.log)) }

// RootHash returns the tree root hash of the snapshot.
func (s *Snapshot) RootHash() cryptoutil.Hash { return s.view.root() }

// Log returns a copy of the issuance-ordered serial log of this version
// (of the part above the checkpoint, for a replica opened over a mapped one).
func (s *Snapshot) Log() []serial.Number {
	return append([]serial.Number(nil), s.log...)
}

// LogSuffix returns the serials with revocation numbers in (from, to] of
// this version, lock-free: the dissemination network serves catch-up
// suffixes from the same frozen version as the signed root and freshness
// statement, so a response can never tear across a concurrent update.
//
// Aliasing contract: the result is a capacity-clipped sub-slice of the
// snapshot's log, not a copy. The snapshot was taken at a published state
// — a rollback never rewinds below it, and appends only write positions
// past its length — so every position the suffix covers is frozen forever
// (same contract as Tree.LogSuffix).
func (s *Snapshot) LogSuffix(from, to uint64) ([]serial.Number, error) {
	return logSuffix(s.log, s.base, from, to)
}

// Revoked reports whether sn is revoked in this version.
func (s *Snapshot) Revoked(sn serial.Number) bool {
	_, ok := s.view.revoked(sn)
	return ok
}

// Prove produces the revocation status for sn (Fig 2, prove) from the
// frozen version: presence/absence proof, signed root, and freshness
// statement. It takes no locks and allocates only the proof itself. It
// fails with ErrDesynchronized on the initial snapshot, before the
// replica's first verified update.
func (s *Snapshot) Prove(sn serial.Number) (*Status, error) {
	if s.root == nil {
		return nil, fmt.Errorf("%w: replica has no signed root", ErrDesynchronized)
	}
	return &Status{
		Proof:     s.view.prove(sn),
		Root:      s.root,
		Freshness: s.freshness,
		rootEnc:   s.rootEnc,
	}, nil
}
