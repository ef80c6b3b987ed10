// Package dictionary implements RITM's core contribution: the append-only
// authenticated dictionary that every CA maintains for its revocations and
// that every Revocation Agent replicates (§III of the paper, Fig 2).
//
// The dictionary is a hash structure whose leaves are (serial number ‖
// revocation number) pairs. Revocations are numbered consecutively from 1 in
// issuance order, which fixes the insertion history; leaves are sorted
// lexicographically by serial number, which makes both presence and absence
// efficiently provable. A CA-signed root {root, n, Hᵐ(v), t} commits to the
// dictionary contents, the revocation count, a hash-chain anchor for
// freshness statements, and the signing time.
//
// The commitment is one flat sorted hash tree over all leaves, every interior
// level kept so that audit paths come out in O(log n) without recomputation.
//
// Three roles interact with a dictionary:
//
//   - the Authority (a CA) inserts revocations, signs roots, and emits
//     freshness statements every ∆;
//   - a Replica (an RA) replays insertions, accepts them only when its
//     rebuilt root matches the signed root, and produces revocation
//     statuses (proof + signed root + freshness statement);
//   - a verifier (a RITM client) checks a Status against the CA public key
//     and the 2∆ freshness policy, with no dictionary state of its own.
package dictionary

import (
	"errors"
	"fmt"
	"slices"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// Errors returned by dictionary operations.
var (
	// ErrDuplicateSerial reports an insert of an already-revoked serial.
	ErrDuplicateSerial = errors.New("dictionary: serial already revoked")
	// ErrRootMismatch reports that a replayed update does not reproduce the
	// CA-signed root (Fig 2, update step 3).
	ErrRootMismatch = errors.New("dictionary: rebuilt root does not match signed root")
	// ErrBadProof reports a presence/absence proof that fails verification.
	ErrBadProof = errors.New("dictionary: invalid proof")
	// ErrStale reports a freshness statement older than the 2∆ policy allows.
	ErrStale = errors.New("dictionary: revocation status is stale")
	// ErrDesynchronized reports a replica that is missing issuance messages.
	ErrDesynchronized = errors.New("dictionary: replica out of sync with authority")
	// ErrRevoked reports a presence proof: the certificate is revoked.
	ErrRevoked = errors.New("dictionary: certificate is revoked")
	// ErrCount reports an issuance message whose revocation count does not
	// extend the replica's count contiguously.
	ErrCount = errors.New("dictionary: non-contiguous revocation count")
)

// EmptyRoot is the root hash of a dictionary with no revocations. A fixed
// sentinel (rather than a zero hash) keeps the empty dictionary
// domain-separated from any real node value.
var EmptyRoot = cryptoutil.HashBytes([]byte("RITM/empty-tree/v1"))

// Leaf is one revocation: the certificate serial number and the revocation's
// sequence number (1-based, consecutive per dictionary).
type Leaf struct {
	Serial serial.Number
	Num    uint64
}

// hash returns the domain-separated leaf hash. The preimage is the
// canonical wire encoding (length-prefixed serial bytes, then Num as a
// uvarint), assembled on the stack: this is the verifier's path and must
// not allocate. Rebuilds hash the same bytes through the tree's digest
// (rebuilder).
func (l Leaf) hash() cryptoutil.Hash {
	return cryptoutil.HashLeafSerial(l.Serial.Raw(), l.Num)
}

// Tree is a dictionary: the issuance log and the sorted hash tree over it —
// the one index from serial to revocation number there is. It is a mutable
// structure owned by a single Authority or Replica; it performs no locking of
// its own.
//
// A batch insert merges the new leaves into the sorted order and rebuilds the
// levels around them (rebuilder): every leaf right of an insertion point
// shifts, so every array is rewritten from the first insertion point on —
// O(n) moved bytes for a batch anywhere but the right edge, the paper's
// "insert sₓ,n into the tree and rebuild it" — but a node is only rehashed
// where the shift breaks its alignment. A batch at the right edge of the
// serial space costs O(k·log n) hashes and moves; a uniform batch moves
// everything and hashes about two thirds of the interior nodes.
//
// Mutations are copy-on-write: InsertBatch never writes into arrays
// reachable from a previously taken view, so a run frozen before a mutation
// (see Snapshot) stays valid and immutable forever. Copy-on-write only
// requires fresh arrays for what somebody else can still reach, so exposure
// is tracked exactly: arrays an insert built are private until view or
// checkpoint hands them out, and a second insert in the same private window
// (a replayed WAL between one publish and the next) merges into them in
// place with zero reallocation.
type Tree struct {
	rebuilder
	// commit is the whole dictionary as one run: arrays an insert built, or
	// the sections of the checkpoint the tree was opened over, which the
	// first insert reads as its copy-on-write source like any exposed run.
	commit run
	// owned marks commit's arrays as private scratch: (re)built since the
	// last view/checkpoint, so no snapshot or captured checkpoint can reach
	// them and an insert may extend them in place.
	owned bool
	// base is the number of revocations the tree holds without their log
	// entries or batch bounds: 0 for a tree that holds its whole log (grown
	// from empty, or restarted over its own checkpoint), the checkpoint's
	// count for one a co-located reader opened over a mapped checkpoint (see
	// OpenMappedReplica), whose history up to there is the writer's to serve.
	base uint64
	log  []serial.Number // issuance order; log[i] has Num == base+i+1
	// bounds records the cumulative revocation count after each InsertBatch,
	// strictly increasing, the last equal to Count(): the checkpoint format's
	// batches section, which every reader of the format validates. The root
	// does not depend on it.
	bounds []uint64
}

// NewTree returns an empty dictionary tree.
func NewTree() *Tree { return &Tree{} }

// HashedNodes returns the cumulative number of hash computations performed
// by inserts — the per-∆-cycle cost metric of the rebuild benchmarks.
func (t *Tree) HashedNodes() uint64 { return t.hashed }

// view returns the tree's current immutable proving state and marks its
// arrays exposed: no later insert may write them in place.
func (t *Tree) view() run {
	t.owned = false
	return t.commit
}

// Count returns n, the number of revocations in the dictionary.
func (t *Tree) Count() uint64 { return t.base + uint64(len(t.log)) }

// Root returns the current root hash (EmptyRoot when the tree is empty)
// without exposing the arrays, so a root check between replayed batches does
// not end the private window.
func (t *Tree) Root() cryptoutil.Hash { return t.commit.root() }

// Revoked reports whether s is in the dictionary, and its revocation number.
func (t *Tree) Revoked(s serial.Number) (uint64, bool) { return t.commit.revoked(s) }

// Log returns a copy of the issuance-ordered serial log. Replaying the log
// into an empty tree reproduces the dictionary exactly; it is the canonical
// serialized form.
func (t *Tree) Log() []serial.Number {
	out := make([]serial.Number, len(t.log))
	copy(out, t.log)
	return out
}

// LogSuffix returns the serials with revocation numbers in (from, to], used
// by the dissemination sync protocol to catch a replica up.
//
// Aliasing contract: the result is a capacity-clipped sub-slice of the
// tree's log, not a copy. The log is append-only — InsertBatch writes only
// positions at or past the current length, never ones an earlier suffix
// covered — so a returned suffix is immutable for as long as the caller
// holds it. The one writer that rewinds the log (Replica's rollback) only
// rewinds to the last published snapshot, and suffixes of a replica are
// handed out via Snapshot.LogSuffix at exactly that published state, so no
// live suffix ever extends past a point a rollback can rewrite. The
// three-index slice caps capacity at the suffix length, so a caller's own
// append cannot write into the tree's log either.
func (t *Tree) LogSuffix(from, to uint64) ([]serial.Number, error) {
	return logSuffix(t.log, t.base, from, to)
}

// logSuffix slices (from, to] out of a log whose first entry is revocation
// number base+1.
func logSuffix(log []serial.Number, base, from, to uint64) ([]serial.Number, error) {
	if from > to || from < base || to > base+uint64(len(log)) {
		return nil, fmt.Errorf("dictionary: log suffix (%d, %d] of (%d, %d]", from, to, base, base+uint64(len(log)))
	}
	return log[from-base : to-base : to-base], nil
}

// InsertBatch revokes the given serials, assigning consecutive revocation
// numbers in slice order, and rebuilds the tree. It validates the whole
// batch before mutating anything, so on error the tree is unchanged.
func (t *Tree) InsertBatch(serials []serial.Number) error {
	if len(serials) == 0 {
		return nil
	}
	// Validate first: no serial may repeat, within the batch or historically.
	// In-batch duplicates are adjacent after the sort, and historic ones fall
	// out of one search per serial — walked in sorted order, so consecutive
	// searches touch neighbouring leaves — without a per-batch set or a
	// serial index to keep in step with the tree.
	newLeaves := make([]Leaf, len(serials))
	next := t.Count() + 1
	for i, s := range serials {
		if s.IsZero() {
			return fmt.Errorf("dictionary: insert of zero-value serial")
		}
		newLeaves[i] = Leaf{Serial: s, Num: next + uint64(i)}
	}
	sortLeaves(newLeaves)
	for i, lf := range newLeaves {
		if i > 0 && lf.Serial.Compare(newLeaves[i-1].Serial) == 0 {
			return fmt.Errorf("%w: %v appears twice in batch", ErrDuplicateSerial, lf.Serial)
		}
		if _, dup := t.commit.revoked(lf.Serial); dup {
			return fmt.Errorf("%w: %v", ErrDuplicateSerial, lf.Serial)
		}
	}

	// Commit: log in issuance order, then merge the sorted batch
	// copy-on-write: the previous version's arrays — possibly aliased by a
	// published Snapshot — are never touched.
	for _, s := range serials {
		t.log = append(t.log, s)
	}
	t.commit = t.rebuild(t.commit, newLeaves, t.owned)
	t.owned = true
	t.bounds = append(t.bounds, t.Count())
	return nil
}

// extend replays a batch recorded as ending at revocation count n. The
// batch must continue the tree's count exactly — ErrDesynchronized when it
// starts beyond it, ErrCount when it does not add up to n — and is inserted
// as one batch however many of the authority's batches it coalesces: a
// sorted root depends on content alone, so a lagging replica's catch-up is a
// single O(n) merge, not one per original ∆ batch.
func (t *Tree) extend(serials []serial.Number, n uint64) error {
	have := t.Count()
	if end := have + uint64(len(serials)); n > end {
		return fmt.Errorf("%w: have %d revocations, batch of %d covers up to %d", ErrDesynchronized, have, len(serials), n)
	} else if n < end {
		return fmt.Errorf("%w: count %d does not extend local count %d by %d", ErrCount, n, have, len(serials))
	}
	return t.InsertBatch(serials)
}

// treeCheckpoint captures one version of the tree for O(batch) rollback.
// Thanks to copy-on-write the capture is O(1): the checkpointed arrays are
// never written again, only replaced.
type treeCheckpoint struct {
	state     run
	logLen    int
	boundsLen int
}

// checkpoint freezes the tree's current version. Replica.Update takes one
// before replaying a batch; the checkpointed state is exactly the state of
// the replica's last published snapshot. The captured arrays may be held
// until an arbitrarily later rollback, so they are exposed.
func (t *Tree) checkpoint() treeCheckpoint {
	return treeCheckpoint{state: t.view(), logLen: len(t.log), boundsLen: len(t.bounds)}
}

// rollback rewinds the tree to cp, undoing the InsertBatch made since the
// checkpoint: the run is restored (O(1)) and the log and bounds are
// truncated. There is nothing else to rewind — the run is the serial index —
// so a hostile batch that re-lists serials revoked long ago cannot evict them
// on its way out. The private scratch the failed batch built is dropped for
// the collector.
func (t *Tree) rollback(cp treeCheckpoint) {
	t.commit, t.owned = cp.state, false
	// Truncating the slice header never writes the array, so snapshots
	// sharing the log stay intact; later appends only touch positions the
	// failed batch wrote, which no published snapshot covers.
	t.log = t.log[:cp.logLen]
	t.bounds = t.bounds[:cp.boundsLen]
}

// Prove produces a presence or absence proof for s against the current tree
// (Fig 2, prove step 1). The proof verifies against Root() and Count().
func (t *Tree) Prove(s serial.Number) *Proof {
	v := t.view()
	return v.prove(s)
}

// SerializedSize returns the size in bytes of the canonical serialized form
// (the issuance log), which is what a distribution point stores and ships.
func (t *Tree) SerializedSize() int {
	size := 0
	for _, s := range t.log {
		size += 1 + s.Len() // uvarint length (serials are ≤20 bytes) + bytes
	}
	return size
}

// MemoryFootprint estimates the resident bytes of the tree structure: the
// hashed run and the log. It is an analytic estimate used by the
// storage-overhead experiment (§VII-D).
func (t *Tree) MemoryFootprint() int {
	total := t.commit.footprint()
	for _, s := range t.log {
		total += 24 + s.Len()
	}
	return total
}

func sortLeaves(leaves []Leaf) {
	// Equal serials only occur transiently during InsertBatch validation
	// (where they are rejected); their relative order is irrelevant, so the
	// comparison needs no tiebreaker.
	slices.SortFunc(leaves, func(a, b Leaf) int { return a.Serial.Compare(b.Serial) })
}
