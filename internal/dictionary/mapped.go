package dictionary

import (
	"crypto/ed25519"
	"fmt"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// Mapped serving: MappedSnapshot is the read side of the Snapshot contract
// for processes that share one checkpoint directory instead of owning a heap
// replica. It proves through the same views and the same walker as a heap
// snapshot — only the runs behind them read leaves and hashes out of a v2
// checkpoint's bytes (typically an mmap'd file) instead of Go slices — so
// mapped proofs are BYTE-IDENTICAL to heap ones; the cross-layout property
// suite pins the equivalence.
//
// WAL overlay. A checkpoint lags the WAL by up to CheckpointEvery records.
// A MappedSnapshot therefore applies the WAL suffix to a heap layout built
// over the mapped base (MappedState.heapLayout):
//
//   - forest: only the buckets an overlaid batch touches are copied onto
//     the heap (≤ cap leaves each); untouched buckets keep serving from the
//     map. The spine is copied to the heap — O(#buckets) — and maintained
//     by the ordinary forest insert, so the recomputed root must equal each
//     record's CA-signed root, which is verified loudly.
//   - sorted: the whole structure is copied first (a sorted-layout insert
//     rewrites the arrays to the right of the insertion point, so there is
//     no small delta to isolate — the documented O(n) overlay cost;
//     deployments that co-locate RAs are expected to run the forest
//     layout).
//
// When the WAL suffix is empty — the steady state right after the writer's
// checkpoint — the snapshot serves pure-mapped with zero dictionary heap.

// MappedSnapshot is one immutable version of a dictionary served from a
// mapped v2 checkpoint plus an in-heap WAL-suffix overlay. It implements
// the read side of the Snapshot contract — Prove, Revoked, Root,
// Freshness, Generation — without holding the issuance log or the serial
// index on the heap, which is what makes the marginal memory cost of an
// additional co-located RA O(overlay) instead of O(n).
//
// Construction verifies what the serving role requires: the embedded
// signed root's signature against the trust anchor, its agreement with
// the checkpoint's structural root and count (done by OpenMappedState),
// and — for every overlaid WAL record — that the recomputed root equals
// the record's CA-signed root, the same acceptance rule Replica.Update
// applies to a message fresh off the network.
//
// Like Snapshot, a constructed MappedSnapshot is immutable and safe for
// unsynchronized concurrent use. The caller owns the lifetime of the
// mapped checkpoint bytes, which must outlive the snapshot.
type MappedSnapshot struct {
	ca        CAID
	layout    LayoutKind
	view      LayoutView
	count     uint64
	root      *SignedRoot
	rootEnc   []byte // memoized root encoding; spliced into statuses
	freshness cryptoutil.Hash
	freshPer  int
	gen       uint64
	overlaid  int // WAL update records applied on top of the base
}

// NewMappedSnapshot opens state (a v2 checkpoint payload, typically
// mmap'd), overlays the WAL suffix, and returns the resulting serving
// snapshot. An empty state is a log whose writer has not checkpointed yet:
// the base is then the empty dictionary of the configured layout, overlaid
// like any other. pub is the trust anchor; layout must equal the persisted
// descriptor. now is the Unix time used to evaluate freshness statements;
// gen is the reader-assigned generation (readers bump it per re-map, which
// preserves the strictly-increasing cache contract locally).
func NewMappedSnapshot(ca CAID, pub ed25519.PublicKey, layout LayoutKind, state []byte, wal [][]byte, now int64, gen uint64) (*MappedSnapshot, error) {
	if len(state) == 0 {
		state = encodeStateV2(layout, newLayout(layout).view(), nil, nil, cryptoutil.Hash{}, nil)
	}
	st, err := OpenMappedState(state)
	if err != nil {
		return nil, err
	}
	if st.layout != layout {
		return nil, fmt.Errorf("dictionary: %s persisted with layout %v, configured for %v (the layout — bucket capacity included — is part of the committed state; wipe the data dir to change it)",
			ca, st.layout, layout)
	}
	root := st.root
	if root != nil {
		if root.CA != ca {
			return nil, fmt.Errorf("dictionary: checkpoint root names %s, mapping for %s", root.CA, ca)
		}
		if err := root.VerifySignature(pub); err != nil {
			return nil, fmt.Errorf("dictionary: mapped checkpoint for %s: %w", ca, err)
		}
	}

	s := &MappedSnapshot{ca: ca, layout: layout, count: st.Count(), root: root, gen: gen}
	// Base freshness, best-effort like RestoreReplica: adopt the recorded
	// value if it chains to the anchor at any period up to the current
	// one; otherwise the anchor (the period-0 statement) serves until the
	// writer refreshes.
	if root != nil {
		s.freshness = root.Anchor
		if !st.freshness.IsZero() {
			if k := freshnessGap(st.freshness, s.freshness, root.Period(now)); k > 0 {
				s.freshness = st.freshness
				s.freshPer = k
			}
		}
	}

	var ov Layout // heap overlay over the mapped base; nil while nothing is overlaid
	have := st.Count()
	currentRoot := func() cryptoutil.Hash {
		if ov != nil {
			return ov.rootHash()
		}
		return st.treeRoot
	}
	for i, raw := range wal {
		if IsFreshnessRecord(raw) {
			rec, err := DecodeFreshnessRecord(raw)
			if err != nil {
				return nil, fmt.Errorf("dictionary: decode WAL record %d for %s: %w", i, ca, err)
			}
			if s.root == nil {
				continue
			}
			// Adopt any strictly newer statement (the writer appended it at
			// its own pull time, arbitrarily many periods before this map).
			if k := freshnessGap(rec.Value, s.freshness, s.root.Period(now)-s.freshPer); k > 0 {
				s.freshness = rec.Value
				s.freshPer += k
			}
			continue
		}
		rec, err := DecodeUpdateRecord(raw)
		if err != nil {
			return nil, fmt.Errorf("dictionary: decode WAL record %d for %s: %w", i, ca, err)
		}
		msg := rec.Msg
		if msg == nil || msg.Root == nil {
			return nil, fmt.Errorf("dictionary: WAL record %d for %s carries no signed root", i, ca)
		}
		if msg.Root.CA != ca {
			return nil, fmt.Errorf("dictionary: WAL record %d root names %s, mapping for %s", i, msg.Root.CA, ca)
		}
		if err := msg.Root.VerifySignature(pub); err != nil {
			return nil, fmt.Errorf("dictionary: WAL record %d for %s: %w", i, ca, err)
		}
		switch n := msg.Root.N; {
		case n < have:
			// Entirely covered by the checkpoint (crash between install and
			// WAL truncation); nothing to verify against.
			continue
		case n == have:
			if !msg.Root.Root.Equal(currentRoot()) {
				return nil, fmt.Errorf("dictionary: WAL record %d for %s: %w: rotated root differs at n=%d", i, ca, ErrRootMismatch, have)
			}
			if msg.Root.Equal(s.root) {
				continue // re-delivered root; keep the freshness state
			}
		default:
			missing := n - have
			if uint64(len(msg.Serials)) < missing {
				return nil, fmt.Errorf("dictionary: WAL record %d for %s: %w: record covers up to %d, base has %d, batch of %d",
					i, ca, ErrDesynchronized, n, have, len(msg.Serials))
			}
			serials := msg.Serials[uint64(len(msg.Serials))-missing:]
			if ov == nil {
				ov = st.heapLayout()
			}
			if err := overlayRecord(ov, serials, have, rec.Bounds); err != nil {
				return nil, fmt.Errorf("dictionary: WAL record %d for %s: %w", i, ca, err)
			}
			have = n
			if !ov.rootHash().Equal(msg.Root.Root) {
				return nil, fmt.Errorf("dictionary: WAL record %d for %s: %w", i, ca, ErrRootMismatch)
			}
			s.overlaid++
		}
		s.root = msg.Root
		s.freshness = msg.Root.Anchor
		s.freshPer = 0
	}

	s.count = have
	if s.root != nil {
		// One root encoding per re-map; see Snapshot.rootEnc.
		s.rootEnc = s.root.Encode()
	}
	if ov != nil {
		s.view = ov.view()
	} else {
		s.view = st.view()
	}
	return s, nil
}

// overlayRecord replays one update record's serial suffix into the
// overlay as the sub-batches delimited by bounds — mirroring
// Replica.insertSubBatches, including the absolute-count bounds
// semantics.
func overlayRecord(ov Layout, serials []serial.Number, have uint64, bounds []uint64) error {
	start := uint64(0)
	end := have + uint64(len(serials))
	for _, b := range bounds {
		if b <= have+start || b >= end {
			continue
		}
		cut := b - have
		if err := overlayBatch(ov, serials[start:cut], have+start); err != nil {
			return err
		}
		start = cut
	}
	return overlayBatch(ov, serials[start:], have+start)
}

// overlayBatch numbers, validates, sorts, and inserts one sub-batch, the
// overlay analog of Tree.InsertBatch. Duplicates are rejected loudly —
// they would fail the signed-root check anyway, but a named error beats a
// bare mismatch.
func overlayBatch(ov Layout, serials []serial.Number, have uint64) error {
	if len(serials) == 0 {
		return nil
	}
	leaves := make([]Leaf, len(serials))
	before := ov.view()
	for i, s := range serials {
		if s.IsZero() {
			return fmt.Errorf("dictionary: insert of zero-value serial")
		}
		if _, dup := before.Revoked(s); dup {
			return fmt.Errorf("%w: %v", ErrDuplicateSerial, s)
		}
		leaves[i] = Leaf{Serial: s, Num: have + 1 + uint64(i)}
	}
	sortLeaves(leaves)
	for i := 1; i < len(leaves); i++ {
		if leaves[i].Serial.Equal(leaves[i-1].Serial) {
			return fmt.Errorf("%w: %v appears twice in batch", ErrDuplicateSerial, leaves[i].Serial)
		}
	}
	ov.insert(leaves)
	return nil
}

// CA returns the CA whose dictionary the snapshot serves.
func (s *MappedSnapshot) CA() CAID { return s.ca }

// Layout returns the snapshot's commitment layout.
func (s *MappedSnapshot) Layout() LayoutKind { return s.layout }

// Generation returns the reader-assigned publication counter; see
// Snapshot.Generation for the cache contract it carries.
func (s *MappedSnapshot) Generation() uint64 { return s.gen }

// Count returns the number of revocations served.
func (s *MappedSnapshot) Count() uint64 { return s.count }

// Root returns the signed root proofs verify against (nil before the
// dictionary's first publication).
func (s *MappedSnapshot) Root() *SignedRoot { return s.root }

// RootHash returns the structural root of the served version.
func (s *MappedSnapshot) RootHash() cryptoutil.Hash { return s.view.Root() }

// Freshness returns the freshness-statement value current at mapping time.
func (s *MappedSnapshot) Freshness() cryptoutil.Hash { return s.freshness }

// FreshnessPeriod returns the period the freshness value verified for.
func (s *MappedSnapshot) FreshnessPeriod() int { return s.freshPer }

// OverlayRecords returns how many WAL update records are overlaid in heap
// on top of the mapped base — 0 means pure-mapped serving.
func (s *MappedSnapshot) OverlayRecords() int { return s.overlaid }

// Revoked reports whether sn is revoked in this version.
func (s *MappedSnapshot) Revoked(sn serial.Number) bool {
	_, ok := s.view.Revoked(sn)
	return ok
}

// Prove produces the revocation status for sn from the mapped version —
// same contract as Snapshot.Prove, same proofs byte for byte.
func (s *MappedSnapshot) Prove(sn serial.Number) (*Status, error) {
	if s.root == nil {
		return nil, fmt.Errorf("%w: replica has no signed root", ErrDesynchronized)
	}
	return &Status{
		Proof:     s.view.Prove(sn),
		Root:      s.root,
		Freshness: s.freshness,
		rootEnc:   s.rootEnc,
	}, nil
}

// restoreReplicaV2 rebuilds a full heap Replica from a v2 checkpoint by
// materializing the persisted structure — copying leaves, hash levels,
// buckets, and spine straight off the checkpoint with ZERO rehashing —
// instead of replaying the issuance log. This is the map-don't-replay
// restart path: its cost is O(n) memory copies (plus the signature and
// structural-root checks), not the O(n) hashing of RestoreReplica.
// Nothing in the returned replica aliases the checkpoint buffer.
func restoreReplicaV2(ca CAID, pub ed25519.PublicKey, st *MappedState, now int64) (*Replica, error) {
	r := NewReplicaWithLayout(ca, pub, st.layout)
	if st.root == nil {
		return r, nil // validated empty (openRoot enforces root-for-content)
	}
	if st.root.CA != ca {
		return nil, fmt.Errorf("dictionary: restore %s: checkpoint root names %s", ca, st.root.CA)
	}
	if err := st.root.VerifySignature(pub); err != nil {
		return nil, fmt.Errorf("dictionary: restore %s: %w", ca, err)
	}

	log, err := st.materializeLog()
	if err != nil {
		return nil, fmt.Errorf("dictionary: restore %s: %w", ca, err)
	}
	bySerial := make(map[string]uint64, len(log))
	for i, s := range log {
		bySerial[string(s.Raw())] = uint64(i) + 1
	}
	commit := st.heapLayout()
	if f, ok := commit.(*forestLayout); ok {
		for _, b := range f.buckets {
			b.tree = b.tree.heap()
		}
	}

	r.tree = &Tree{commit: commit, bySerial: bySerial, log: log, bounds: st.Batches()}
	r.root = st.root
	r.freshness = st.root.Anchor
	if !st.freshness.IsZero() {
		if k := freshnessGap(st.freshness, r.freshness, st.root.Period(now)); k > 0 {
			r.freshness = st.freshness
			r.freshPer = k
		}
	}
	r.publish()
	return r, nil
}
