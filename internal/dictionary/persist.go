package dictionary

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
	"ritm/internal/storage"
	"ritm/internal/wire"
)

// Durable-state hooks: the encodings and restore paths the storage tier
// (internal/storage) persists dictionaries through. Two artifact kinds
// exist:
//
//   - a checkpoint: the full committed state of one dictionary side in the
//     offset-indexed format v2 (ckptv2.go) — commitment structure, latest
//     signed root, freshness, and, on the authority side, the
//     freshness-chain seed. It is the only checkpoint format: a payload
//     without its magic is refused with ErrBadCheckpoint at every entry
//     point, never read as empty state.
//   - UpdateRecord is a WAL entry: one signed ∆ update batch (the exact
//     IssuanceMessage that crossed the dissemination network), plus the
//     authority's chain seed when the record was written CA-side.
//
// PersistentState is the in-memory hand-off into the restores that do NOT
// trust stored bytes (RestoreAuthority, and RestoreReplica for state
// adopted from another origin): the log is replayed through Replica.Update,
// which re-verifies the root signature against the trust anchor and the
// rebuilt root against the signed root — exactly the acceptance rule for a
// message fresh off the network (Fig 2, update step 3). An authority
// restore additionally checks that the persisted chain seed reproduces the
// signed anchor. Corruption that survives the storage tier's checksums
// therefore surfaces as a loud verification error there, never as an
// unverifiable root being served. (What a replica's own restart and a
// mapped reader verify instead is the trust note in ckptv2.go.)

// PersistentState is the committed state of one dictionary side as the
// full-replay restores consume it.
type PersistentState struct {
	// Log is the issuance-ordered serial log; replaying it into an empty
	// tree reproduces the dictionary exactly.
	Log []serial.Number
	// Root is the latest verified signed root; nil only for a dictionary
	// that never saw a publication.
	Root *SignedRoot
	// Freshness is the latest verified freshness-statement value; restored
	// best-effort (its period is re-derived from the clock on restore, and
	// a statement stale by then is simply dropped and replaced by the next
	// pull).
	Freshness cryptoutil.Hash
	// ChainSeed is the authority's freshness-chain seed (nil on
	// replica-side states). It is secret — CA-side storage only.
	ChainSeed *cryptoutil.Hash
}

// DecodePersistentState validates a checkpoint payload and materializes it
// into the in-memory PersistentState — inverting the leaf records back into
// the issuance log — for the full-replay restore paths.
func DecodePersistentState(buf []byte) (*PersistentState, error) {
	st, err := OpenMappedState(buf)
	if err != nil {
		return nil, err
	}
	log, err := st.materializeLog()
	if err != nil {
		return nil, err
	}
	return &PersistentState{
		Log:       log,
		Root:      st.root,
		Freshness: st.freshness,
		ChainSeed: st.seed,
	}, nil
}

// UpdateRecord is one WAL entry: a signed issuance batch, plus — on
// authority-side records — the freshness-chain seed behind the batch's
// root (each insert rotates the chain, and the seed cannot be recovered
// from the signed message, which only commits its anchor).
//
// The encoding ends in a list of batch bounds (a count, then ascending
// deltas) that older builds filled on coalesced catch-ups for the retired
// forest layout. Writers emit an empty list; the decoder still parses a
// non-empty one, under the same sanity cap, and drops it — a sorted root
// does not depend on it, and refusing it would strand data directories
// those builds wrote.
type UpdateRecord struct {
	Msg  *IssuanceMessage
	Seed *cryptoutil.Hash
}

// Encode serializes the record.
func (r *UpdateRecord) Encode() []byte {
	e := wire.NewEncoder(256)
	if r.Seed != nil {
		e.Bool(true)
		e.Raw(r.Seed[:])
	} else {
		e.Bool(false)
	}
	e.BytesField(r.Msg.Encode())
	e.Uvarint(0) // no batch bounds
	return e.Bytes()
}

// DecodeUpdateRecord parses a record encoded by Encode.
func DecodeUpdateRecord(buf []byte) (*UpdateRecord, error) {
	d := wire.NewDecoder(buf)
	var r UpdateRecord
	if d.Bool() {
		seed, _ := cryptoutil.HashFromBytes(d.Raw(cryptoutil.HashSize))
		r.Seed = &seed
	}
	msgBytes := d.BytesField()
	if d.Err() != nil {
		return nil, fmt.Errorf("decode update record: %w", d.Err())
	}
	msg, err := DecodeIssuanceMessage(msgBytes)
	if err != nil {
		return nil, fmt.Errorf("decode update record: %w", err)
	}
	r.Msg = msg
	nBounds := d.Uvarint()
	if nBounds > uint64(len(msg.Serials)) {
		return nil, fmt.Errorf("decode update record: %d bounds for %d serials", nBounds, len(msg.Serials))
	}
	for i := uint64(0); i < nBounds; i++ {
		d.Uvarint()
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("decode update record: %w", err)
	}
	return &r, nil
}

// freshnessRecordTag is the first byte of a freshness WAL record. An
// UpdateRecord's first byte is always a wire Bool (0x00 or 0x01) and a
// checkpoint opens with 'R', so the tag dispatches unambiguously.
const freshnessRecordTag = 0xF5

// FreshnessRecord is a WAL entry recording a verified freshness-statement
// value. Replica-side stores append one per adopted statement so that a
// restart — and, more importantly, a mapped reader overlaying the WAL —
// serves the statement of the current period instead of regressing to the
// signed root's anchor until the next refresh. The value re-verifies
// against the root's chain anchor on replay, so a corrupted record can
// only be dropped, never served.
type FreshnessRecord struct {
	Value cryptoutil.Hash
}

// Encode serializes the record.
func (r *FreshnessRecord) Encode() []byte {
	buf := make([]byte, 1+cryptoutil.HashSize)
	buf[0] = freshnessRecordTag
	copy(buf[1:], r.Value[:])
	return buf
}

// IsFreshnessRecord reports whether a WAL payload is a freshness record.
func IsFreshnessRecord(buf []byte) bool {
	return len(buf) > 0 && buf[0] == freshnessRecordTag
}

// DecodeFreshnessRecord parses a record encoded by Encode.
func DecodeFreshnessRecord(buf []byte) (*FreshnessRecord, error) {
	if len(buf) != 1+cryptoutil.HashSize || buf[0] != freshnessRecordTag {
		return nil, fmt.Errorf("decode freshness record: %d bytes", len(buf))
	}
	var r FreshnessRecord
	copy(r.Value[:], buf[1:])
	return &r, nil
}

// PersistentState exports the replica's current committed state for a
// full-replay restore. It reads one published snapshot, so the log, root, and
// freshness are mutually consistent even under concurrent updates.
func (r *Replica) PersistentState() *PersistentState {
	snap := r.Snapshot()
	return &PersistentState{
		Log:       snap.Log(),
		Root:      snap.Root(),
		Freshness: snap.Freshness(),
	}
}

// RestoreReplica rebuilds a replica from a checkpoint state, re-verifying
// everything against the trust anchor pub: the persisted log is replayed
// through Update, which accepts it only if the rebuilt root matches the
// persisted signed root AND that root's signature verifies — a corrupted
// or tampered checkpoint fails here, loudly, instead of producing a
// replica that would serve unverifiable statuses. The freshness statement
// is re-applied best-effort (it re-verifies against the chain anchor; if
// it is stale by now it is simply dropped and the next pull replaces it).
// now is the Unix time used for that freshness evaluation.
func RestoreReplica(ca CAID, pub ed25519.PublicKey, st *PersistentState, now int64) (*Replica, error) {
	r := NewReplica(ca, pub)
	if st.Root == nil {
		if len(st.Log) != 0 {
			return nil, fmt.Errorf("dictionary: restore %s: %d logged revocations but no signed root", ca, len(st.Log))
		}
		return r, nil
	}
	if err := r.Update(&IssuanceMessage{Serials: st.Log, Root: st.Root}); err != nil {
		return nil, fmt.Errorf("dictionary: restore %s: %w", ca, err)
	}
	if !st.Freshness.IsZero() && !st.Freshness.Equal(st.Root.Anchor) {
		// Best-effort: ApplyFreshness re-verifies the value against the
		// anchor for the current period; staleness is not an error.
		_ = r.ApplyFreshness(&FreshnessStatement{CA: ca, Value: st.Freshness}, now)
	}
	return r, nil
}

// trimCovered cuts a recorded issuance message down to what a dictionary
// holding have revocations still lacks. A crash between checkpoint install
// and WAL truncation leaves records that predate the checkpoint: a fully
// covered one (Root.N < have) yields nil — nothing to verify against — and a
// partially covered one loses its covered serials, degrading to a root-only
// message at Root.N == have, which still verifies the recorded root against
// the state. A record too short to reach back to have is returned whole; the
// gap is the apply step's to report.
func trimCovered(msg *IssuanceMessage, have uint64) *IssuanceMessage {
	if msg.Root.N < have {
		return nil
	}
	if missing := msg.Root.N - have; uint64(len(msg.Serials)) > missing {
		return &IssuanceMessage{Serials: msg.Serials[uint64(len(msg.Serials))-missing:], Root: msg.Root}
	}
	return msg
}

// ApplyLogRecord applies one raw WAL payload — an update record or a
// freshness record — to a replica. It is the one apply entry point of
// restart recovery, of a co-located reader's re-map and of replication (a
// follower origin feeds the leader's shipped frames through here), so a
// frame one of them would reject — a forged root, a divergent history — is
// rejected by all of them, on the wire too, not mirrored.
//
// An update record tolerates overlap with state the replica already holds
// (see trimCovered) and then goes through Update: signature verified,
// rebuilt root equal to the signed one; a record starting beyond the
// replica's count fails with ErrDesynchronized, as it would coming off the
// network. A freshness record
// re-verifies against the chain anchor best-effort: a stale statement is
// dropped silently, never an error. now is the Unix time used for that
// evaluation.
func ApplyLogRecord(r *Replica, raw []byte, now int64) error {
	if IsFreshnessRecord(raw) {
		rec, err := DecodeFreshnessRecord(raw)
		if err != nil {
			return fmt.Errorf("dictionary: decode WAL record for %s: %w", r.CA(), err)
		}
		_ = r.ApplyFreshness(&FreshnessStatement{CA: r.CA(), Value: rec.Value}, now)
		return nil
	}
	rec, err := DecodeUpdateRecord(raw)
	if err != nil {
		return fmt.Errorf("dictionary: decode WAL record for %s: %w", r.CA(), err)
	}
	if msg := trimCovered(rec.Msg, r.Count()); msg != nil {
		if err := r.Update(msg); err != nil {
			return fmt.Errorf("dictionary: replay WAL record for %s: %w", r.CA(), err)
		}
	}
	return nil
}

// RecoverReplicaLog rebuilds a replica from an opened durable log by the
// map-don't-replay path: after the signed root's signature and its agreement
// with the stored structure are verified (see the trust note in ckptv2.go),
// the checkpoint buffer Load returned becomes the replica's tree as it is —
// nothing rehashed, nothing copied but the issuance log — and the WAL
// records after it go through ApplyLogRecord. A log with no checkpoint yet
// starts from the empty dictionary; a checkpoint in any other format than v2,
// or of the retired forest layout, is refused with ErrBadCheckpoint.
//
// It is the shared recovery protocol of every replica-holding component
// (the RA's store and the distribution point); the caller owns the log's
// lifecycle. The returned replica keeps the checkpoint buffer: Load hands
// out an immutable one (a fresh heap buffer on the file backend, the
// installed image on Memory), which stays valid after the log is closed.
func RecoverReplicaLog(lg storage.Log, ca CAID, pub ed25519.PublicKey, now int64) (*Replica, error) {
	ckpt, wal, err := lg.Load()
	if err != nil {
		return nil, fmt.Errorf("dictionary: load durable log for %s: %w", ca, err)
	}
	return openReplica(ca, pub, ckpt, wal, now, false)
}

// OpenMappedReplica is RecoverReplicaLog for a co-located reader: a process
// that serves another process's durable log — state is its newest checkpoint
// (typically mmap'd; nil while the writer has not checkpointed), wal the
// records after it — without owning a copy. The replica's tree is the
// checkpoint bytes, read in place, so its proofs are byte-identical to a heap
// replica's at zero dictionary heap; a WAL record's insert writes fresh
// arrays for what it rewrites, reading the old ones off the checkpoint. It
// verifies exactly what a restart does. state must stay valid and
// unmodified for as long as the replica or any snapshot of it is proved
// against.
//
// The result holds neither the issuance log nor the batch bounds below the
// checkpoint's count (Log and LogSuffix answer above it only), so it serves
// statuses but cannot be checkpointed or serve catch-up.
func OpenMappedReplica(ca CAID, pub ed25519.PublicKey, state []byte, wal [][]byte, now int64) (*Replica, error) {
	return openReplica(ca, pub, state, wal, now, true)
}

func openReplica(ca CAID, pub ed25519.PublicKey, ckpt []byte, wal [][]byte, now int64, mapped bool) (*Replica, error) {
	r := NewReplica(ca, pub)
	if ckpt != nil {
		st, err := OpenMappedState(ckpt)
		if err != nil {
			return nil, fmt.Errorf("dictionary: decode checkpoint for %s: %w", ca, err)
		}
		if err := r.adoptCheckpoint(st, now, mapped); err != nil {
			return nil, fmt.Errorf("dictionary: restore %s: %w", ca, err)
		}
	}
	for i, raw := range wal {
		if err := ApplyLogRecord(r, raw, now); err != nil {
			return nil, fmt.Errorf("WAL record %d: %w", i, err)
		}
	}
	return r, nil
}

// adoptCheckpoint installs a validated checkpoint into a fresh replica
// without rehashing or copying anything: the tree reads the checkpoint's
// sections in place. An owner also inverts the leaf records into the log; a
// mapped reader holds no log at all. The caller is the constructor, so no
// locking.
func (r *Replica) adoptCheckpoint(st *MappedState, now int64, mapped bool) error {
	if st.root == nil {
		return nil // validated empty (openRoot enforces root-for-content)
	}
	if st.root.CA != r.ca {
		return fmt.Errorf("checkpoint root names %s", st.root.CA)
	}
	if err := st.root.VerifySignature(r.pub); err != nil {
		return err
	}
	r.tree = &Tree{commit: st.run()}
	if mapped {
		r.tree.base = st.Count()
	} else {
		log, err := st.materializeLog()
		if err != nil {
			return err
		}
		r.tree.log, r.tree.bounds = log, st.batches()
	}
	r.root = st.root
	r.freshness = st.root.Anchor
	r.publish()
	if !st.freshness.IsZero() {
		// Best-effort, like a freshness record: a value stale by now is
		// dropped and the next pull replaces it.
		_ = r.ApplyFreshness(&FreshnessStatement{CA: r.ca, Value: st.freshness}, now)
	}
	return nil
}

// ChainSeed returns the secret seed of the authority's current freshness
// chain, for CA-side WAL records. See cryptoutil.Chain.Seed for the
// sensitivity caveat.
func (a *Authority) ChainSeed() cryptoutil.Hash {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.chain.Seed()
}

// PersistentState exports the authority's committed state — log, signed
// root, and chain seed — for a full-replay restore.
func (a *Authority) PersistentState() *PersistentState {
	a.mu.Lock()
	defer a.mu.Unlock()
	seed := a.chain.Seed()
	return &PersistentState{
		Log:       a.tree.Log(),
		Root:      a.root,
		ChainSeed: &seed,
	}
}

// RestoreAuthority rebuilds a CA-side dictionary from a checkpoint plus
// the WAL records appended after it, verifying every step: the rebuilt
// tree must reproduce each recorded signed root, each root's signature
// must verify under the configured signer's public key, and each chain
// seed must hash to the root's committed anchor. A restored authority is
// bit-for-bit the one that crashed — same tree, same chain, same signed
// root (and therefore the same dissemination ETag).
func RestoreAuthority(cfg AuthorityConfig, st *PersistentState, records []*UpdateRecord) (*Authority, error) {
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
	if err := a.adoptState(st); err != nil {
		return nil, err
	}
	for i, rec := range records {
		if err := a.applyRecord(rec); err != nil {
			return nil, fmt.Errorf("dictionary: restore authority %s: WAL record %d: %w", cfg.CA, i, err)
		}
	}
	return a, nil
}

// adoptState installs a verified checkpoint into a fresh authority,
// replaying the log as one batch.
func (a *Authority) adoptState(st *PersistentState) error {
	if st.Root == nil || st.ChainSeed == nil {
		return fmt.Errorf("dictionary: restore authority %s: checkpoint missing root or chain seed", a.cfg.CA)
	}
	if err := a.tree.extend(st.Log, uint64(len(st.Log)), 0); err != nil {
		return fmt.Errorf("dictionary: restore authority %s: %w", a.cfg.CA, err)
	}
	return a.install(st.Root, *st.ChainSeed)
}

// applyRecord replays one authority WAL record: insert the batch's
// not-yet-applied suffix, then install the recorded root and chain.
func (a *Authority) applyRecord(rec *UpdateRecord) error {
	if rec.Msg == nil || rec.Msg.Root == nil {
		return fmt.Errorf("nil issuance message")
	}
	if rec.Seed == nil {
		return fmt.Errorf("record carries no chain seed")
	}
	msg := trimCovered(rec.Msg, a.tree.Count())
	if msg == nil {
		return nil // covered by the checkpoint
	}
	if err := a.tree.extend(msg.Serials, msg.Root.N, 0); err != nil {
		return err
	}
	return a.install(msg.Root, *rec.Seed)
}

// install verifies (signature, root match, count, chain anchor) and adopts
// a signed root plus its chain seed. Used only on the restore path; the
// caller is the constructor, so no locking.
func (a *Authority) install(root *SignedRoot, seed cryptoutil.Hash) error {
	if root.CA != a.cfg.CA {
		return fmt.Errorf("persisted root names %s, restoring %s", root.CA, a.cfg.CA)
	}
	if err := root.VerifySignature(a.cfg.Signer.Public()); err != nil {
		return err
	}
	if a.tree.Count() != root.N {
		return fmt.Errorf("%w: rebuilt %d revocations, root commits %d", ErrRootMismatch, a.tree.Count(), root.N)
	}
	if !a.tree.Root().Equal(root.Root) {
		return fmt.Errorf("%w: rebuilt root differs at n=%d", ErrRootMismatch, root.N)
	}
	chain := cryptoutil.NewChainFromSeed(seed, int(root.ChainLen))
	if !chain.Anchor().Equal(root.Anchor) {
		return fmt.Errorf("%w: persisted chain seed does not reproduce the signed anchor", ErrRootMismatch)
	}
	a.root = root
	a.chain = chain
	return nil
}
