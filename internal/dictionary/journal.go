package dictionary

import (
	"crypto/ed25519"
	"fmt"
	"sync"

	"ritm/internal/storage"
)

// DefaultCheckpointEvery is the default number of update records between
// checkpoints. A checkpoint costs O(dictionary) while an append costs
// O(batch); once per 64 batches keeps the amortized overhead per ∆ small
// while bounding crash-recovery replay to 64 records.
const DefaultCheckpointEvery = 64

// Record is one WAL entry as a Journal appends it: an UpdateRecord, a
// FreshnessRecord, or a RawRecord.
type Record interface {
	Encode() []byte
}

// RawRecord is a WAL payload logged byte for byte as received: a follower
// origin mirrors its leader's frames.
type RawRecord []byte

// Encode returns the payload itself.
func (r RawRecord) Encode() []byte { return r }

// durable is a dictionary side a Journal checkpoints: *Replica or
// *Authority.
type durable interface {
	PersistentStateV2() []byte
}

// Journal is the write-ahead discipline of one durable dictionary — a CA's
// authority, an origin's or an RA's replica. It holds the state, its
// storage.Log and the checkpoint cadence, and its mutex makes every (apply,
// append) one unit, so the WAL order always matches the apply order. The
// rules, for every holder alike:
//
//   - only a state-changing apply is logged: one that returns a nil Record
//     logs nothing;
//   - an update record advances the cadence, a freshness record does not
//     (it is tiny and idempotent on replay, and checkpointing O(dictionary)
//     state once per period with no revocation traffic would be pure churn);
//   - a checkpoint is written every N update records;
//   - a replaced state is checkpointed at once;
//   - Close checkpoints pending update records, then closes the log;
//   - a journal without a log runs the apply and nothing else.
type Journal[S durable] struct {
	mu      sync.Mutex
	state   S
	log     storage.Log // nil: in memory only, or closed
	every   int
	pending int // update records appended since the last checkpoint
}

// NewJournal journals state to lg (nil = in memory only), checkpointing
// every `every` update records (0 = DefaultCheckpointEvery). The journal
// owns lg from here on.
func NewJournal[S durable](state S, lg storage.Log, every int) *Journal[S] {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	return &Journal[S]{state: state, log: lg, every: every}
}

// OpenReplicaJournal opens ca's log on backend and recovers its replica from
// it (RecoverReplicaLog); a nil backend gives a fresh replica journaled in
// memory only. Recovery fails loudly on anything unverifiable: a corrupt
// store must not silently degrade to a cold start, because the operator
// would read the ensuing full resync as normal.
func OpenReplicaJournal(backend storage.Backend, ca CAID, pub ed25519.PublicKey, every int, now int64) (*Journal[*Replica], error) {
	if backend == nil {
		return NewJournal(NewReplica(ca, pub), nil, every), nil
	}
	lg, err := backend.Open(string(ca))
	if err != nil {
		return nil, fmt.Errorf("open durable log: %w", err)
	}
	r, err := RecoverReplicaLog(lg, ca, pub, now)
	if err != nil {
		lg.Close()
		return nil, err
	}
	return NewJournal(r, lg, every), nil
}

// State returns the journaled state. Holders that serve it without taking
// the journal's lock keep their own reference and swap it in Replace's next.
func (j *Journal[S]) State() S {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Apply runs apply on the current state and appends the record it returns,
// checkpointing when the cadence is due. apply runs under the journal's
// lock and must not call back into the journal. Its error is returned as is
// and nothing is logged. An append or checkpoint error is returned after the
// apply took effect in memory: the caller decides what to withhold (a CA
// does not publish), and the next successful checkpoint covers the gap.
func (j *Journal[S]) Apply(apply func(S) (Record, error)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, err := apply(j.state)
	if err != nil || rec == nil || j.log == nil {
		return err
	}
	raw := rec.Encode()
	if err := j.log.Append(raw); err != nil {
		return fmt.Errorf("append WAL record: %w", err)
	}
	if IsFreshnessRecord(raw) {
		return nil
	}
	if j.pending++; j.pending < j.every {
		return nil
	}
	return j.checkpointLocked()
}

// Replace swaps in the state next returns for the current one and
// checkpoints it at once: a replaced history (an RA's resync, a follower
// origin's adopted leader snapshot) diverges from whatever the WAL holds, and
// a crash must never replay old-history records onto it. next runs under the
// journal's lock, so no apply lands between its look at the current state
// and the swap; its error leaves the journal unchanged.
func (j *Journal[S]) Replace(next func(cur S) (S, error)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	s, err := next(j.state)
	if err != nil {
		return err
	}
	j.state = s
	return j.checkpointLocked()
}

// Checkpoint writes the current state as the log's checkpoint now.
func (j *Journal[S]) Checkpoint() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkpointLocked()
}

func (j *Journal[S]) checkpointLocked() error {
	if j.log == nil {
		return nil
	}
	if err := j.log.Checkpoint(j.state.PersistentStateV2()); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	j.pending = 0
	return nil
}

// Tail serves the log's history after LSN from, for replication. ok is false
// when the journal has no log or its log cannot tail.
func (j *Journal[S]) Tail(from uint64) (res storage.TailResult, ok bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	t, ok := j.log.(storage.Tailer)
	if !ok {
		return storage.TailResult{}, false, nil
	}
	res, err = t.Tail(from)
	return res, true, err
}

// Close checkpoints the update records appended since the last checkpoint —
// a clean shutdown leaves a map-ready image, so the next start and every
// co-located reader map state instead of replaying a WAL tail — then closes
// the log. Later applies run in memory only.
func (j *Journal[S]) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return nil
	}
	var err error
	if j.pending > 0 {
		err = j.checkpointLocked()
	}
	if cerr := j.log.Close(); err == nil {
		err = cerr
	}
	j.log = nil
	return err
}

// Destroy closes the log and deletes its durable state (an RA dropping an
// expired shard reclaims the disk too). Later applies run in memory only.
func (j *Journal[S]) Destroy() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return nil
	}
	err := j.log.Destroy()
	j.log = nil
	return err
}
