// Package cdn implements RITM's dissemination network (§III
// "Dissemination"): a distribution point (the origin, fed by CAs) and edge
// servers that replicate its content with TTL caches, pulled by Revocation
// Agents every ∆.
//
// The communication paradigm is pull, as in production CDNs: RAs pull from
// edge servers, edge servers pull from the distribution point, and the
// origin never pushes. Because every message is either signed (issuance
// messages) or hash-chain-authenticated (freshness statements), no element
// of the network is trusted: a compromised edge server can at worst serve
// stale data, which the 2∆ freshness policy converts into a connection
// interruption rather than an accepted revoked certificate (§V).
//
// Two transports are provided: direct in-process calls (the Origin
// interface) and an HTTP API (Handler / HTTPClient) mirroring the paper's
// "simple HTTP(S)-based API" (§VI).
package cdn

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ritm/internal/dictionary"
	"ritm/internal/storage"
	"ritm/internal/wire"
)

// Errors returned by dissemination operations.
var (
	// ErrUnknownCA reports a pull for a dictionary the origin does not carry.
	ErrUnknownCA = errors.New("cdn: unknown CA")
	// ErrAhead reports a pull whose from-count exceeds the origin's count;
	// the puller's view is from a different (possibly equivocating) history.
	ErrAhead = errors.New("cdn: requested count ahead of origin")
)

// PullResponse is what one pull for one dictionary returns: the issuance
// message covering every revocation the puller is missing (nil when it is
// current and no root rotation happened), and the current freshness
// statement. This realizes both the regular ∆ pull and the
// desynchronization-recovery protocol of §III with a single request shape:
// the puller always states the count n it has, the origin always answers
// with the suffix after n.
//
// A response is immutable once constructed: edge servers cache it and hand
// the same instance to every puller at the same count, and the wire
// encoding is memoized (Encoded) so that the HTTP handler and the edge's
// byte accounting serialize it once, not once per reader.
type PullResponse struct {
	// Issuance carries serials (puller's n, origin's n] with the latest
	// signed root. It is nil when the puller is current and the stored root
	// is the one the puller necessarily already has (same n, no rotation is
	// distinguishable, so the root is always included when n differs OR the
	// origin rotated; to keep the protocol stateless the origin includes the
	// root whenever it has one and the puller is behind or rotation may have
	// happened — in practice: always, unless the origin itself is empty).
	Issuance *dictionary.IssuanceMessage
	// Freshness is the current freshness statement (nil before the CA's
	// first publication).
	Freshness *dictionary.FreshnessStatement
	// Bounds is always nil.
	//
	// Deprecated: it carried the batch bounds a forest-layout replica
	// needed to replay a coalesced suffix; a sorted root depends on content
	// alone. The field exists only so that the frozen benchmark harness
	// (bench/) keeps compiling.
	Bounds []uint64

	encOnce sync.Once
	enc     []byte
}

// Encoded returns the wire encoding of the response, computed once and
// shared by every caller: the HTTP handler writes it, the edge server's
// byte accounting measures it, and a cached response is encoded exactly
// once no matter how many RAs pull it. The returned bytes are shared and
// must be treated as immutable.
func (pr *PullResponse) Encoded() []byte {
	pr.encOnce.Do(func() {
		e := wire.NewEncoder(512)
		if pr.Issuance != nil {
			e.Bool(true)
			e.BytesField(pr.Issuance.Encode())
		} else {
			e.Bool(false)
		}
		if pr.Freshness != nil {
			e.Bool(true)
			e.BytesField(pr.Freshness.Encode())
		} else {
			e.Bool(false)
		}
		e.Uvarint(0) // no batch bounds; see DecodePullResponse
		pr.enc = e.Bytes()
	})
	return pr.enc
}

// Encode serializes the response for the HTTP transport. It returns the
// same memoized (shared, immutable) buffer as Encoded.
func (pr *PullResponse) Encode() []byte { return pr.Encoded() }

// DecodePullResponse parses a response encoded by Encode, taking ownership
// of buf: the decoded issuance serials alias it (zero-copy decode) and the
// memoized encoding retains it, so the caller must not modify buf after
// the call. Every production caller hands over a freshly read HTTP body.
func DecodePullResponse(buf []byte) (*PullResponse, error) {
	d := wire.NewDecoder(buf)
	var pr PullResponse
	if d.Bool() {
		msg, err := dictionary.DecodeIssuanceMessageView(d.BytesField())
		if err != nil {
			return nil, fmt.Errorf("decode pull response: %w", err)
		}
		pr.Issuance = msg
	}
	if d.Bool() {
		st, err := dictionary.DecodeFreshnessStatement(d.BytesField())
		if err != nil {
			return nil, fmt.Errorf("decode pull response: %w", err)
		}
		pr.Freshness = st
	}
	// The body ends in a list of batch bounds (a count, then ascending
	// deltas) that older origins filled for the retired forest layout.
	// Writers emit a zero count; a non-empty list is parsed, under the same
	// sanity cap, and dropped, so such origins keep serving. The count is
	// mandatory: making it optional-by-presence would let a body truncated
	// at the field boundary decode cleanly — exactly the silent-truncation
	// class TestHTTPClientTruncatedBody pins.
	nBounds := d.Uvarint()
	if d.Err() != nil {
		return nil, fmt.Errorf("decode pull response: %w", d.Err())
	}
	const maxBounds = 1 << 24 // one bound per batch; sanity cap
	if nBounds > maxBounds {
		return nil, fmt.Errorf("decode pull response: %d batch bounds exceed limit", nBounds)
	}
	for i := uint64(0); i < nBounds; i++ {
		d.Uvarint()
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("decode pull response: %w", err)
	}
	// Seed the memoized encoding with the bytes just parsed: decoding is
	// deterministic, so re-encoding would reproduce them (but for a dropped
	// bound list, which an edge thus passes on as its upstream sent it), and
	// a decoded response that is re-served (an edge running the HTTP client
	// against its upstream) must not pay a second serialization. The buffer
	// is ours (ownership contract above), so no defensive copy either — the
	// body of a churn pull is decoded, retained, and re-served with zero
	// copies of the serial bytes.
	pr.encOnce.Do(func() { pr.enc = buf })
	return &pr, nil
}

// Size returns the encoded size in bytes; the bandwidth experiments (Fig 7)
// sum it per pull. It shares Encoded's memoization.
func (pr *PullResponse) Size() int { return len(pr.Encoded()) }

// Origin is the pull API spoken throughout the dissemination network: RAs
// pull from edge servers, edge servers pull from the distribution point,
// and monitors pull signed roots for consistency checking. Implementations:
// DistributionPoint, EdgeServer, HTTPClient.
type Origin interface {
	// Pull returns everything the caller (holding from revocations of ca's
	// dictionary) is missing, plus the current freshness statement.
	Pull(ca dictionary.CAID, from uint64) (*PullResponse, error)
	// LatestRoot returns the newest signed root for ca (nil error with nil
	// root never occurs: unknown CAs return ErrUnknownCA).
	LatestRoot(ca dictionary.CAID) (*dictionary.SignedRoot, error)
	// CAs lists the dictionaries available, sorted.
	CAs() ([]dictionary.CAID, error)
}

// DistributionPoint is the origin of the dissemination network. CAs publish
// to it (it implements the ca.Publisher interface) and edge servers pull
// from it. Each CA's record is a dictionary.Replica: the full issuance log
// (to serve any suffix), the latest signed root, and the latest freshness
// statement, all carried by the replica's immutable snapshots — and every
// ingested message is verified against the replica, so a distribution point
// never propagates a message whose root does not match its content. A
// message is replayed through the replica, except the one case where there
// is nothing to replay: the message comes unaltered from Authority.Insert of
// a CA in this process (the usual origin, which ritm-ca runs beside its CA),
// and the replica holds exactly the state the authority inserted the batch
// into. The replica then adopts the tree the authority rebuilt, after
// checking the signature and that the tree's root and count are the signed
// ones (dictionary.Replica.Update). Messages over HTTP, from a leader origin,
// from a log, or altered in any way are replayed.
//
// It is safe for concurrent use; the read path (Pull, LatestRoot) takes
// only a brief read lock on the CA map — counters are atomics and
// per-dictionary state is read through the replica's lock-free snapshots,
// so pulls from a whole RA fleet never serialize behind one mutex.
type DistributionPoint struct {
	now func() time.Time

	// mu guards the maps (registration vs lookup). dicts[ca] is always the
	// replica journals[ca] holds: Pull reads it without the journal's lock,
	// and AdoptReplicatedState swaps both under it (lock order: journal,
	// then mu).
	mu       sync.RWMutex
	dicts    map[dictionary.CAID]*dictionary.Replica
	journals map[dictionary.CAID]*dictionary.Journal[*dictionary.Replica]

	// Durable state tier (nil backend = in-memory only). Every verified
	// ingest is journaled to the CA's log on backend. A reopened
	// distribution point recovers each CA's replica — including the exact
	// signed root bytes, so /v1/root ETags are stable across the restart
	// and edges' conditional requests keep returning 304. This is the §VII
	// availability story: the origin comes back from a crash without
	// losing its update log, instead of forcing every RA through the
	// ErrAhead → full-resync path.
	backend   storage.Backend
	ckptEvery int

	stats distCounters
}

// distCounters is the lock-free backing store for Stats.
type distCounters struct {
	issuancesIngested atomic.Int64
	freshnessIngested atomic.Int64
	pulls             atomic.Int64
}

// NewDistributionPoint creates an empty origin. now is the clock used to
// validate freshness statements on ingest (nil = time.Now).
func NewDistributionPoint(now func() time.Time) *DistributionPoint {
	return NewDistributionPointWithStorage(now, nil, 0)
}

// NewDistributionPointWithStorage creates an origin whose per-CA state is
// persisted to backend (nil = in-memory only, identical to
// NewDistributionPoint) and recovered on RegisterCA, with a checkpoint
// every checkpointEvery update records (0 =
// dictionary.DefaultCheckpointEvery).
func NewDistributionPointWithStorage(now func() time.Time, backend storage.Backend, checkpointEvery int) *DistributionPoint {
	if now == nil {
		now = time.Now
	}
	return &DistributionPoint{
		now:       now,
		dicts:     make(map[dictionary.CAID]*dictionary.Replica),
		journals:  make(map[dictionary.CAID]*dictionary.Journal[*dictionary.Replica]),
		backend:   backend,
		ckptEvery: checkpointEvery,
	}
}

// RegisterCA announces a CA to the distribution point, providing the trust
// anchor used to verify everything the CA publishes. This models the
// CA-bootstrapping manifest of §VIII. The distribution point verifies every
// ingested message against its own replica: by replaying it, or, for the
// unaltered message of an authority in this process that the replica is
// level with, by adopting the tree that authority rebuilt once its root and
// count match the signed ones.
func (dp *DistributionPoint) RegisterCA(ca dictionary.CAID, pub []byte) error {
	if ca == "" {
		return fmt.Errorf("cdn: empty CA id")
	}
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if _, dup := dp.dicts[ca]; dup {
		return fmt.Errorf("cdn: CA %s already registered", ca)
	}
	// Recovery re-verifies the persisted log against the trust anchor and
	// reinstalls the exact signed-root bytes — including the signature, so
	// the root (and its HTTP ETag) is bit-identical across the restart.
	j, err := dictionary.OpenReplicaJournal(dp.backend, ca, pub, dp.ckptEvery, dp.now().Unix())
	if err != nil {
		return fmt.Errorf("cdn: reopen %s: %w", ca, err)
	}
	dp.journals[ca] = j
	dp.dicts[ca] = j.State()
	return nil
}

// RegisterCAWithLayout is RegisterCA for a sorted layout and refuses any
// other.
//
// Deprecated: the sorted hash tree is the only commitment. Kept only so that
// the frozen benchmark harness (bench/) keeps compiling; use RegisterCA.
func (dp *DistributionPoint) RegisterCAWithLayout(ca dictionary.CAID, pub []byte, layout dictionary.LayoutKind) error {
	if layout != dictionary.LayoutSorted {
		return fmt.Errorf("cdn: %s: layout %v is not supported", ca, layout)
	}
	return dp.RegisterCA(ca, pub)
}

// journal returns ca's journal.
func (dp *DistributionPoint) journal(ca dictionary.CAID) (*dictionary.Journal[*dictionary.Replica], error) {
	dp.mu.RLock()
	j, ok := dp.journals[ca]
	dp.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCA, ca)
	}
	return j, nil
}

// ingest runs apply on ca's replica under its journal, so the log order
// always matches the apply order; disk I/O happens outside dp.mu, so pulls
// (and other CAs' ingests) never stall behind an fsync. rec is logged only
// when the replica published a new snapshot: a verified no-op (a
// re-delivered root or statement) must not grow the log.
func (dp *DistributionPoint) ingest(ca dictionary.CAID, kind string, rec dictionary.Record, apply func(*dictionary.Replica) error) error {
	j, err := dp.journal(ca)
	if err != nil {
		return err
	}
	if err := j.Apply(func(r *dictionary.Replica) (dictionary.Record, error) {
		gen := r.CurrentGeneration()
		if err := apply(r); err != nil || r.CurrentGeneration() == gen {
			return nil, err
		}
		return rec, nil
	}); err != nil {
		return fmt.Errorf("cdn: ingest %s for %s: %w", kind, ca, err)
	}
	return nil
}

// Close releases the distribution point's durable logs (if any), each
// checkpointed first when it holds update records the last checkpoint does
// not cover. Reads keep working from memory; further ingests must not
// follow.
func (dp *DistributionPoint) Close() error {
	dp.mu.RLock()
	journals := make(map[dictionary.CAID]*dictionary.Journal[*dictionary.Replica], len(dp.journals))
	for ca, j := range dp.journals {
		journals[ca] = j
	}
	dp.mu.RUnlock()
	var firstErr error
	for ca, j := range journals {
		if err := j.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cdn: close %s: %w", ca, err)
		}
	}
	return firstErr
}

// PublishIssuance ingests a CA's revocation issuance message: the
// distribution point verifies it against its own replica (so that a
// corrupted or equivocating message is rejected at the origin) and stores
// it for pulls. The message a CA in this process publishes on Revoke is
// adopted rather than replayed when the replica is level with the CA (see
// DistributionPoint). A message coalescing several insertion batches re-feeds a
// distribution point that fell behind its CA — for example after a crash
// window in which the CA's write-ahead log committed a batch the origin
// never saw. Implements ca.Publisher.
func (dp *DistributionPoint) PublishIssuance(msg *dictionary.IssuanceMessage) error {
	if msg == nil || msg.Root == nil {
		return fmt.Errorf("cdn: nil issuance message")
	}
	if err := dp.ingest(msg.Root.CA, "issuance", &dictionary.UpdateRecord{Msg: msg}, func(r *dictionary.Replica) error {
		return r.Update(msg)
	}); err != nil {
		return err
	}
	dp.stats.issuancesIngested.Add(1)
	return nil
}

// PublishFreshness ingests a per-∆ freshness statement. Implements
// ca.Publisher. On a storage-backed origin a state-advancing statement is
// WAL-appended as a freshness record: the WAL doubles as the replication
// log, and without the record a follower origin (or a restarted leader)
// would regress to the signed root's anchor until the next statement.
func (dp *DistributionPoint) PublishFreshness(st *dictionary.FreshnessStatement) error {
	if st == nil {
		return fmt.Errorf("cdn: nil freshness statement")
	}
	if err := dp.ingest(st.CA, "freshness", &dictionary.FreshnessRecord{Value: st.Value}, func(r *dictionary.Replica) error {
		return r.ApplyFreshness(st, dp.now().Unix())
	}); err != nil {
		return err
	}
	dp.stats.freshnessIngested.Add(1)
	return nil
}

var _ Origin = (*DistributionPoint)(nil)

// Pull implements Origin. It is the fleet's hot path: after a read-locked
// map lookup everything is atomics and snapshot reads, so concurrent
// pullers never serialize on the distribution point (the seed took the
// exclusive write lock here just to bump a counter).
func (dp *DistributionPoint) Pull(ca dictionary.CAID, from uint64) (*PullResponse, error) {
	dp.mu.RLock()
	r, ok := dp.dicts[ca]
	dp.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCA, ca)
	}
	dp.stats.pulls.Add(1)

	// One snapshot for root, count, suffix, AND freshness: reading them
	// from separate loads can tear across a concurrent publish — a suffix
	// extending past its signed root, or a freshness statement from a
	// rotated chain paired with the old root. Either torn response would be
	// rejected by every RA and cached by the edge for a full TTL.
	snap := r.Snapshot()
	root := snap.Root()
	have := snap.Count()
	if from > have {
		return nil, fmt.Errorf("%w: from=%d, origin has %d", ErrAhead, from, have)
	}
	resp := &PullResponse{}
	if root == nil {
		// The CA has published nothing yet.
		return resp, nil
	}
	resp.Freshness = &dictionary.FreshnessStatement{CA: ca, Value: snap.Freshness()}
	suffix, err := snap.LogSuffix(from, have)
	if err != nil {
		return nil, fmt.Errorf("cdn: pull %s: %w", ca, err)
	}
	// Always include the latest root: a puller that is current still needs
	// it to detect rotation, and it makes the response self-contained.
	resp.Issuance = &dictionary.IssuanceMessage{Serials: suffix, Root: root}
	return resp, nil
}

// LatestRoot implements Origin.
func (dp *DistributionPoint) LatestRoot(ca dictionary.CAID) (*dictionary.SignedRoot, error) {
	dp.mu.RLock()
	r, ok := dp.dicts[ca]
	dp.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCA, ca)
	}
	root := r.Root()
	if root == nil {
		return nil, fmt.Errorf("cdn: %s has not published a root yet", ca)
	}
	return root, nil
}

// CAs implements Origin.
func (dp *DistributionPoint) CAs() ([]dictionary.CAID, error) {
	dp.mu.RLock()
	defer dp.mu.RUnlock()
	out := make([]dictionary.CAID, 0, len(dp.dicts))
	for ca := range dp.dicts {
		out = append(out, ca)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Stats counts distribution-point activity; experiments read it to report
// origin load.
type Stats struct {
	IssuancesIngested int
	FreshnessIngested int
	Pulls             int
}

// Stats returns a copy of the origin's counters. Each counter is read
// atomically; the copy is not a single consistent cut across counters,
// which no caller needs.
func (dp *DistributionPoint) Stats() Stats {
	return Stats{
		IssuancesIngested: int(dp.stats.issuancesIngested.Load()),
		FreshnessIngested: int(dp.stats.freshnessIngested.Load()),
		Pulls:             int(dp.stats.pulls.Load()),
	}
}
