// Package ra implements RITM's Revocation Agent (§III, §VI): the network
// middlebox that replicates every CA's authenticated dictionary from the
// dissemination network, performs deep-packet inspection of TLS-sim traffic
// on a client-server path, and injects fresh revocation statuses into
// supported connections.
//
// The package is organized around four pieces:
//
//   - Store: one dictionary.Replica per CA, plus the trust anchors used to
//     verify what the dissemination network delivers;
//   - Fetcher: the pull loop contacting an edge server every ∆ (§III
//     "Dissemination"), with desynchronization recovery;
//   - Table: the per-connection DPI state of Eq (4);
//   - Proxy: a TCP middlebox that splices revocation-status records into
//     the TLS-sim stream (RA-to-client communication method 1/3 of §VIII).
package ra

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ritm/internal/cert"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// Errors returned by RA operations.
var (
	// ErrNoDictionary reports a status request for a CA the RA does not
	// replicate (the RA then cannot support the connection).
	ErrNoDictionary = errors.New("ra: no dictionary for CA")
)

// Store holds the RA's copies of all CA dictionaries ("every RA stores
// copies of all the dictionaries", §III) together with the trust anchors
// used to verify them, and the per-∆ status cache the data path serves
// from.
//
// The store is RCU-structured for the RA's read-dominated workload: the
// CA→replica map, the sorted CA list, and the trust pool live in one
// immutable storeView behind an atomic pointer. Readers (Prove, Status,
// Replica, CAs, LatestRoot — every handshake-path operation) load the
// pointer and never take a lock; the rare writers (AddCA, Remove,
// RemoveExpired) build the next view under a mutex and swap it in. Each
// replica in turn publishes lock-free snapshots, so a status is produced
// without acquiring any lock anywhere on the path.
type Store struct {
	view  atomic.Pointer[storeView]
	wmu   sync.Mutex // serializes view writers
	cache *statusCache

	// sharedMode marks a read-only store: dictionaries are served from
	// another process's durable logs via storage.Mapper (see shared.go)
	// instead of owned replicas. mapper is non-nil iff sharedMode.
	sharedMode bool
	mapper     storage.Mapper

	// Durable state tier (nil backend = purely in-memory, the default).
	// Verified updates are WAL-appended per CA; every ckptEvery records
	// the replica's state is checkpointed and the WAL reset, bounding both
	// replay time and WAL growth. AddCA warm-starts each replica from its
	// log, so a restarted RA resumes at its persisted count and the
	// fetcher pulls only the missed suffix — O(missed ∆) instead of the
	// full-dictionary resync a cold start pays.
	backend   storage.Backend
	ckptEvery int
	now       func() time.Time
	pmu       sync.Mutex // guards logs and their append counters
	logs      map[dictionary.CAID]*caLog
}

// caLog pairs a CA's durable log with its records-since-checkpoint count.
// Its mutex serializes (replica update, WAL append) per CA as one unit,
// so concurrent syncs can never write WAL records out of apply order —
// an inverted pair would replay as a gap and fail recovery loudly.
type caLog struct {
	mu       sync.Mutex
	log      storage.Log
	appended int
}

// DefaultCheckpointEvery is the default number of WAL records between
// checkpoint snapshots. Checkpoints cost O(dictionary) while appends cost
// O(batch); once per 64 batches keeps the amortized overhead per sync
// cycle small while bounding crash-recovery replay to 64 records.
const DefaultCheckpointEvery = 64

// StoreOptions configures a Store beyond its trust anchors.
type StoreOptions struct {
	// Storage, when non-nil, persists every replica to the backend and
	// warm-starts replicas from it on AddCA.
	Storage storage.Backend
	// CheckpointEvery is the number of WAL records between checkpoints
	// (0 = DefaultCheckpointEvery).
	CheckpointEvery int
	// SharedData turns the store into a read-only co-located reader:
	// instead of owning replicas and writing to Storage, it maps the
	// checkpoints another process's store writes there (one writer, N
	// readers against one data directory) and serves statuses from the
	// mapping. Requires Storage to implement storage.Mapper (both
	// built-in backends do). Refresh — normally driven by the RA's sync
	// loop — picks up the writer's installs.
	SharedData bool
	// Now is the clock used when re-validating persisted freshness on
	// warm start (nil = time.Now).
	Now func() time.Time
}

// storeView is one immutable configuration of the store. All fields —
// including the pool — are replaced wholesale, never mutated, once the
// view is published. Exactly one of replicas/shared is populated per CA:
// owned dictionaries live in replicas, shared-mode readers in shared.
type storeView struct {
	replicas map[dictionary.CAID]*dictionary.Replica
	shared   map[dictionary.CAID]*sharedDict
	cas      []dictionary.CAID // sorted
	pool     *cert.Pool
}

// NewStore creates an empty store trusting the given root certificates; a
// replica is created per root.
func NewStore(roots ...*cert.Certificate) (*Store, error) {
	return NewStoreWithOptions(StoreOptions{}, roots...)
}

// NewStoreWithOptions creates a store with full configuration, including
// the optional durable state tier.
func NewStoreWithOptions(opts StoreOptions, roots ...*cert.Certificate) (*Store, error) {
	pool, err := cert.NewPool()
	if err != nil {
		return nil, err
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	s := &Store{
		cache:     newStatusCache(),
		backend:   opts.Storage,
		ckptEvery: opts.CheckpointEvery,
		now:       opts.Now,
		logs:      make(map[dictionary.CAID]*caLog),
	}
	if opts.SharedData {
		mapper, ok := opts.Storage.(storage.Mapper)
		if !ok {
			return nil, fmt.Errorf("ra: SharedData requires a storage backend implementing storage.Mapper (got %T)", opts.Storage)
		}
		s.sharedMode = true
		s.mapper = mapper
		s.backend = nil // readers never open the logs for writing
	}
	s.view.Store(&storeView{
		replicas: map[dictionary.CAID]*dictionary.Replica{},
		shared:   map[dictionary.CAID]*sharedDict{},
		pool:     pool,
	})
	for _, r := range roots {
		if err := s.AddCA(r); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// clone copies the view's map and CA list so a writer can mutate them
// before publishing. The pool is cloned too: published views must never
// observe later AddRoot calls.
func (v *storeView) clone() *storeView {
	next := &storeView{
		replicas: make(map[dictionary.CAID]*dictionary.Replica, len(v.replicas)+1),
		shared:   make(map[dictionary.CAID]*sharedDict, len(v.shared)+1),
		pool:     v.pool.Clone(),
	}
	for ca, r := range v.replicas {
		next.replicas[ca] = r
	}
	for ca, d := range v.shared {
		next.shared[ca] = d
	}
	return next
}

// rebuildCAs recomputes the sorted CA list; caller publishes next.
func (v *storeView) rebuildCAs() {
	v.cas = make([]dictionary.CAID, 0, len(v.replicas)+len(v.shared))
	for ca := range v.replicas {
		v.cas = append(v.cas, ca)
	}
	for ca := range v.shared {
		v.cas = append(v.cas, ca)
	}
	sort.Slice(v.cas, func(i, j int) bool { return v.cas[i] < v.cas[j] })
}

// source returns what ca's cached statuses are labelled with — the owned
// replica or the shared reader — or nil for a CA the store does not serve.
func (v *storeView) source(ca dictionary.CAID) cacheSource {
	if d, ok := v.shared[ca]; ok {
		return d
	}
	if r, ok := v.replicas[ca]; ok {
		return r
	}
	return nil
}

// acquire returns the snapshot to prove ca's statuses from and the cache
// generation it was published under. A shared reader's snapshot reads a
// checkpoint mapping, which held keeps mapped until the caller releases it;
// an owned replica's is all heap and held is nil.
func (v *storeView) acquire(ca dictionary.CAID) (snap *dictionary.Snapshot, gen uint64, held *sharedState, err error) {
	if d, ok := v.shared[ca]; ok {
		if held = d.acquire(); held == nil {
			return nil, 0, nil, fmt.Errorf("ra: shared dictionary %s is closed", ca)
		}
		return held.snap, held.gen, held, nil
	}
	r, ok := v.replicas[ca]
	if !ok {
		return nil, 0, nil, fmt.Errorf("%w: %s", ErrNoDictionary, ca)
	}
	snap = r.Snapshot()
	return snap, snap.Generation(), nil, nil
}

// AddCA starts replicating one more CA's dictionary, trusting the given
// self-signed root certificate (the bootstrapping manifest of §VIII).
// With a storage backend configured, the replica warm-starts from its
// durable log: the persisted checkpoint is restored (re-verified against
// this trust anchor) and the WAL replayed, so the replica resumes at the
// count it crashed with.
func (s *Store) AddCA(root *cert.Certificate) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	cur := s.view.Load()
	_, dupR := cur.replicas[root.Issuer]
	_, dupS := cur.shared[root.Issuer]
	if dupR || dupS {
		// Same trust anchor, dictionary already live: only the pool changes.
		next := cur.clone()
		if err := next.pool.AddRoot(root); err != nil {
			return fmt.Errorf("ra: add CA: %w", err)
		}
		next.rebuildCAs()
		s.view.Store(next)
		return nil
	}
	if s.sharedMode {
		d, err := newSharedDict(root.Issuer, root.PublicKey, s.mapper, s.now)
		if err != nil {
			return err
		}
		next := cur.clone()
		if err := next.pool.AddRoot(root); err != nil {
			d.close()
			return fmt.Errorf("ra: add CA: %w", err)
		}
		next.shared[root.Issuer] = d
		next.rebuildCAs()
		s.view.Store(next)
		return nil
	}
	replica, lg, err := s.openReplica(root)
	if err != nil {
		return err
	}
	next := cur.clone()
	if err := next.pool.AddRoot(root); err != nil {
		if lg != nil {
			lg.Close()
		}
		return fmt.Errorf("ra: add CA: %w", err)
	}
	next.replicas[root.Issuer] = replica
	next.rebuildCAs()
	if lg != nil {
		s.pmu.Lock()
		s.logs[root.Issuer] = &caLog{log: lg}
		s.pmu.Unlock()
	}
	s.view.Store(next)
	return nil
}

// openReplica builds the replica for a trust anchor: fresh when no
// backend (or no durable state) exists, recovered otherwise. Recovery
// fails loudly on anything unverifiable — a corrupt store must not
// silently degrade to a cold start, because the operator would read the
// ensuing full resync as normal.
func (s *Store) openReplica(root *cert.Certificate) (*dictionary.Replica, storage.Log, error) {
	ca := root.Issuer
	if s.backend == nil {
		return dictionary.NewReplica(ca, root.PublicKey), nil, nil
	}
	lg, err := s.backend.Open(string(ca))
	if err != nil {
		return nil, nil, fmt.Errorf("ra: open durable log for %s: %w", ca, err)
	}
	replica, err := dictionary.RecoverReplicaLog(lg, ca, root.PublicKey, s.now().Unix())
	if err != nil {
		lg.Close()
		return nil, nil, fmt.Errorf("ra: warm-start %s: %w", ca, err)
	}
	return replica, lg, nil
}

// applyUpdate applies a verified issuance message to the CA's replica
// and, when it changed state and a backend is configured, WAL-appends it
// (checkpointing on cadence) — the update and the append are one unit
// under the CA's log mutex, so the WAL order always matches the apply
// order even under concurrent SyncOnce calls. Persistence failures are
// returned so the sync loop can surface them; the in-memory replica
// already advanced, so nothing is lost until the process dies — the next
// successful checkpoint covers the gap.
func (s *Store) applyUpdate(ca dictionary.CAID, replica *dictionary.Replica, msg *dictionary.IssuanceMessage) error {
	var cl *caLog
	if s.backend != nil {
		s.pmu.Lock()
		cl = s.logs[ca]
		s.pmu.Unlock()
	}
	if cl != nil {
		cl.mu.Lock()
		defer cl.mu.Unlock()
	}
	gen := replica.Snapshot().Generation()
	if err := replica.Update(msg); err != nil {
		return err
	}
	if !s.releaseSuperseded(ca, replica, gen) || cl == nil {
		// A verified no-op (re-delivered root), no backend, or a removed
		// CA: nothing to persist.
		return nil
	}
	rec := dictionary.UpdateRecord{Msg: msg}
	if err := cl.log.Append(rec.Encode()); err != nil {
		return fmt.Errorf("ra: persist update for %s: %w", ca, err)
	}
	cl.appended++
	if cl.appended < s.ckptEvery {
		return nil
	}
	return s.checkpointLocked(ca, cl)
}

// releaseSuperseded reports whether src published a new snapshot since it
// was at generation before and, if so, releases the CA's cached statuses
// of the superseded generations: they can never be served again, and left
// alone they stay reachable until the cache happens to evict them.
func (s *Store) releaseSuperseded(ca dictionary.CAID, src cacheSource, before uint64) bool {
	now := src.CurrentGeneration()
	if now == before {
		return false
	}
	s.cache.release(ca, src, now)
	return true
}

// checkpointLocked snapshots the CA's replica into its log, in the
// offset-indexed v2 format: the next warm start maps it instead of
// replaying it, and co-located shared-data readers serve straight from
// the mapping. Caller holds cl.mu.
func (s *Store) checkpointLocked(ca dictionary.CAID, cl *caLog) error {
	r, ok := s.view.Load().replicas[ca]
	if !ok {
		return nil
	}
	if err := cl.log.Checkpoint(r.PersistentStateV2()); err != nil {
		return fmt.Errorf("ra: checkpoint %s: %w", ca, err)
	}
	cl.appended = 0
	return nil
}

// applyFreshness applies a verified freshness statement to the CA's
// replica and, when it advanced the replica's state and a backend is
// configured, WAL-appends a freshness record. The record is what keeps
// co-located shared-data readers fresh between checkpoints: without it a
// reader mapping (checkpoint + WAL) would regress to the signed root's
// anchor until the writer's next update batch.
func (s *Store) applyFreshness(ca dictionary.CAID, replica *dictionary.Replica, stmt *dictionary.FreshnessStatement, now int64) error {
	var cl *caLog
	if s.backend != nil {
		s.pmu.Lock()
		cl = s.logs[ca]
		s.pmu.Unlock()
	}
	if cl != nil {
		cl.mu.Lock()
		defer cl.mu.Unlock()
	}
	gen := replica.Snapshot().Generation()
	if err := replica.ApplyFreshness(stmt, now); err != nil {
		return err
	}
	if !s.releaseSuperseded(ca, replica, gen) || cl == nil {
		return nil
	}
	rec := dictionary.FreshnessRecord{Value: stmt.Value}
	if err := cl.log.Append(rec.Encode()); err != nil {
		return fmt.Errorf("ra: persist freshness for %s: %w", ca, err)
	}
	// Freshness records do not advance the checkpoint cadence counter:
	// they are tiny, idempotent on replay, and a checkpoint triggered by
	// them alone would rewrite O(dictionary) state once per period even
	// with no revocation traffic.
	return nil
}

// Close releases the store's durable state: each CA whose log absorbed
// WAL records since its last checkpoint is checkpointed one final time —
// a clean shutdown leaves a map-ready v2 snapshot, so the next start (and
// every co-located reader) maps instead of replaying — then the logs are
// closed. In shared mode the retained mappings are released instead. The
// store must not be mutated afterwards; reads keep working from memory.
func (s *Store) Close() error {
	var firstErr error
	if s.sharedMode {
		for _, d := range s.view.Load().shared {
			if err := d.close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	s.pmu.Lock()
	defer s.pmu.Unlock()
	for ca, cl := range s.logs {
		cl.mu.Lock() // wait out any in-flight persisted update
		var err error
		if cl.appended > 0 {
			err = s.checkpointLocked(ca, cl)
		}
		if cerr := cl.log.Close(); cerr != nil && err == nil {
			err = cerr
		}
		cl.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		delete(s.logs, ca)
	}
	return firstErr
}

// Remove stops replicating a dictionary, frees its replica, and purges its
// cached statuses. With expiry-sharded dictionaries (§VIII "Ever-growing
// dictionaries"), RAs call it — normally through RemoveExpired — for
// shards whose certificates have all expired, reclaiming the storage. The
// trust anchor stays in the pool: removal is about storage, not trust.
func (s *Store) Remove(ca dictionary.CAID) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	cur := s.view.Load()
	if d, ok := cur.shared[ca]; ok {
		next := cur.clone()
		delete(next.shared, ca)
		next.rebuildCAs()
		s.view.Store(next)
		s.cache.release(ca, nil, 0)
		d.close() //nolint:errcheck // release the mappings; the files belong to the writer
		return
	}
	if _, ok := cur.replicas[ca]; !ok {
		return
	}
	next := cur.clone()
	delete(next.replicas, ca)
	next.rebuildCAs()
	s.view.Store(next)
	s.cache.release(ca, nil, 0)
	// Reclaim the durable state too: removal is the §VIII storage-reclaim
	// path, and a shard that expired will never be pulled again.
	s.pmu.Lock()
	cl := s.logs[ca]
	delete(s.logs, ca)
	s.pmu.Unlock()
	if cl != nil {
		cl.mu.Lock()     // wait out any in-flight persisted update
		cl.log.Destroy() //nolint:errcheck // reclaim is best-effort; the shard is already gone from memory
		cl.mu.Unlock()
	}
}

// RemoveExpired walks the replicated dictionaries and removes every
// expiry shard (an identifier produced by dictionary.ShardIDFor) whose
// bucket — of the given width — ended at or before now: every certificate
// such a shard covers has expired, so its revocation status is moot and
// the replica's storage is reclaimed (§VIII "Ever-growing dictionaries").
// Dictionaries without the shard suffix are never touched. It returns the
// removed shard identifiers.
//
// Caveat: shards are recognized purely by the "<ca>/exp-<unixtime>"
// identifier convention, so that suffix namespace is reserved — an
// unsharded CA whose identifier happens to end in "/exp-<integer>" would
// be pruned as if it were a shard. Deployments that cannot guarantee the
// convention must call Remove per shard themselves instead.
func (s *Store) RemoveExpired(now int64, width time.Duration) []dictionary.CAID {
	w := int64(width / time.Second)
	if w <= 0 {
		return nil
	}
	var removed []dictionary.CAID
	for _, ca := range s.CAs() {
		_, bucketStart, ok := dictionary.ParseShardID(ca)
		if !ok || bucketStart+w > now {
			continue
		}
		s.Remove(ca)
		removed = append(removed, ca)
	}
	return removed
}

// ReplaceReplica atomically substitutes the replica for ca with r and
// purges the CA's cached statuses. It is the commit step of
// desynchronization recovery (ra.RA.Resync): the replacement is built and
// fully synchronized off to the side, then swapped in, so the data path
// never observes a half-rebuilt dictionary. It fails if ca is not
// currently replicated or r mirrors a different CA.
func (s *Store) ReplaceReplica(ca dictionary.CAID, r *dictionary.Replica) error {
	if r == nil || r.CA() != ca {
		return fmt.Errorf("ra: replace replica: replacement does not mirror %s", ca)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	cur := s.view.Load()
	if _, ok := cur.replicas[ca]; !ok {
		return fmt.Errorf("%w: %s", ErrNoDictionary, ca)
	}
	next := cur.clone()
	next.replicas[ca] = r
	next.rebuildCAs()
	s.view.Store(next)
	s.cache.release(ca, nil, 0)
	// A replaced replica's history diverges from whatever the WAL holds
	// (that is the point of a resync); checkpoint the new state now so a
	// crash never replays old-history records onto it.
	s.pmu.Lock()
	cl := s.logs[ca]
	s.pmu.Unlock()
	if cl != nil {
		cl.mu.Lock()
		err := s.checkpointLocked(ca, cl)
		cl.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Replica returns the replica for ca. Shared-mode dictionaries have no
// replica — they are read-only views of another process's state — so
// requesting one is an error distinct from an unknown CA.
func (s *Store) Replica(ca dictionary.CAID) (*dictionary.Replica, error) {
	v := s.view.Load()
	r, ok := v.replicas[ca]
	if !ok {
		if _, shared := v.shared[ca]; shared {
			return nil, fmt.Errorf("ra: %s is served from a shared mapping (read-only)", ca)
		}
		return nil, fmt.Errorf("%w: %s", ErrNoDictionary, ca)
	}
	return r, nil
}

// sharedFor returns the shared-mode reader for ca, if any.
func (s *Store) sharedFor(ca dictionary.CAID) (*sharedDict, bool) {
	d, ok := s.view.Load().shared[ca]
	return d, ok
}

// Refresh polls every shared dictionary's stamp and re-maps the ones
// whose writer installed new state, publishing fresh snapshot
// generations. A no-op (and nil) outside shared mode. The RA's sync loop
// calls it on the same cadence it would have pulled from an origin.
func (s *Store) Refresh() error {
	var firstErr error
	for _, d := range s.view.Load().shared {
		if err := s.refreshShared(d); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// refreshShared re-maps one shared dictionary if its writer moved and
// releases the cached statuses the re-map superseded.
func (s *Store) refreshShared(d *sharedDict) error {
	gen := d.CurrentGeneration()
	err := d.refresh()
	s.releaseSuperseded(d.ca, d, gen)
	return err
}

// CAs lists the replicated CAs, sorted. The returned slice is shared and
// must not be modified.
func (s *Store) CAs() []dictionary.CAID {
	return s.view.Load().cas
}

// Pool returns the trust anchor pool (shared, read-only use).
func (s *Store) Pool() *cert.Pool {
	return s.view.Load().pool
}

// CAKey returns the trusted public key for ca.
func (s *Store) CAKey(ca dictionary.CAID) (ed25519.PublicKey, bool) {
	return s.view.Load().pool.CAKey(ca)
}

// Prove produces the revocation status for (ca, sn) from the RA's replica
// (Fig 2, prove; Fig 3 step 4), bypassing the status cache — each call
// constructs a fresh proof. The data path uses Status instead.
func (s *Store) Prove(ca dictionary.CAID, sn serial.Number) (*dictionary.Status, error) {
	snap, _, held, err := s.view.Load().acquire(ca)
	if err != nil {
		return nil, err
	}
	st, err := snap.Prove(sn)
	_ = held.release() // see sharedDict.refresh
	if err != nil {
		return nil, fmt.Errorf("ra: prove %v against %s: %w", sn, ca, err)
	}
	return st, nil
}

// Status produces the revocation status for (ca, sn) with its wire
// encoding, memoized per snapshot generation: while the replica's signed
// root and freshness statement are unchanged (a whole ∆ window), repeated
// requests for the same serial are served from the sharded cache as one
// map read. The returned Status has Subject set to sn and is shared —
// callers must treat it, and the encoded bytes, as immutable.
func (s *Store) Status(ca dictionary.CAID, sn serial.Number) (*dictionary.Status, []byte, error) {
	v := s.view.Load()
	source := v.source(ca)
	if source == nil {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoDictionary, ca)
	}
	// The lookup key aliases a stack copy of the serial (get does not
	// retain it); only a miss builds the heap string the map keeps.
	if e, ok := s.cache.get(cacheKey{ca: ca, sn: string(sn.Raw())}, source, source.CurrentGeneration()); ok {
		return &e.status, e.encoded, nil
	}
	// gen and snapshot are published together, so the entry's generation
	// labels the snapshot it was computed from.
	snap, gen, held, err := v.acquire(ca)
	if err != nil {
		return nil, nil, err
	}
	st, err := snap.Prove(sn)
	_ = held.release() // see sharedDict.refresh
	if err != nil {
		return nil, nil, fmt.Errorf("ra: prove %v against %s: %w", sn, ca, err)
	}
	e := &cacheEntry{source: source, gen: gen, status: *st}
	e.status.Subject = sn
	e.encoded = e.status.Encode()
	key := cacheKey{ca: ca, sn: string(sn.Raw())}
	s.cache.put(key, e)
	// A concurrent Remove, ReplaceReplica or snapshot swap may have
	// released this CA's entries between our loads and the put, in which
	// case the entry just stored is unservable (the source and generation
	// checks in get fail) but pins the dead dictionary until it falls off
	// its probation ring. Re-check and take it back out if we raced (any
	// view change counts; they are rare): either the release or this
	// check necessarily observes the entry.
	if s.view.Load() != v || source.CurrentGeneration() != gen {
		s.cache.drop(key, e)
	}
	return &e.status, e.encoded, nil
}

// CacheStats reports the status cache's hit/miss counters.
func (s *Store) CacheStats() CacheStats { return s.cache.stats() }

// SnapshotSwaps sums the snapshot generations across all replicas: the
// total number of atomic snapshot publications (updates + freshness
// refreshes) the store has absorbed. Benchmarks report it next to the
// cache hit rate, since every swap invalidates the affected CA's cached
// statuses.
func (s *Store) SnapshotSwaps() uint64 {
	var total uint64
	v := s.view.Load()
	for _, r := range v.replicas {
		total += r.Snapshot().Generation()
	}
	for _, d := range v.shared {
		total += d.CurrentGeneration()
	}
	return total
}

// LatestRoot returns the newest verified signed root for ca. It satisfies
// the monitor package's RootSource, letting RAs participate in consistency
// checking (§III "Consistency Checking").
func (s *Store) LatestRoot(ca dictionary.CAID) (*dictionary.SignedRoot, error) {
	snap, _, held, err := s.view.Load().acquire(ca)
	if err != nil {
		return nil, err
	}
	root := snap.Root() // decoded onto the heap: outlives the mapping
	_ = held.release()
	if root == nil {
		return nil, fmt.Errorf("ra: dictionary of %s has no signed root yet", ca)
	}
	return root, nil
}

// MappedBytes sums the sizes of the currently mapped shared checkpoints:
// bytes served via the page cache — shared across co-located readers —
// rather than process-private heap. Zero outside shared mode.
func (s *Store) MappedBytes() int {
	total := 0
	for _, d := range s.view.Load().shared {
		total += d.mappedBytes()
	}
	return total
}

// SerializedSize sums the canonical serialized sizes of all replicas
// (§VII-D storage overhead).
func (s *Store) SerializedSize() int {
	total := 0
	for _, r := range s.view.Load().replicas {
		total += r.SerializedSize()
	}
	return total
}

// MemoryFootprint sums the estimated resident sizes of all replicas.
func (s *Store) MemoryFootprint() int {
	total := 0
	for _, r := range s.view.Load().replicas {
		total += r.MemoryFootprint()
	}
	return total
}
