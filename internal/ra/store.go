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
//   - Fetcher: one pull loop per CA contacting an edge server once per
//     period of the CA's signed root (§III "Dissemination"), with
//     desynchronization recovery;
//   - Table: the per-connection DPI state of Eq (4);
//   - Proxy: a TCP middlebox that splices revocation-status records into
//     the TLS-sim stream (RA-to-client communication method 1/3 of §VIII).
package ra

import (
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
// ReplaceReplica) build the next view under a mutex and swap it in. Each
// replica in turn publishes lock-free snapshots, so a status is produced
// without acquiring any lock anywhere on the path.
type Store struct {
	view  atomic.Pointer[storeView]
	wmu   sync.Mutex // serializes view writers
	cache *statusCache

	// mapper, when non-nil, marks a read-only store: dictionaries are
	// served from another process's durable logs (see shared.go) instead
	// of owned replicas.
	mapper storage.Mapper

	// Durable state tier (nil backend = purely in-memory, the default).
	// Each owned replica is held by a journal over its log on backend,
	// which bounds both replay time and WAL growth by its checkpoint
	// cadence. AddCA warm-starts each replica from its log, so a restarted
	// RA resumes at its persisted count and the fetcher pulls only the
	// missed suffix — O(missed ∆) instead of the full-dictionary resync a
	// cold start pays.
	backend   storage.Backend
	ckptEvery int
	now       func() time.Time
}

// StoreOptions configures a Store beyond its trust anchors.
type StoreOptions struct {
	// Storage, when non-nil, persists every replica to the backend and
	// warm-starts replicas from it on AddCA.
	Storage storage.Backend
	// CheckpointEvery is the number of update records between checkpoints
	// (0 = dictionary.DefaultCheckpointEvery).
	CheckpointEvery int
	// SharedData turns the store into a read-only co-located reader:
	// instead of owning replicas and writing to Storage, it maps the
	// checkpoints another process's store writes there (one writer, N
	// readers against one data directory) and serves statuses from the
	// mapping. Requires Storage to implement storage.Mapper (both
	// built-in backends do). The RA's sync loop picks up the writer's
	// installs.
	SharedData bool
	// Now is the clock used when re-validating persisted freshness on
	// warm start (nil = time.Now).
	Now func() time.Time
}

// storeView is one immutable configuration of the store. All fields —
// including the pool — are replaced wholesale, never mutated, once the
// view is published.
type storeView struct {
	dicts map[dictionary.CAID]*caDict
	cas   []dictionary.CAID // sorted
	pool  *cert.Pool
}

// caDict is one CA's dictionary: an owned replica together with the
// journal that holds it, or a shared-mode reader of another process's
// logs. Entries are immutable once published; ReplaceReplica publishes a
// new one.
type caDict struct {
	replica *dictionary.Replica
	journal *dictionary.Journal[*dictionary.Replica]
	shared  *sharedDict
}

// source returns what the CA's cached statuses are labelled with: the
// shared reader, or the owned replica itself — not the entry — so statuses
// cached from a replaced replica can never be served again.
func (d *caDict) source() cacheSource {
	if d.shared != nil {
		return d.shared
	}
	return d.replica
}

// acquire returns the snapshot to prove the CA's statuses from and the
// cache generation it was published under. A shared reader's snapshot
// reads a checkpoint mapping, which held keeps mapped until the caller
// releases it; an owned replica's is all heap and held is nil.
func (d *caDict) acquire() (snap *dictionary.Snapshot, gen uint64, held *sharedState, err error) {
	if d.shared == nil {
		snap = d.replica.Snapshot()
		return snap, snap.Generation(), nil, nil
	}
	if held = d.shared.acquire(); held == nil {
		return nil, 0, nil, fmt.Errorf("ra: shared dictionary %s is closed", d.shared.ca)
	}
	return held.snap, held.gen, held, nil
}

// close releases the entry's durable state: a shared reader's mappings, or
// the owned journal's log (see Store.Close).
func (d *caDict) close() error {
	if d.shared != nil {
		return d.shared.close()
	}
	return d.journal.Close()
}

// NewStore creates a store trusting the given root certificates — a
// dictionary is opened per root — with the optional durable state tier
// and shared-reader mode of opts.
func NewStore(opts StoreOptions, roots ...*cert.Certificate) (*Store, error) {
	pool, err := cert.NewPool()
	if err != nil {
		return nil, err
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	s := &Store{
		cache:     newStatusCache(),
		backend:   opts.Storage,
		ckptEvery: opts.CheckpointEvery,
		now:       opts.Now,
	}
	if opts.SharedData {
		mapper, ok := opts.Storage.(storage.Mapper)
		if !ok {
			return nil, fmt.Errorf("ra: SharedData requires a storage backend implementing storage.Mapper (got %T)", opts.Storage)
		}
		s.mapper = mapper
		s.backend = nil // readers never open the logs for writing
	}
	s.view.Store(&storeView{dicts: map[dictionary.CAID]*caDict{}, pool: pool})
	for _, r := range roots {
		if err := s.AddCA(r); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// with publishes the next view: ca's entry set to d (nil removes it) and,
// when pool is non-nil, the trust pool replaced by it. Callers hold wmu.
func (s *Store) with(ca dictionary.CAID, d *caDict, pool *cert.Pool) {
	cur := s.view.Load()
	next := &storeView{dicts: make(map[dictionary.CAID]*caDict, len(cur.dicts)+1), pool: cur.pool}
	for id, e := range cur.dicts {
		next.dicts[id] = e
	}
	if d == nil {
		delete(next.dicts, ca)
	} else {
		next.dicts[ca] = d
	}
	if pool != nil {
		next.pool = pool
	}
	next.cas = make([]dictionary.CAID, 0, len(next.dicts))
	for id := range next.dicts {
		next.cas = append(next.cas, id)
	}
	sort.Slice(next.cas, func(i, j int) bool { return next.cas[i] < next.cas[j] })
	s.view.Store(next)
}

// dict returns ca's entry in the current view.
func (s *Store) dict(ca dictionary.CAID) (*caDict, error) {
	if d, ok := s.view.Load().dicts[ca]; ok {
		return d, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoDictionary, ca)
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
	// Published views never observe a later AddRoot: the root goes into a
	// clone of the pool.
	pool := cur.pool.Clone()
	if err := pool.AddRoot(root); err != nil {
		return fmt.Errorf("ra: add CA: %w", err)
	}
	d, ok := cur.dicts[root.Issuer] // same trust anchor, dictionary already live: only the pool changes
	if !ok {
		d = &caDict{}
		if s.mapper != nil {
			sd, err := newSharedDict(root.Issuer, root.PublicKey, s.mapper, s.now)
			if err != nil {
				return err
			}
			d.shared = sd
		} else {
			j, err := dictionary.OpenReplicaJournal(s.backend, root.Issuer, root.PublicKey, s.ckptEvery, s.now().Unix())
			if err != nil {
				return fmt.Errorf("ra: warm-start %s: %w", root.Issuer, err)
			}
			d.replica, d.journal = j.State(), j
		}
	}
	s.with(root.Issuer, d, pool)
	return nil
}

// applyUpdate applies a verified issuance message to the replica j holds —
// not one the caller loaded earlier, which a Resync may have replaced
// since — and journals it when it changed state. Persistence failures are
// returned so the sync loop can surface them; the in-memory replica
// already advanced, so nothing is lost until the process dies — the next
// successful checkpoint covers the gap.
func (s *Store) applyUpdate(ca dictionary.CAID, j *dictionary.Journal[*dictionary.Replica], msg *dictionary.IssuanceMessage) error {
	return j.Apply(func(r *dictionary.Replica) (dictionary.Record, error) {
		gen := r.CurrentGeneration()
		if err := r.Update(msg); err != nil || !s.releaseSuperseded(ca, r, gen) {
			return nil, err // a verified no-op (re-delivered root) logs nothing
		}
		return &dictionary.UpdateRecord{Msg: msg}, nil
	})
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

// applyFreshness applies a verified freshness statement to the CA's
// replica and journals a freshness record when it advanced the replica's
// state. The record is what keeps co-located shared-data readers fresh
// between checkpoints: without it a reader mapping (checkpoint + WAL) would
// regress to the signed root's anchor until the writer's next update batch.
func (s *Store) applyFreshness(ca dictionary.CAID, j *dictionary.Journal[*dictionary.Replica], stmt *dictionary.FreshnessStatement, now int64) error {
	return j.Apply(func(r *dictionary.Replica) (dictionary.Record, error) {
		gen := r.CurrentGeneration()
		if err := r.ApplyFreshness(stmt, now); err != nil || !s.releaseSuperseded(ca, r, gen) {
			return nil, err
		}
		return &dictionary.FreshnessRecord{Value: stmt.Value}, nil
	})
}

// Close releases the store's durable state: each CA's journal checkpoints
// the update records its last checkpoint does not cover — a clean shutdown
// leaves a map-ready v2 snapshot, so the next start (and every co-located
// reader) maps instead of replaying — then closes its log. In shared mode
// the retained mappings are released instead. The store must not be
// mutated afterwards; reads keep working from memory.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	var firstErr error
	for ca, d := range s.view.Load().dicts {
		if err := d.close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("ra: close %s: %w", ca, err)
		}
	}
	return firstErr
}

// Remove stops replicating a dictionary, frees its replica, and purges its
// cached statuses. With expiry-sharded dictionaries (§VIII "Ever-growing
// dictionaries"), the fetcher calls it for shards whose certificates have
// all expired (FetcherOptions.ShardExpiry), reclaiming the storage. The
// trust anchor stays in the pool: removal is about storage, not trust.
func (s *Store) Remove(ca dictionary.CAID) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	d, ok := s.view.Load().dicts[ca]
	if !ok {
		return
	}
	s.with(ca, nil, nil)
	s.cache.release(ca, nil, 0)
	if d.shared != nil {
		d.shared.close() //nolint:errcheck // release the mappings; the files belong to the writer
		return
	}
	// Reclaim the durable state too: removal is the §VIII storage-reclaim
	// path, and a shard that expired will never be pulled again.
	d.journal.Destroy() //nolint:errcheck // reclaim is best-effort; the shard is already gone from memory
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
	d, ok := s.view.Load().dicts[ca]
	if !ok || d.journal == nil {
		return fmt.Errorf("%w: %s", ErrNoDictionary, ca)
	}
	// A replaced replica's history diverges from whatever the WAL holds
	// (that is the point of a resync); the journal checkpoints it at once.
	err := d.journal.Replace(func(*dictionary.Replica) (*dictionary.Replica, error) {
		s.with(ca, &caDict{replica: r, journal: d.journal}, nil)
		return r, nil
	})
	s.cache.release(ca, nil, 0)
	if err != nil {
		return fmt.Errorf("ra: replace replica of %s: %w", ca, err)
	}
	return nil
}

// Replica returns the replica for ca. Shared-mode dictionaries have no
// replica — they are read-only views of another process's state — so
// requesting one is an error distinct from an unknown CA.
func (s *Store) Replica(ca dictionary.CAID) (*dictionary.Replica, error) {
	d, err := s.dict(ca)
	if err != nil {
		return nil, err
	}
	if d.shared != nil {
		return nil, fmt.Errorf("ra: %s is served from a shared mapping (read-only)", ca)
	}
	return d.replica, nil
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

// Prove produces the revocation status for (ca, sn) from the RA's replica
// (Fig 2, prove; Fig 3 step 4), bypassing the status cache — each call
// constructs a fresh proof. The data path uses Status instead.
func (s *Store) Prove(ca dictionary.CAID, sn serial.Number) (*dictionary.Status, error) {
	d, err := s.dict(ca)
	if err != nil {
		return nil, err
	}
	snap, _, held, err := d.acquire()
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
	d, ok := v.dicts[ca]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoDictionary, ca)
	}
	source := d.source()
	// The lookup key aliases a stack copy of the serial (get does not
	// retain it); only a miss builds the heap string the map keeps.
	if e, ok := s.cache.get(cacheKey{ca: ca, sn: string(sn.Raw())}, source, source.CurrentGeneration()); ok {
		return &e.status, e.encoded, nil
	}
	// gen and snapshot are published together, so the entry's generation
	// labels the snapshot it was computed from.
	snap, gen, held, err := d.acquire()
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
	for _, d := range s.view.Load().dicts {
		total += d.source().CurrentGeneration()
	}
	return total
}

// LatestRoot returns the newest verified signed root for ca. It satisfies
// the monitor package's RootSource, letting RAs participate in consistency
// checking (§III "Consistency Checking").
func (s *Store) LatestRoot(ca dictionary.CAID) (*dictionary.SignedRoot, error) {
	d, err := s.dict(ca)
	if err != nil {
		return nil, err
	}
	snap, _, held, err := d.acquire()
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
	for _, d := range s.view.Load().dicts {
		if d.shared != nil {
			total += d.shared.mappedBytes()
		}
	}
	return total
}

// MemoryFootprint sums the estimated resident sizes of all replicas.
func (s *Store) MemoryFootprint() int {
	total := 0
	for _, d := range s.view.Load().dicts {
		if d.replica != nil {
			total += d.replica.MemoryFootprint()
		}
	}
	return total
}
