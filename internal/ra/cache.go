package ra

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"ritm/internal/dictionary"
)

// statusCache memoizes encoded revocation statuses per (CA, serial) for as
// long as the source snapshot's generation is unchanged — which, per the
// paper's freshness model, is a whole ∆ window: proof, signed root, and
// freshness statement are all functions of the replica's current snapshot.
// Under a Zipf-like serial popularity distribution (a few certificates
// carry most of the traffic), this turns almost every handshake-path
// Status call into a single sharded map read instead of an O(log n) proof
// construction plus encoding.
//
// Invalidation is by generation comparison: an entry is served only when
// its generation equals the generation of the replica's current snapshot,
// so a status whose root has been superseded is never served — at worst a
// status computed from the snapshot that was current when the lookup began
// is returned, which is exactly the guarantee an uncached Prove gives too.
// The store also releases a CA's superseded entries at every snapshot
// swap, so unservable statuses do not stay reachable.
//
// Admission is segmented, because a cached status is expensive — 2.3 KB
// live at n = 339,557 (decoded proof + encoding + structs), 5.5 KB of
// HeapInuse once eviction churn leaves spans half empty — and most serials
// a middlebox sees once are not seen again within the ∆. Each shard has
//
//   - a probation FIFO of shardCap/probationShare slots: a new entry
//     starts here and falls off the end unless it is looked up a second
//     time within that many inserts into its shard;
//   - a protected segment with the rest of shardCap: an entry moves here
//     on its second lookup and leaves only when the segment is full, by a
//     second-chance (CLOCK-approximated LRU) scan — each hit sets the
//     entry's access bit with no write lock, and the scan clears bits
//     until it finds an unreferenced victim.
//
// A scan of never-repeated serials can therefore occupy the probation
// rings and nothing else (64 × 256 × 2.3 KB ≈ 38 MB; admitting everything
// let it fill all 262 k slots, 1.5 GB of HeapInuse per RA), while re-used
// statuses keep their lock-free hits.
type statusCache struct {
	seed     maphash.Seed
	shardCap int // entries per shard, both segments; cacheShardCap outside tests
	shards   [cacheShardCount]cacheShard
}

// cacheShardCount spreads the hot path over independent locks. 64 shards
// keep contention negligible up to a few hundred data-path goroutines.
const cacheShardCount = 64

// cacheShardCap bounds each shard: 4096 × 64 shards ≈ 262 k statuses,
// ≈ 600 MB live if every slot held a re-used one — only re-use fills it
// (see probationShare). Per-instance (shardCap) so the eviction tests can
// exercise overflow without 262 k inserts.
const cacheShardCap = 4096

// probationShare is the fraction (1/16) of a shard given to the probation
// FIFO. It is the re-use window: a serial is admitted to the protected
// segment when it is requested twice within shardCap/16 misses on its
// shard (16 k misses cache-wide).
const probationShare = 16

// evictScanLimit bounds one eviction scan. Map iteration starts at a
// pseudo-random position, so the scan samples the shard; if every sampled
// entry was recently hit, the last one is evicted anyway — the bound keeps
// promotion O(1) even when the whole shard is hot.
const evictScanLimit = 16

// cacheShard counts its own hits and misses: a single global counter pair
// would put one contended cache line back onto the very path the sharding
// de-serializes, while the shard's own line is already touched by its
// RWMutex.
type cacheShard struct {
	mu sync.RWMutex
	m  map[cacheKey]*cacheEntry // both segments
	// ring is the probation FIFO, by key; head is its oldest slot, the next
	// to be reused. A slot is zero once its entry was promoted or released.
	ring      []cacheKey
	head      int
	protected int   // entries in the protected segment
	bytes     int64 // sum of footprint() over m
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	promoted  atomic.Int64
}

type cacheKey struct {
	ca dictionary.CAID
	sn string // canonical serial bytes
}

// cacheSource identifies the dictionary instance a cached status was
// computed from and exposes its current generation for staleness checks.
// *dictionary.Replica implements it for owned dictionaries; *sharedDict
// implements it for read-only mapped ones.
type cacheSource interface {
	CurrentGeneration() uint64
}

// cacheEntry is an immutable memoized status: the Status struct and its
// encoding are shared across goroutines and must never be mutated. The
// entry records which dictionary instance produced it, not just the
// generation: generations restart at zero when a CA is removed and
// re-added, so a generation match alone could alias a dead dictionary's
// status. The Status is held by value — one allocation for the entry and
// the status bookkeeping — and handed out by pointer.
type cacheEntry struct {
	source  cacheSource
	gen     uint64
	status  dictionary.Status
	encoded []byte
	// touched is the second-chance access bit of a protected entry: set on
	// a hit (under the read lock only — an atomic store, not a list move),
	// cleared by the eviction scan. An entry is evicted only after
	// surviving untouched from one scan encounter to the next.
	touched atomic.Bool
	// slot is the entry's index in the probation ring, -1 once protected.
	// Guarded by the shard lock.
	slot int32
}

// entryOverhead is the fixed part of footprint: entry, proof arena, key
// and map slot, fitted to the measured 2.3 KB per entry.
const entryOverhead = 448

// footprint is the entry's accounted heap size: its encoding, the decoded
// proof behind it (the same audit-path hashes a second time), and the
// fixed overhead.
func (e *cacheEntry) footprint() int64 {
	return int64(entryOverhead + 2*len(e.encoded))
}

func newStatusCache() *statusCache {
	return &statusCache{seed: maphash.MakeSeed(), shardCap: cacheShardCap}
}

// probation returns the per-shard probation ring size.
func (c *statusCache) probation() int { return max(c.shardCap/probationShare, 1) }

func (c *statusCache) shardFor(key cacheKey) *cacheShard {
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteString(string(key.ca))
	h.WriteByte(0)
	h.WriteString(key.sn)
	return &c.shards[h.Sum64()%cacheShardCount]
}

// get returns the entry for key if it matches the dictionary instance and
// generation, counting hit/miss. A hit on a probation entry — its second
// lookup — promotes it; a hit on a protected entry marks it recently used.
// The key is not retained, so callers may build it on the stack.
func (c *statusCache) get(key cacheKey, src cacheSource, gen uint64) (*cacheEntry, bool) {
	sh := c.shardFor(key)
	sh.mu.RLock()
	e := sh.m[key]
	onProbation := e != nil && e.slot >= 0
	sh.mu.RUnlock()
	if e == nil || e.source != src || e.gen != gen {
		sh.misses.Add(1)
		return nil, false
	}
	if onProbation {
		sh.promote(key, e, c.shardCap-c.probation())
	} else if !e.touched.Load() {
		e.touched.Store(true)
	}
	sh.hits.Add(1)
	return e, true
}

// promote moves e from the probation ring to the protected segment,
// evicting one cold protected entry if that overfills it. A racing promote,
// FIFO drop or release of the same entry wins; the caller still serves e.
func (sh *cacheShard) promote(key cacheKey, e *cacheEntry, protectedCap int) {
	sh.mu.Lock()
	if sh.m[key] == e && e.slot >= 0 {
		sh.ring[e.slot] = cacheKey{}
		e.slot = -1
		sh.protected++
		sh.promoted.Add(1)
		if sh.protected > protectedCap {
			sh.evictProtectedLocked(e)
		}
	}
	sh.mu.Unlock()
}

// put admits an entry on probation, dropping the ring's oldest occupant:
// one that got no second lookup within a ring's worth of inserts.
func (c *statusCache) put(key cacheKey, e *cacheEntry) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[cacheKey]*cacheEntry)
		sh.ring = make([]cacheKey, c.probation())
	}
	if old := sh.m[key]; old != nil {
		sh.removeLocked(key, old) // superseded generation or a racing miss
	}
	if oldest := sh.ring[sh.head]; oldest != (cacheKey{}) {
		sh.removeLocked(oldest, sh.m[oldest])
		sh.evictions.Add(1)
	}
	e.slot = int32(sh.head)
	sh.ring[sh.head] = key
	sh.head = (sh.head + 1) % len(sh.ring)
	sh.m[key] = e
	sh.bytes += e.footprint()
	sh.mu.Unlock()
}

// removeLocked unlinks e, the map's entry for key, from the map and its
// segment. Caller holds the write lock.
func (sh *cacheShard) removeLocked(key cacheKey, e *cacheEntry) {
	delete(sh.m, key)
	if e.slot >= 0 {
		sh.ring[e.slot] = cacheKey{}
	} else {
		sh.protected--
	}
	sh.bytes -= e.footprint()
}

// evictProtectedLocked removes one protected entry other than keep (the
// one just promoted) whose access bit is clear; a scan full of hot entries
// clears their bits (second chance) and falls back to the last sampled.
// Caller holds the write lock and guarantees such an entry exists.
func (sh *cacheShard) evictProtectedLocked(keep *cacheEntry) {
	var victim cacheKey
	scanned := 0
	for k, e := range sh.m {
		if e.slot >= 0 || e == keep {
			continue
		}
		victim = k
		scanned++
		if !e.touched.Swap(false) || scanned >= evictScanLimit {
			break
		}
	}
	sh.removeLocked(victim, sh.m[victim])
	sh.evictions.Add(1)
}

// drop removes e if it is still cached: the miss path's undo for an entry
// that a concurrent swap or Remove made unservable before it was stored.
func (c *statusCache) drop(key cacheKey, e *cacheEntry) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	if sh.m[key] == e {
		sh.removeLocked(key, e)
	}
	sh.mu.Unlock()
}

// release drops every entry of ca that was not computed from generation
// gen of src: the superseded generation's after a snapshot swap, all of
// them (src nil) when the dictionary is removed or replaced.
func (c *statusCache) release(ca dictionary.CAID, src cacheSource, gen uint64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			if k.ca == ca && (e.source != src || e.gen != gen) {
				sh.removeLocked(k, e)
			}
		}
		sh.mu.Unlock()
	}
}

// CacheStats reports the status cache's effectiveness; benchmarks surface
// HitRate and the snapshot-swap count so the hot-path trajectory is
// trackable across PRs.
type CacheStats struct {
	// Hits counts lookups served from the cache.
	Hits int64
	// Misses counts lookups that recomputed a proof (cold key or stale
	// generation).
	Misses int64
	// Evictions counts entries removed to make room: probation entries
	// that fell off their FIFO without a second lookup, and protected
	// entries displaced by a promotion into a full segment. Entries
	// released by a snapshot swap or a CA removal are not evictions.
	Evictions int64
	// Promotions counts entries moved from probation to the protected
	// segment by a second lookup.
	Promotions int64
	// Entries is the current number of cached statuses, both segments.
	Entries int
	// Probation is how many of Entries are on probation.
	Probation int
	// Bytes is the accounted heap footprint of Entries: encodings, decoded
	// proofs and per-entry structs (an estimate, not a runtime reading).
	Bytes int64
}

func (c *statusCache) stats() CacheStats {
	var out CacheStats
	for i := range c.shards {
		sh := &c.shards[i]
		out.Hits += sh.hits.Load()
		out.Misses += sh.misses.Load()
		out.Evictions += sh.evictions.Load()
		out.Promotions += sh.promoted.Load()
		sh.mu.RLock()
		out.Entries += len(sh.m)
		out.Probation += len(sh.m) - sh.protected
		out.Bytes += sh.bytes
		sh.mu.RUnlock()
	}
	return out
}
