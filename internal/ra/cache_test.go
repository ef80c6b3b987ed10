package ra

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// smallStatusCache returns a cache with a tiny per-shard capacity so
// overflow is reachable without 262k inserts; the knob is per instance,
// never shared state.
func smallStatusCache(shardCap int) *statusCache {
	c := newStatusCache()
	c.shardCap = shardCap
	return c
}

func testReplica(t *testing.T) *dictionary.Replica {
	t.Helper()
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	return dictionary.NewReplica("CacheCA", signer.Public())
}

func entryFor(r *dictionary.Replica, gen uint64) *cacheEntry {
	return &cacheEntry{source: r, gen: gen, encoded: []byte{1}}
}

func keyOf(i int) cacheKey {
	return cacheKey{ca: "CacheCA", sn: fmt.Sprintf("sn-%d", i)}
}

// TestStatusCacheEvictionBounded floods the cache far past its capacity:
// the entry count must stay bounded per shard and every admission beyond
// capacity must be a single-entry eviction, not a shard reset.
func TestStatusCacheEvictionBounded(t *testing.T) {
	const shardCap = 4
	c := smallStatusCache(shardCap)
	r := testReplica(t)
	const inserts = 64 * shardCap * 4
	for i := 0; i < inserts; i++ {
		c.put(keyOf(i), entryFor(r, 0))
	}
	st := c.stats()
	if max := cacheShardCount * shardCap; st.Entries > max {
		t.Errorf("entries = %d, want ≤ %d", st.Entries, max)
	}
	if st.Entries < shardCap { // the load spreads over 64 shards
		t.Errorf("entries = %d, implausibly low", st.Entries)
	}
	if want := int64(inserts - cacheShardCount*shardCap); st.Evictions < want {
		t.Errorf("evictions = %d, want ≥ %d", st.Evictions, want)
	}
}

// TestStatusCacheHotEntrySurvivesEviction is the thrashing regression the
// whole-shard reset had: a continuously hit entry must survive arbitrarily
// many cold insertions — once its second lookup has promoted it, cold
// inserts only ever displace each other on the probation ring.
func TestStatusCacheHotEntrySurvivesEviction(t *testing.T) {
	c := smallStatusCache(4)
	r := testReplica(t)
	gen := r.Snapshot().Generation()
	hot := keyOf(1_000_000)
	c.put(hot, entryFor(r, gen))
	if _, ok := c.get(hot, r, gen); !ok { // second lookup: promoted
		t.Fatal("entry not served on probation")
	}
	for i := 0; i < 2000; i++ {
		c.put(keyOf(i), entryFor(r, gen))
		if _, ok := c.get(hot, r, gen); !ok {
			t.Fatalf("hot entry evicted after %d cold inserts", i+1)
		}
	}
	if c.stats().Evictions == 0 {
		t.Fatal("no evictions happened; the test exercised nothing")
	}
}

// checkInvariants verifies every shard's bookkeeping against its map: an
// entry is in exactly one segment, the counters and the accounted bytes
// match, and neither segment exceeds its share of shardCap.
func checkInvariants(t *testing.T, c *statusCache) {
	t.Helper()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		protected, onRing := 0, 0
		var bytes int64
		for k, e := range sh.m {
			bytes += e.footprint()
			if e.slot < 0 {
				protected++
			} else if sh.ring[e.slot] != k {
				t.Errorf("shard %d: probation entry %v is not in its ring slot", i, k)
			}
		}
		for slot, k := range sh.ring {
			if k == (cacheKey{}) {
				continue
			}
			onRing++
			if e := sh.m[k]; e == nil || int(e.slot) != slot {
				t.Errorf("shard %d: ring slot %d holds a key the map does not", i, slot)
			}
		}
		if protected != sh.protected || protected+onRing != len(sh.m) {
			t.Errorf("shard %d: %d protected (counter %d) + %d on the ring != %d entries",
				i, protected, sh.protected, onRing, len(sh.m))
		}
		if limit := c.shardCap - c.probation(); protected > limit {
			t.Errorf("shard %d: %d protected entries, cap %d", i, protected, limit)
		}
		if bytes != sh.bytes {
			t.Errorf("shard %d: accounted %d bytes, entries sum to %d", i, sh.bytes, bytes)
		}
		sh.mu.RUnlock()
	}
}

// TestStatusCachePromotion walks one entry through the segments: admitted
// on probation by its miss, promoted by its second lookup — counted once,
// in one segment — and its vacated ring slot is reused without an eviction,
// while an entry nobody asks for twice falls off the ring as one.
func TestStatusCachePromotion(t *testing.T) {
	c := smallStatusCache(2 * probationShare) // two probation slots per shard
	r := testReplica(t)
	hot := keyOf(0)
	shard := c.shardFor(hot)
	var cold []cacheKey // same shard as hot
	for i := 1; len(cold) < 3; i++ {
		if c.shardFor(keyOf(i)) == shard {
			cold = append(cold, keyOf(i))
		}
	}

	c.put(hot, entryFor(r, 0))
	if st := c.stats(); st.Entries != 1 || st.Probation != 1 || st.Promotions != 0 {
		t.Fatalf("after the miss: %+v, want one entry, on probation", st)
	}
	if _, ok := c.get(hot, r, 0); !ok {
		t.Fatal("probation entry not served")
	}
	for i := 0; i < 3; i++ { // later hits must not promote again
		c.get(hot, r, 0)
	}
	st := c.stats()
	if st.Entries != 1 || st.Probation != 0 || st.Promotions != 1 || st.Hits != 4 {
		t.Fatalf("after the second lookup: %+v, want one protected entry, one promotion, 4 hits", st)
	}
	if want := entryFor(r, 0).footprint(); st.Bytes != want {
		t.Errorf("Bytes = %d, want %d", st.Bytes, want)
	}

	c.put(cold[0], entryFor(r, 0)) // second ring slot
	c.put(cold[1], entryFor(r, 0)) // hot's vacated slot: nothing to drop
	if got := c.stats().Evictions; got != 0 {
		t.Fatalf("evictions = %d after reusing a vacated slot, want 0", got)
	}
	c.put(cold[2], entryFor(r, 0)) // ring full: cold[0] falls off
	if _, ok := c.get(cold[0], r, 0); ok {
		t.Error("entry with a single lookup survived a full turn of the ring")
	}
	if _, ok := c.get(hot, r, 0); !ok {
		t.Error("promoted entry was displaced by probation traffic")
	}
	if st := c.stats(); st.Evictions != 1 || st.Entries != 3 || st.Probation != 2 {
		t.Errorf("after the ring turned: %+v, want 1 eviction, 3 entries, 2 on probation", st)
	}
	checkInvariants(t, c)
}

// TestStatusCacheProtectedSecondChance overfills the protected segment:
// each promotion past its capacity evicts one protected entry, and a
// continuously hit one is never the victim.
func TestStatusCacheProtectedSecondChance(t *testing.T) {
	const shardCap = 8 // 1 probation slot + 7 protected per shard
	c := smallStatusCache(shardCap)
	r := testReplica(t)
	hot := keyOf(1_000_000)
	c.put(hot, entryFor(r, 0))
	c.get(hot, r, 0)
	const keys = cacheShardCount * shardCap * 4
	for i := 0; i < keys; i++ {
		c.put(keyOf(i), entryFor(r, 0))
		c.get(keyOf(i), r, 0) // promote every one of them
		if _, ok := c.get(hot, r, 0); !ok {
			t.Fatalf("hot entry evicted after %d promotions", i+1)
		}
	}
	st := c.stats()
	if st.Promotions != keys+1 {
		t.Errorf("promotions = %d, want %d", st.Promotions, keys+1)
	}
	if want := int64(keys + 1 - cacheShardCount*(shardCap-1)); st.Evictions < want {
		t.Errorf("evictions = %d, want ≥ %d", st.Evictions, want)
	}
	checkInvariants(t, c)
}

// TestStatusCacheScanResistance is the failure this design replaced: a
// million never-repeated serials interleaved with a 4,096-key hot set.
// Admitting everything filled all 262 k slots with statuses nobody asks for
// again; now the scan can only occupy the probation rings, and the hot set
// — each key promoted by its second lookup — keeps hitting.
func TestStatusCacheScanResistance(t *testing.T) {
	const hot, scans = 4096, 1_000_000
	c := newStatusCache()
	r := testReplica(t)
	lookup := func(k cacheKey) bool {
		if _, ok := c.get(k, r, 0); ok {
			return true
		}
		c.put(k, entryFor(r, 0))
		return false
	}
	hits := 0
	for i := 0; i < scans; i++ {
		lookup(keyOf(hot + i)) // never repeated
		if lookup(keyOf(i % hot)) {
			hits++
		}
	}
	if ratio := float64(hits) / scans; ratio < 0.99 {
		t.Errorf("hot-set hit ratio = %.4f through the scan, want ≥ 0.99", ratio)
	}
	st := c.stats()
	if limit := hot + cacheShardCount*c.probation(); st.Entries > limit {
		t.Errorf("entries = %d, want ≤ hot set + probation rings = %d", st.Entries, limit)
	}
	if st.Entries-st.Probation != hot {
		t.Errorf("protected entries = %d, want the %d hot keys", st.Entries-st.Probation, hot)
	}
	if st.Evictions < scans-int64(cacheShardCount*c.probation()) {
		t.Errorf("evictions = %d: the scan's entries did not fall off probation", st.Evictions)
	}
	checkInvariants(t, c)
}

// fakeSource is a cacheSource whose generation the test moves by hand.
type fakeSource struct{ gen atomic.Uint64 }

func (f *fakeSource) CurrentGeneration() uint64 { return f.gen.Load() }

// TestStatusCacheConcurrentChurn mixes every mutation the cache has —
// lookups that hit, promote, miss and fill; FIFO drops and protected
// evictions (tiny shards); generation bumps with their release; whole-CA
// release; the miss path's drop — from many goroutines, for the race
// detector, and checks the bookkeeping afterwards.
func TestStatusCacheConcurrentChurn(t *testing.T) {
	c := smallStatusCache(2 * probationShare)
	src := &fakeSource{}
	const ca = dictionary.CAID("CacheCA")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keyOf(i % 512) // re-used keys: promotions, protected evictions
				if i%4 == 0 {
					k = keyOf(1_000_000*(w+1) + i) // never repeated: FIFO drops
				}
				gen := src.CurrentGeneration()
				if e, ok := c.get(k, src, gen); ok {
					if e.gen != gen || e.source != cacheSource(src) {
						t.Errorf("served an entry of generation %d at %d", e.gen, gen)
					}
					continue
				}
				e := &cacheEntry{source: src, gen: gen, encoded: []byte{1}}
				c.put(k, e)
				if src.CurrentGeneration() != gen {
					c.drop(k, e)
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		c.release(ca, src, src.gen.Add(1)) // snapshot swap
		if i%50 == 49 {
			c.release(ca, nil, 0) // Remove / ReplaceReplica
		}
		c.stats()
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	checkInvariants(t, c)
	if st := c.stats(); st.Promotions == 0 || st.Evictions == 0 || st.Hits == 0 {
		t.Errorf("the churn exercised too little: %+v", st)
	}
	// After a final swap nothing of the old generation is left.
	c.release(ca, src, src.gen.Add(1))
	if st := c.stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("after the last swap: %d entries, %d bytes, want none", st.Entries, st.Bytes)
	}
}

// TestStoreReleasesSupersededStatuses is the reachability bug: after a
// snapshot swap every cached status of that CA is unservable, and used to
// stay cached until later inserts happened to evict it (1.4 GB of dead
// statuses on a busy writer). Each kind of swap must release them without
// any further lookup.
func TestStoreReleasesSupersededStatuses(t *testing.T) {
	fill := func(t *testing.T, agent *RA) {
		t.Helper()
		for _, sn := range serial.NewGenerator(0xF111, nil).NextN(300) {
			if _, err := agent.Status("CA1", sn); err != nil {
				t.Fatal(err)
			}
		}
		if st := agent.CacheStats(); st.Entries != 300 || st.Bytes == 0 {
			t.Fatalf("filled cache: %+v, want 300 entries", st)
		}
	}
	wantEmpty := func(t *testing.T, agent *RA, after string) {
		t.Helper()
		if st := agent.CacheStats(); st.Entries != 0 || st.Bytes != 0 {
			t.Errorf("after %s: %d entries (%d bytes) still cached, want 0", after, st.Entries, st.Bytes)
		}
	}

	t.Run("update and freshness", func(t *testing.T) {
		env := newEnv(t, time.Hour)
		fill(t, env.ra)
		if _, err := env.ca.Revoke(serial.NewGenerator(0xBEEF, nil).Next()); err != nil {
			t.Fatal(err)
		}
		if err := env.ra.SyncOnce(); err != nil {
			t.Fatal(err)
		}
		wantEmpty(t, env.ra, "an issuance update")

		fill(t, env.ra)
		replica, err := env.ra.Store().Replica("CA1")
		if err != nil {
			t.Fatal(err)
		}
		gen := replica.CurrentGeneration()
		if err := env.ra.SyncOnce(); err != nil { // nothing new: no swap
			t.Fatal(err)
		}
		if replica.CurrentGeneration() != gen {
			t.Fatal("a sync with nothing new published a snapshot")
		}
		if st := env.ra.CacheStats(); st.Entries != 300 {
			t.Errorf("a sync without a swap released entries: %d left of 300", st.Entries)
		}
	})

	t.Run("replace replica", func(t *testing.T) {
		env := newEnv(t, time.Hour)
		fill(t, env.ra)
		old, err := env.ra.Store().Replica("CA1")
		if err != nil {
			t.Fatal(err)
		}
		fresh := dictionary.NewReplica("CA1", old.PublicKey())
		if err := env.ra.Store().ReplaceReplica("CA1", fresh); err != nil {
			t.Fatal(err)
		}
		wantEmpty(t, env.ra, "ReplaceReplica")
	})

	t.Run("shared re-map", func(t *testing.T) {
		env := newPersistEnv(t, nil, 4, 25)
		writer, reader := newSharedPair(t, env, storage.NewMemory())
		fill(t, reader)
		env.revoke(t, 1, 25)
		if err := writer.SyncOnce(); err != nil {
			t.Fatal(err)
		}
		if err := reader.SyncOnce(); err != nil {
			t.Fatal(err)
		}
		wantEmpty(t, reader, "the reader's re-map")
	})
}

// TestStoreStatusAllocs pins the data path's allocation budget: a cache
// hit allocates nothing (the lookup key lives on the stack), a miss at most
// six objects — key, proof arena, audit paths, the Status Prove returns,
// encoding, entry — on a heap writer's store and on a shared reader's, which
// proves off a file mapping of the writer's checkpoint: a proof copies its
// serials into its arena there too.
func TestStoreStatusAllocs(t *testing.T) {
	t.Run("heap writer", func(t *testing.T) {
		env := newEnv(t, time.Hour)
		if _, err := env.ca.Revoke(serial.NewGenerator(0xA110C, nil).NextN(1000)...); err != nil {
			t.Fatal(err)
		}
		if err := env.ra.SyncOnce(); err != nil {
			t.Fatal(err)
		}
		pinStatusAllocs(t, env.ra.Store())
	})
	t.Run("shared reader/sorted", func(t *testing.T) {
		env := newPersistEnv(t, nil, 40, 25)
		_, reader := newSharedPair(t, env, storage.NewFileBackend(t.TempDir(), false))
		if reader.Store().MappedBytes() == 0 {
			t.Fatal("the reader serves no checkpoint mapping")
		}
		pinStatusAllocs(t, reader.Store())
	})
}

// pinStatusAllocs checks the hit and miss budgets of store's Status for CA1.
func pinStatusAllocs(t *testing.T, store *Store) {
	t.Helper()
	status := func(sn serial.Number) {
		if _, _, err := store.Status("CA1", sn); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every shard's map and ring so lazy set-up is not billed to a miss.
	probes := serial.NewGenerator(0xC01D, nil).NextN(cacheShardCount*64 + 201)
	for _, sn := range probes[:cacheShardCount*64] {
		status(sn)
	}
	cold := probes[cacheShardCount*64:]
	next := 0
	if miss := testing.AllocsPerRun(200, func() { status(cold[next]); next++ }); miss > 6 {
		t.Errorf("status miss: %.0f allocs/op, want ≤ 6", miss)
	}
	hot := cold[0]
	status(hot)
	if hit := testing.AllocsPerRun(200, func() { status(hot) }); hit != 0 {
		t.Errorf("status hit: %.0f allocs/op, want 0", hit)
	}
}
