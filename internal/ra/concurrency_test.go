package ra

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ritm/internal/dictionary"
	"ritm/internal/serial"
)

// TestProveDuringSync hammers the store's status path from many goroutines
// while the fetcher applies issuance batches, under -race. Every returned
// status must verify against some recently-valid root: its proof checks
// out, its root signature checks out, its freshness is within the client's
// 2∆ policy, and its revocation count is at least the count the reader
// knew to be applied before it asked (no torn or stale-beyond-current
// reads). Revocations, once synced, must never disappear from served
// statuses.
func TestProveDuringSync(t *testing.T) {
	env := newEnv(t, time.Hour) // one period spans the whole test
	pub := env.ca.PublicKey()
	now := time.Now().Unix()

	const (
		numBatches = 40
		batchSize  = 25
		numReaders = 8
	)
	gen := serial.NewGenerator(0xC0FFEE, nil)
	batches := make([][]serial.Number, numBatches)
	for i := range batches {
		batches[i] = gen.NextN(batchSize)
	}
	absent := gen.NextN(128)

	var applied atomic.Int64 // revocations the RA has definitely synced
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i, batch := range batches {
			if _, err := env.ca.Revoke(batch...); err != nil {
				t.Errorf("revoke batch %d: %v", i, err)
				return
			}
			if err := env.ra.SyncOnce(); err != nil {
				t.Errorf("sync batch %d: %v", i, err)
				return
			}
			applied.Store(int64((i + 1) * batchSize))
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < numReaders; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 99))
			for done := false; !done; {
				select {
				case <-writerDone:
					done = true // one final round, then exit
				default:
				}
				before := applied.Load()
				var sn serial.Number
				wantRevoked := false
				if syncedBatches := int(before) / batchSize; syncedBatches > 0 && rng.IntN(2) == 0 {
					// A serial from a batch that was fully synced before
					// this iteration began: it must prove revoked.
					b := rng.IntN(syncedBatches)
					sn = batches[b][rng.IntN(batchSize)]
					wantRevoked = true
				} else {
					sn = absent[rng.IntN(len(absent))]
				}

				var st *dictionary.Status
				var err error
				if rng.IntN(4) == 0 {
					st, err = env.ra.Store().Prove("CA1", sn) // uncached path
				} else {
					st, _, err = env.ra.Store().Status("CA1", sn)
				}
				if err != nil {
					t.Errorf("status for %v: %v", sn, err)
					return
				}
				res, err := st.Check(sn, pub, now)
				if err != nil {
					t.Errorf("returned status does not verify: %v", err)
					return
				}
				if wantRevoked && res != dictionary.CheckRevoked {
					t.Errorf("synced revocation of %v not reflected (root n=%d, knew n>=%d)", sn, st.Root.N, before)
					return
				}
				if !wantRevoked && res != dictionary.CheckValid {
					t.Errorf("never-revoked %v reported revoked", sn)
					return
				}
				if st.Root.N < uint64(before) {
					t.Errorf("stale root: n=%d but %d revocations were already applied", st.Root.N, before)
					return
				}
			}
		}(uint64(r + 1))
	}
	wg.Wait()
	<-writerDone

	final, _, err := env.ra.Store().Status("CA1", batches[numBatches-1][0])
	if err != nil {
		t.Fatal(err)
	}
	if final.Root.N != numBatches*batchSize {
		t.Fatalf("final root covers %d revocations, want %d", final.Root.N, numBatches*batchSize)
	}
}

// TestStatusCacheInvalidationOnSwap pins the cache-correctness contract: a
// hit is only served at the generation of the replica's current snapshot,
// so after a sync the very next Status reflects the new root — no status
// is ever served whose root is not the current verified one (the
// "current or immediately-previous" bound comes only from benign races
// between load and serve, not from the cache).
func TestStatusCacheInvalidationOnSwap(t *testing.T) {
	env := newEnv(t, time.Hour)
	store := env.ra.Store()
	gen := serial.NewGenerator(0xFACADE, nil)
	victim := gen.Next()

	st0, enc0, err := store.Status("CA1", victim)
	if err != nil {
		t.Fatal(err)
	}
	if st0.Proof.Kind == dictionary.ProofPresence {
		t.Fatal("victim should start absent")
	}
	stats := store.CacheStats()
	if stats.Hits != 0 || stats.Misses != 1 {
		t.Fatalf("cold lookup: hits=%d misses=%d, want 0/1", stats.Hits, stats.Misses)
	}

	// Repeat: identical bytes from the cache, no recomputation.
	st1, enc1, err := store.Status("CA1", victim)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st0 || &enc1[0] != &enc0[0] {
		t.Error("hot lookup did not serve the memoized status")
	}
	if stats = store.CacheStats(); stats.Hits != 1 {
		t.Fatalf("hot lookup: hits=%d, want 1", stats.Hits)
	}

	// Revoke the victim and sync: the snapshot generation moves, the cached
	// entry must be ignored, and the new status must prove presence.
	if _, err := env.ca.Revoke(victim); err != nil {
		t.Fatal(err)
	}
	if err := env.ra.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	st2, _, err := store.Status("CA1", victim)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Proof.Kind != dictionary.ProofPresence {
		t.Fatalf("post-swap status kind = %v, want presence", st2.Proof.Kind)
	}
	if st2.Root.N != st0.Root.N+1 {
		t.Fatalf("post-swap root n = %d, want %d", st2.Root.N, st0.Root.N+1)
	}
	if stats = store.CacheStats(); stats.Misses != 2 {
		t.Fatalf("post-swap lookup should miss: misses=%d, want 2", stats.Misses)
	}

	// And the re-cached presence status is served on the next hit.
	st3, _, err := store.Status("CA1", victim)
	if err != nil {
		t.Fatal(err)
	}
	if st3 != st2 {
		t.Error("post-swap status was not re-cached")
	}
}

// TestRemoveExpiredShards covers the §VIII storage-reclamation check the
// fetcher runs before each pull: only expiry shards whose bucket has fully
// passed expire; unsharded dictionaries and malformed suffixes never do.
func TestRemoveExpiredShards(t *testing.T) {
	const width = 1000 * time.Second
	for _, tc := range []struct {
		ca   dictionary.CAID
		want bool
	}{
		{"CA1/exp-1000", true},    // bucket [1000, 2000): gone at 2500
		{"CA1/exp-2000", false},   // bucket [2000, 3000): live at 2500
		{"LegacyCA", false},       // never pruned
		{"CA9/exp-oops-1", false}, // malformed suffix: not a shard
	} {
		if got := expiredShard(tc.ca, 2500, width); got != tc.want {
			t.Errorf("expiredShard(%s) = %v, want %v", tc.ca, got, tc.want)
		}
		// Zero width disables pruning entirely.
		if expiredShard(tc.ca, 1<<40, 0) {
			t.Errorf("width 0 expires %s", tc.ca)
		}
	}
}
