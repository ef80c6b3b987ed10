// Ablation benchmarks for the design choices the README describes: proof
// size and construction cost as the dictionary grows, batch size of
// dictionary inserts, edge-cache TTL, and the chain-proof extension's
// handshake cost.
package ritm_test

import (
	"fmt"
	"testing"
	"time"

	"ritm/internal/cdn"
	"ritm/internal/cert"
	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/ra"
	"ritm/internal/serial"
)

// buildDict creates a replica holding n revocations.
func buildDict(b *testing.B, n int) (*dictionary.Replica, *serial.Generator) {
	b.Helper()
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		b.Fatal(err)
	}
	now := time.Now().Unix()
	auth, err := dictionary.NewAuthority(dictionary.AuthorityConfig{
		CA:     "ablate-ca",
		Signer: signer,
		Delta:  10 * time.Second,
	}, now)
	if err != nil {
		b.Fatal(err)
	}
	gen := serial.NewGenerator(uint64(n), nil)
	if _, err := auth.Insert(gen.NextN(n), now); err != nil {
		b.Fatal(err)
	}
	replica := dictionary.NewReplica(auth.CA(), auth.PublicKey())
	log, err := auth.LogSuffix(0, auth.Count())
	if err != nil {
		b.Fatal(err)
	}
	if err := replica.Update(&dictionary.IssuanceMessage{Serials: log, Root: auth.SignedRoot()}); err != nil {
		b.Fatal(err)
	}
	return replica, gen
}

// BenchmarkAblationProofByDictionarySize measures absence-proof
// construction and reports the encoded status size as the dictionary
// grows: both must scale logarithmically (§VII-D: 500–900 bytes at the
// largest CRL; here ≈ 570 B at n = 339,557, the two bracketing leaves
// sharing one audit path).
func BenchmarkAblationProofByDictionarySize(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000, 339_557} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			replica, gen := buildDict(b, n)
			absent := make([]serial.Number, 256)
			for i := range absent {
				absent[i] = gen.Next()
			}
			status, err := replica.Prove(absent[0])
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(status.Encode())), "status-bytes")
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := replica.Prove(absent[i%len(absent)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationInsertBatchSize measures the per-revocation cost of
// dictionary inserts at different batch sizes: batching amortizes the
// rebuild, chain rotation, and signature (Fig 2: "insert and update can be
// performed in batch").
func BenchmarkAblationInsertBatchSize(b *testing.B) {
	for _, batch := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			signer, err := cryptoutil.NewSigner(nil)
			if err != nil {
				b.Fatal(err)
			}
			now := time.Now().Unix()
			auth, err := dictionary.NewAuthority(dictionary.AuthorityConfig{
				CA:     "ablate-ca",
				Signer: signer,
				Delta:  10 * time.Second,
			}, now)
			if err != nil {
				b.Fatal(err)
			}
			gen := serial.NewGenerator(uint64(batch), nil)
			if _, err := auth.Insert(gen.NextN(50_000), now); err != nil {
				b.Fatal(err)
			}
			batches := make([][]serial.Number, b.N)
			for i := range batches {
				batches[i] = gen.NextN(batch)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := auth.Insert(batches[i], now); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			perRev := float64(b.Elapsed().Nanoseconds()) / float64(b.N*batch)
			b.ReportMetric(perRev, "ns/revocation")
		})
	}
}

// BenchmarkAblationEdgeTTL measures a pull through an edge server with
// caching disabled (TTL=0, the Fig 5 worst case) versus enabled: the
// cache turns repeated pulls into hash-free memory reads and shields the
// origin.
func BenchmarkAblationEdgeTTL(b *testing.B) {
	for _, ttl := range []time.Duration{0, time.Hour} {
		b.Run(fmt.Sprintf("ttl=%v", ttl), func(b *testing.B) {
			signer, err := cryptoutil.NewSigner(nil)
			if err != nil {
				b.Fatal(err)
			}
			now := time.Now().Unix()
			auth, err := dictionary.NewAuthority(dictionary.AuthorityConfig{
				CA:     "ablate-ca",
				Signer: signer,
				Delta:  10 * time.Second,
			}, now)
			if err != nil {
				b.Fatal(err)
			}
			dp := cdn.NewDistributionPoint(nil)
			if err := dp.RegisterCA("ablate-ca", auth.PublicKey()); err != nil {
				b.Fatal(err)
			}
			gen := serial.NewGenerator(9, nil)
			msg, err := auth.Insert(gen.NextN(10_000), now)
			if err != nil {
				b.Fatal(err)
			}
			if err := dp.PublishIssuance(msg); err != nil {
				b.Fatal(err)
			}
			edge := cdn.NewEdgeServer(dp, ttl, nil)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := edge.Pull("ablate-ca", 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := edge.Stats()
			if total := st.Hits + st.Misses; total > 0 {
				b.ReportMetric(float64(st.Hits)/float64(total), "cache-hit-ratio")
			}
		})
	}
}

// BenchmarkAblationStatusCache isolates the per-∆ status cache: the same
// Zipf-free repeated-serial stream against one RA store, once through the
// uncached Prove path (O(log n) proof construction + encoding per call)
// and once through the cached Status path (a sharded map read while the
// snapshot generation is unchanged). The reported cache-hit-rate makes
// the memoization visible next to the time/op delta.
func BenchmarkAblationStatusCache(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 339_557} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			signer, err := cryptoutil.NewSigner(nil)
			if err != nil {
				b.Fatal(err)
			}
			now := time.Now().Unix()
			caID := dictionary.CAID("ablate-cache-ca")
			auth, err := dictionary.NewAuthority(dictionary.AuthorityConfig{
				CA:     caID,
				Signer: signer,
				Delta:  10 * time.Second,
			}, now)
			if err != nil {
				b.Fatal(err)
			}
			gen := serial.NewGenerator(uint64(n)^0xCACE, nil)
			if _, err := auth.Insert(gen.NextN(n), now); err != nil {
				b.Fatal(err)
			}
			root, err := cert.Issue(caID, signer, cert.Template{
				SerialNumber: serial.FromUint64(1),
				Subject:      string(caID),
				NotBefore:    now - 1,
				NotAfter:     now + 1<<30,
				PublicKey:    signer.Public(),
				IsCA:         true,
			})
			if err != nil {
				b.Fatal(err)
			}
			store, err := ra.NewStore(ra.StoreOptions{}, root)
			if err != nil {
				b.Fatal(err)
			}
			replica, err := store.Replica(caID)
			if err != nil {
				b.Fatal(err)
			}
			log, err := auth.LogSuffix(0, auth.Count())
			if err != nil {
				b.Fatal(err)
			}
			if err := replica.Update(&dictionary.IssuanceMessage{Serials: log, Root: auth.SignedRoot()}); err != nil {
				b.Fatal(err)
			}
			queries := gen.NextN(256) // absent: the deeper (two-leaf) proofs

			b.Run("prove", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st, err := store.Prove(caID, queries[i%len(queries)])
					if err != nil {
						b.Fatal(err)
					}
					if len(st.Encode()) == 0 {
						b.Fatal("empty status")
					}
				}
			})
			b.Run("cached", func(b *testing.B) {
				before := store.CacheStats()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := store.Status(caID, queries[i%len(queries)]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				after := store.CacheStats()
				hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
				b.ReportMetric(float64(hits)/float64(hits+misses), "cache-hit-rate")
				b.ReportMetric(float64(store.SnapshotSwaps()), "snapshot-swaps")
			})
		})
	}
}

// BenchmarkAblationShardedPrune measures the full §VIII expiry-shard
// cycle: filling four quarterly shards (one 100-revocation batch each)
// and pruning the two expired ones. Setup and prune are timed together —
// the interesting quantity is the whole lifecycle cost, and keeping the
// timed section macroscopic keeps the benchmark calibration bounded.
func BenchmarkAblationShardedPrune(b *testing.B) {
	const quarter = 90 * 24 * time.Hour
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		b.Fatal(err)
	}
	now := int64(1_400_000_000)
	gen := serial.NewGenerator(11, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := dictionary.NewShardedAuthority(dictionary.ShardConfig{
			Base:  dictionary.AuthorityConfig{CA: "ablate-ca", Signer: signer, Delta: 10 * time.Second, ChainLength: 16},
			Width: quarter,
		})
		if err != nil {
			b.Fatal(err)
		}
		for q := 0; q < 4; q++ {
			exp := now + int64(q)*int64(quarter/time.Second) + 1
			batch := gen.NextN(100)
			for _, sn := range batch {
				if _, err := s.Insert(sn, exp, now); err != nil {
					b.Fatal(err)
				}
			}
		}
		// Two quarters elapse: the first two shards are reclaimed.
		dropped, _ := s.PruneExpired(now + 2*int64(quarter/time.Second))
		if dropped != 2 {
			b.Fatalf("dropped %d shards", dropped)
		}
	}
}
