// Benchmark harness: one target per table and figure of the paper's
// evaluation (§VII), plus micro-benchmarks for the Table III operations.
// Run everything with
//
//	go test -bench=. -benchmem
//
// The experiment benches execute the quick-mode runners (full-fidelity
// tables are produced by `ritm-bench`); the Tab III micro-benches measure
// the production code paths directly against the largest-CRL dictionary.
package ritm_test

import (
	mrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ritm"
	"ritm/internal/cert"
	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/experiments"
	"ritm/internal/ra"
	"ritm/internal/serial"
	"ritm/internal/tlssim"
	"ritm/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4RevocationSeries regenerates Fig 4 (revocation series).
func BenchmarkFig4RevocationSeries(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5DownloadCDF regenerates Fig 5 (download-time CDFs).
func BenchmarkFig5DownloadCDF(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6MonthlyBills regenerates Fig 6 (monthly CA bills).
func BenchmarkFig6MonthlyBills(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7CommOverhead regenerates Fig 7 (per-∆ bandwidth).
func BenchmarkFig7CommOverhead(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkTab1MessageSequence regenerates Tab I (dissemination sequence).
func BenchmarkTab1MessageSequence(b *testing.B) { benchExperiment(b, "tab1") }

// BenchmarkTab2CostPerRA regenerates Tab II (cost vs ∆ × clients/RA).
func BenchmarkTab2CostPerRA(b *testing.B) { benchExperiment(b, "tab2") }

// BenchmarkTab4Comparison regenerates Tab IV (scheme comparison).
func BenchmarkTab4Comparison(b *testing.B) { benchExperiment(b, "tab4") }

// BenchmarkStorageOverhead regenerates the §VII-D storage table.
func BenchmarkStorageOverhead(b *testing.B) { benchExperiment(b, "storage") }

// BenchmarkThroughputDerived regenerates the §VII-D throughput table.
func BenchmarkThroughputDerived(b *testing.B) { benchExperiment(b, "throughput") }

// tab3Fixture holds the Table III measurement environment, built once.
type tab3Fixture struct {
	replica   *dictionary.Replica
	pub       []byte
	absent    []serial.Number
	status    *dictionary.Status
	statusSN  serial.Number
	chainBody []byte
	recordHdr []byte
}

var (
	tab3Once sync.Once
	tab3Fix  *tab3Fixture
	tab3Err  error
)

func getTab3Fixture(b *testing.B) *tab3Fixture {
	b.Helper()
	tab3Once.Do(func() { tab3Fix, tab3Err = buildTab3Fixture() })
	if tab3Err != nil {
		b.Fatal(tab3Err)
	}
	return tab3Fix
}

func buildTab3Fixture() (*tab3Fixture, error) {
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		return nil, err
	}
	now := time.Now().Unix()
	auth, err := dictionary.NewAuthority(dictionary.AuthorityConfig{
		CA:     "bench-ca",
		Signer: signer,
		Delta:  10 * time.Second,
	}, now)
	if err != nil {
		return nil, err
	}
	gen := serial.NewGenerator(1, nil)
	if _, err := auth.Insert(gen.NextN(workload.LargestCRLEntries), now); err != nil {
		return nil, err
	}
	replica := dictionary.NewReplica(auth.CA(), auth.PublicKey())
	log, err := auth.LogSuffix(0, auth.Count())
	if err != nil {
		return nil, err
	}
	if err := replica.Update(&dictionary.IssuanceMessage{Serials: log, Root: auth.SignedRoot()}); err != nil {
		return nil, err
	}

	absent := make([]serial.Number, 1024)
	for i := range absent {
		absent[i] = gen.Next()
	}
	status, err := replica.Prove(absent[0])
	if err != nil {
		return nil, err
	}

	// A 3-certificate chain body for the parsing bench.
	rootKey, err := cryptoutil.NewSigner(nil)
	if err != nil {
		return nil, err
	}
	rootCert, err := benchCert("bench-root", rootKey, rootKey.Public(), true, 1)
	if err != nil {
		return nil, err
	}
	interKey, err := cryptoutil.NewSigner(nil)
	if err != nil {
		return nil, err
	}
	interCert, err := benchCert("bench-root", rootKey, interKey.Public(), true, 2)
	if err != nil {
		return nil, err
	}
	leafKey, err := cryptoutil.NewSigner(nil)
	if err != nil {
		return nil, err
	}
	leafCert, err := benchCert("bench-root", interKey, leafKey.Public(), false, 3)
	if err != nil {
		return nil, err
	}
	chainBody := (&tlssim.CertificateMsg{Chain: ritm.Chain{leafCert, interCert, rootCert}}).Marshal().Body

	return &tab3Fixture{
		replica:   replica,
		pub:       auth.PublicKey(),
		absent:    absent,
		status:    status,
		statusSN:  absent[0],
		chainBody: chainBody,
		recordHdr: []byte{22, 3, 3, 0x01, 0x40},
	}, nil
}

func benchCert(issuer string, issuerKey *cryptoutil.Signer, pub []byte, isCA bool, sn uint64) (*ritm.Certificate, error) {
	now := time.Now().Unix()
	return cert.Issue(dictionary.CAID(issuer), issuerKey, cert.Template{
		SerialNumber: serial.FromUint64(sn),
		Subject:      issuer + "-subject",
		NotBefore:    now - 1,
		NotAfter:     now + 1<<20,
		PublicKey:    pub,
		IsCA:         isCA,
	})
}

// BenchmarkTab3TLSDetection measures the per-record DPI classification
// ("TLS detection" row of Tab III).
func BenchmarkTab3TLSDetection(b *testing.B) {
	f := getTab3Fixture(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := ra.DetectRecord(f.recordHdr); !ok {
			b.Fatal("detection failed")
		}
	}
}

// BenchmarkTab3CertParsing measures parsing a 3-certificate chain from a
// handshake body ("Certificates parsing" row of Tab III).
func BenchmarkTab3CertParsing(b *testing.B) {
	f := getTab3Fixture(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ra.ParseCertificates(f.chainBody); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTab3ProofConstruction measures absence-proof construction
// against the largest-CRL dictionary ("Proof construction" row).
func BenchmarkTab3ProofConstruction(b *testing.B) {
	f := getTab3Fixture(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.replica.Prove(f.absent[i%len(f.absent)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTab3ProofValidation measures client-side proof verification
// ("Proof validation" row).
func BenchmarkTab3ProofValidation(b *testing.B) {
	f := getTab3Fixture(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.status.Proof.Verify(f.statusSN, f.status.Root.Root, f.status.Root.N); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTab3SigFreshnessValidation measures root-signature plus
// freshness-chain verification ("Sig. and freshness valid." row).
func BenchmarkTab3SigFreshnessValidation(b *testing.B) {
	f := getTab3Fixture(b)
	now := time.Now().Unix()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := f.status.Root.VerifySignature(f.pub); err != nil {
			b.Fatal(err)
		}
		p := f.status.Root.Period(now)
		if err := cryptoutil.VerifyChainValue(f.status.Root.Anchor, f.status.Freshness, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDictInsert1000 measures a CA inserting 1,000-revocation batches
// into a largest-CRL-sized dictionary (§VII-D).
func BenchmarkDictInsert1000(b *testing.B) {
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		b.Fatal(err)
	}
	now := time.Now().Unix()
	auth, err := dictionary.NewAuthority(dictionary.AuthorityConfig{
		CA:     "bench-ca",
		Signer: signer,
		Delta:  10 * time.Second,
	}, now)
	if err != nil {
		b.Fatal(err)
	}
	gen := serial.NewGenerator(2, nil)
	if _, err := auth.Insert(gen.NextN(workload.LargestCRLEntries), now); err != nil {
		b.Fatal(err)
	}
	batches := make([][]serial.Number, b.N)
	for i := range batches {
		batches[i] = gen.NextN(1000)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := auth.Insert(batches[i], now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDictUpdate1000 measures an RA replaying 1,000-revocation
// issuance messages (§VII-D).
func BenchmarkDictUpdate1000(b *testing.B) {
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		b.Fatal(err)
	}
	now := time.Now().Unix()
	auth, err := dictionary.NewAuthority(dictionary.AuthorityConfig{
		CA:     "bench-ca",
		Signer: signer,
		Delta:  10 * time.Second,
	}, now)
	if err != nil {
		b.Fatal(err)
	}
	gen := serial.NewGenerator(3, nil)
	if _, err := auth.Insert(gen.NextN(workload.LargestCRLEntries), now); err != nil {
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
	msgs := make([]*dictionary.IssuanceMessage, b.N)
	for i := range msgs {
		msg, err := auth.Insert(gen.NextN(1000), now)
		if err != nil {
			b.Fatal(err)
		}
		msgs[i] = msg
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := replica.Update(msgs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// hotpathEnv is the fixture for the parallel hot-path benchmarks: an RA
// store replicating a largest-CRL-sized dictionary, the authority feeding
// it, and a Zipf-ranked query pool mixing revoked and absent serials (the
// internal/workload popularity model: a few certificates carry most of
// the traffic).
type hotpathEnv struct {
	store   *ra.Store
	auth    *dictionary.Authority
	replica *dictionary.Replica
	gen     *serial.Generator // the dictionary's serial space; reused for sync batches
	queries []serial.Number
	caID    dictionary.CAID
	syncMu  sync.Mutex // serializes concurrent-sync writers across benchmarks
}

var (
	// The fixture is built once and shared across benchmarks; the sync
	// variant keeps inserting into its dictionary, so it gets a fixture of
	// its own: the read-only benchmarks (prove, hot, cold) must measure an
	// identical corpus on every run, including -count reruns.
	hotpathMu      sync.Mutex
	hotpathFix     *hotpathEnv
	hotpathSyncFix *hotpathEnv
)

func getHotpathEnv(b *testing.B) *hotpathEnv { return cachedHotpathEnv(b, &hotpathFix) }

func getHotpathSyncEnv(b *testing.B) *hotpathEnv { return cachedHotpathEnv(b, &hotpathSyncFix) }

func cachedHotpathEnv(b *testing.B, cache **hotpathEnv) *hotpathEnv {
	b.Helper()
	hotpathMu.Lock()
	defer hotpathMu.Unlock()
	if *cache == nil {
		env, err := buildHotpathEnv()
		if err != nil {
			b.Fatal(err)
		}
		*cache = env
	}
	return *cache
}

func buildHotpathEnv() (*hotpathEnv, error) {
	const caID = dictionary.CAID("hotpath-ca")
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		return nil, err
	}
	now := time.Now().Unix()
	auth, err := dictionary.NewAuthority(dictionary.AuthorityConfig{
		CA:     caID,
		Signer: signer,
		Delta:  10 * time.Second,
	}, now)
	if err != nil {
		return nil, err
	}
	gen := serial.NewGenerator(0x407, nil)
	revoked := gen.NextN(workload.LargestCRLEntries)
	if _, err := auth.Insert(revoked, now); err != nil {
		return nil, err
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
		return nil, err
	}
	store, err := ra.NewStore(root)
	if err != nil {
		return nil, err
	}
	replica, err := store.Replica(caID)
	if err != nil {
		return nil, err
	}
	log, err := auth.LogSuffix(0, auth.Count())
	if err != nil {
		return nil, err
	}
	if err := replica.Update(&dictionary.IssuanceMessage{Serials: log, Root: auth.SignedRoot()}); err != nil {
		return nil, err
	}

	// Query pool: half revoked (presence proofs), half absent (absence
	// proofs), shuffled so Zipf rank does not correlate with kind.
	const poolSize = 8192
	absentGen := serial.NewGenerator(0xA85E27, nil)
	queries := make([]serial.Number, 0, poolSize)
	for i := 0; i < poolSize/2; i++ {
		queries = append(queries, revoked[(i*977)%len(revoked)])
		queries = append(queries, absentGen.Next())
	}
	rng := mrand.New(mrand.NewSource(42))
	rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })

	return &hotpathEnv{
		store:   store,
		auth:    auth,
		replica: replica,
		gen:     gen,
		queries: queries,
		caID:    caID,
	}, nil
}

// zipfQueries returns a per-goroutine Zipf rank source over the pool.
func (env *hotpathEnv) zipfQueries(seed int64) func() serial.Number {
	r := mrand.New(mrand.NewSource(seed))
	z := mrand.NewZipf(r, 1.2, 1, uint64(len(env.queries)-1))
	return func() serial.Number { return env.queries[z.Uint64()] }
}

// reportHotpathMetrics attaches the cache-effectiveness metrics to a
// parallel benchmark run: hit rate over the run and the number of
// snapshot swaps absorbed, so BENCH_*.json entries can track the
// hot-path trajectory across PRs.
func reportHotpathMetrics(b *testing.B, store *ra.Store, before ra.CacheStats, swapsBefore uint64) {
	b.Helper()
	after := store.CacheStats()
	d := ra.CacheStats{
		Hits:   after.Hits - before.Hits,
		Misses: after.Misses - before.Misses,
	}
	b.ReportMetric(d.HitRate(), "cache-hit-rate")
	b.ReportMetric(float64(store.SnapshotSwaps()-swapsBefore), "snapshot-swaps")
}

// BenchmarkProveParallel is the cold path: every operation constructs and
// encodes a fresh proof from the current snapshot (the seed recomputed
// this under a global RWMutex on every proxied connection; now it is
// lock-free but still O(log n) hashing + encoding). Compare with
// BenchmarkStatusParallel/hot for the per-∆ cache win.
func BenchmarkProveParallel(b *testing.B) {
	b.Run("sorted", func(b *testing.B) {
		env := getHotpathEnv(b)
		var seeds atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			next := env.zipfQueries(seeds.Add(1))
			for pb.Next() {
				st, err := env.store.Prove(env.caID, next())
				if err != nil {
					b.Error(err) // Fatal must not be called off the benchmark goroutine
					return
				}
				if enc := st.Encode(); len(enc) == 0 {
					b.Error("empty status")
					return
				}
			}
		})
	})
}

// BenchmarkStatusParallel measures the data-path Status call under
// parallel load:
//
//   - hot: Zipf-repeated serials against a quiescent dictionary — the
//     per-∆ cache serves almost everything as one sharded map read;
//   - cold: near-unique serials — every lookup misses and fills;
//   - sync: the hot stream while a writer applies an issuance batch every
//     millisecond, forcing snapshot swaps and cache re-fills (the
//     reads-during-sync contention the seed serialized on Store.mu).
func BenchmarkStatusParallel(b *testing.B) {
	b.Run("sorted", func(b *testing.B) {
		b.Run("hot", func(b *testing.B) {
			env := getHotpathEnv(b)
			var seeds atomic.Int64
			before, swaps := env.store.CacheStats(), env.store.SnapshotSwaps()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				next := env.zipfQueries(seeds.Add(1))
				for pb.Next() {
					if _, _, err := env.store.Status(env.caID, next()); err != nil {
						b.Error(err)
						return
					}
				}
			})
			reportHotpathMetrics(b, env.store, before, swaps)
		})

		b.Run("cold", func(b *testing.B) {
			env := getHotpathEnv(b)
			// A dedicated absent stream, cycled by atomic index: the pool
			// is large enough that re-touching a key usually happens after
			// its generation-mates were already evicted entry by entry.
			coldGen := serial.NewGenerator(0xC01D, nil)
			pool := coldGen.NextN(1 << 18)
			var idx atomic.Int64
			before, swaps := env.store.CacheStats(), env.store.SnapshotSwaps()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					sn := pool[int(idx.Add(1))%len(pool)]
					if _, _, err := env.store.Status(env.caID, sn); err != nil {
						b.Error(err)
						return
					}
				}
			})
			reportHotpathMetrics(b, env.store, before, swaps)
		})

		b.Run("sync", func(b *testing.B) {
			env := getHotpathSyncEnv(b)
			env.syncMu.Lock()
			defer env.syncMu.Unlock()
			stop := make(chan struct{})
			var writerWG sync.WaitGroup
			writerWG.Add(1)
			go func() {
				defer writerWG.Done()
				ticker := time.NewTicker(time.Millisecond)
				defer ticker.Stop()
				for {
					select {
					case <-stop:
						return
					case <-ticker.C:
						msg, err := env.auth.Insert(env.gen.NextN(100), time.Now().Unix())
						if err != nil {
							b.Error(err)
							return
						}
						if err := env.replica.Update(msg); err != nil {
							b.Error(err)
							return
						}
					}
				}
			}()
			var seeds atomic.Int64
			before, swaps := env.store.CacheStats(), env.store.SnapshotSwaps()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				next := env.zipfQueries(seeds.Add(1))
				for pb.Next() {
					if _, _, err := env.store.Status(env.caID, next()); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			close(stop)
			writerWG.Wait()
			reportHotpathMetrics(b, env.store, before, swaps)
		})
	})
}

// BenchmarkHandshakeOverhead measures a full RITM-protected handshake
// through a live RA proxy on loopback, the §VII-D latency experiment.
func BenchmarkHandshakeOverhead(b *testing.B) {
	env := newBenchDeployment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := ritm.Dial("tcp", env.proxyAddr, "bench.example", &ritm.ClientConfig{
			Pool:          env.pool,
			Delta:         10 * time.Second,
			RequireStatus: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
	b.StopTimer()
	b.ReportMetric(env.agent.CacheStats().HitRate(), "cache-hit-rate")
	b.ReportMetric(float64(env.agent.Store().SnapshotSwaps()), "snapshot-swaps")
}

// BenchmarkHandshakeDirect is the no-RA baseline for
// BenchmarkHandshakeOverhead.
func BenchmarkHandshakeDirect(b *testing.B) {
	env := newBenchDeployment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := tlssim.Dial("tcp", env.serverAddr, &ritm.TLSConfig{
			Pool:       env.pool,
			ServerName: "bench.example",
		})
		if err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

type benchDeployment struct {
	pool       *ritm.Pool
	agent      *ritm.RA
	serverAddr string
	proxyAddr  string
}

func newBenchDeployment(b *testing.B) *benchDeployment {
	b.Helper()
	dp := ritm.NewDistributionPoint(nil)
	authority, err := ritm.NewCA(ritm.CAConfig{ID: "BenchCA", Delta: 10 * time.Second, Publisher: dp})
	if err != nil {
		b.Fatal(err)
	}
	if err := dp.RegisterCA("BenchCA", authority.PublicKey()); err != nil {
		b.Fatal(err)
	}
	if err := authority.PublishRoot(); err != nil {
		b.Fatal(err)
	}
	agent, err := ritm.NewRA(ritm.RAConfig{
		Roots:  []*ritm.Certificate{authority.RootCertificate()},
		Origin: ritm.NewEdgeServer(dp, 0, nil),
		Delta:  10 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := agent.SyncOnce(); err != nil {
		b.Fatal(err)
	}
	key, err := ritm.NewSigner()
	if err != nil {
		b.Fatal(err)
	}
	leaf, err := authority.IssueServerCertificate("bench.example", key.Public())
	if err != nil {
		b.Fatal(err)
	}
	pool, err := ritm.NewPool(authority.RootCertificate())
	if err != nil {
		b.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	serverCfg := &ritm.TLSConfig{Chain: ritm.Chain{leaf}, Key: key}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn := tlssim.Server(raw, serverCfg)
				defer conn.Close()
				buf := make([]byte, 256)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	proxy, err := agent.NewProxy("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		proxy.Close()
		ln.Close()
		wg.Wait()
	})
	return &benchDeployment{
		pool:       pool,
		agent:      agent,
		serverAddr: ln.Addr().String(),
		proxyAddr:  proxy.Addr().String(),
	}
}
