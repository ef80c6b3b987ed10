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
	"net"
	"sync"
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
		// Serials and root only, as the RA receives them: the authority's
		// own message offers its rebuilt tree, which a replica would adopt.
		msgs[i] = &dictionary.IssuanceMessage{Serials: msg.Serials, Root: msg.Root}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := replica.Update(msgs[i]); err != nil {
			b.Fatal(err)
		}
	}
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
	cs := env.agent.CacheStats()
	b.ReportMetric(float64(cs.Hits)/float64(cs.Hits+cs.Misses), "cache-hit-rate")
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
