// Zero-copy serving benchmarks: what the offset-indexed checkpoint v2 and
// the mmap-shared replica store buy. Three claims are pinned here and
// exported to BENCH_6.json by the CI harness:
//
//  1. BenchmarkMappedProve/BenchmarkMappedStatus — proof construction and
//     full status encoding straight off mapped checkpoint bytes stay in
//     the same ballpark as heap snapshots (the mapped views do the same
//     O(log n) work over []byte arithmetic instead of pointer chasing).
//  2. BenchmarkSharedStoreRSS — every co-located reader RA beyond the
//     first costs O(1) heap: its dictionary is the writer's checkpoint
//     mapping, not a private deserialized copy.
//  3. BenchmarkRestartFirstStatus — restart-to-first-Status via the
//     checkpoint's map-don't-replay path versus a full replay of the
//     issuance log.
package ritm_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ritm/internal/cert"
	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/ra"
	"ritm/internal/serial"
	"ritm/internal/storage"
	"ritm/internal/workload"
)

// mappedEnv is an authority + caught-up replica of n revocations with
// its checkpoint captured, shared across sub-benchmarks.
type mappedEnv struct {
	signer  *cryptoutil.Signer
	replica *dictionary.Replica
	v2      []byte
	revoked []serial.Number // sample of revoked serials
	absent  []serial.Number
}

func newMappedEnv(tb testing.TB, n int) *mappedEnv {
	tb.Helper()
	now := time.Now().Unix()
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		tb.Fatal(err)
	}
	a, err := dictionary.NewAuthority(dictionary.AuthorityConfig{
		CA: "BenchCA", Signer: signer, Delta: 10 * time.Second, ChainLength: 16,
	}, now)
	if err != nil {
		tb.Fatal(err)
	}
	r := dictionary.NewReplica("BenchCA", signer.Public())
	gen := serial.NewGenerator(uint64(n)^0xBE0C, nil)
	env := &mappedEnv{signer: signer, replica: r}
	const batch = 4096
	for have := 0; have < n; have += batch {
		k := batch
		if n-have < k {
			k = n - have
		}
		serials := gen.NextN(k)
		msg, err := a.Insert(serials, now)
		if err != nil {
			tb.Fatal(err)
		}
		if err := r.Update(msg); err != nil {
			tb.Fatal(err)
		}
		if have == 0 {
			env.revoked = serials[:256]
		}
	}
	env.absent = gen.NextN(256)
	env.v2 = r.PersistentStateV2()
	return env
}

// mappedSnapshot installs the env's v2 checkpoint into a file backend and
// maps it, returning the snapshot a co-located reader serves (and keeping
// the mapping alive via the returned checkpoint).
func (e *mappedEnv) mappedSnapshot(tb testing.TB, dir string) (*dictionary.Snapshot, *storage.MappedCheckpoint) {
	tb.Helper()
	be := storage.NewFileBackend(dir, false)
	lg, err := be.Open("BenchCA")
	if err != nil {
		tb.Fatal(err)
	}
	if err := lg.Checkpoint(e.v2); err != nil {
		tb.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		tb.Fatal(err)
	}
	mc, err := be.Map("BenchCA")
	if err != nil {
		tb.Fatal(err)
	}
	r, err := dictionary.OpenMappedReplica("BenchCA", e.signer.Public(), mc.State, mc.WAL, time.Now().Unix())
	if err != nil {
		tb.Fatal(err)
	}
	return r.Snapshot(), mc
}

func benchProve(b *testing.B, src *dictionary.Snapshot, serials []serial.Number, encode bool) {
	b.Helper()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := src.Prove(serials[i%len(serials)])
		if err != nil {
			b.Fatal(err)
		}
		if encode && len(st.Encode()) == 0 {
			b.Fatal("empty status encoding")
		}
	}
}

// BenchmarkMappedProve: proof construction at the largest-CRL size, heap
// snapshot vs mapped checkpoint, revoked and absent serials.
func BenchmarkMappedProve(b *testing.B) {
	n := workload.LargestCRLEntries
	env := newMappedEnv(b, n)
	ms, mc := env.mappedSnapshot(b, b.TempDir())
	defer mc.Close()
	heap := env.replica.Snapshot()
	for _, mode := range []struct {
		name string
		src  *dictionary.Snapshot
	}{{"heap", heap}, {"mapped", ms}} {
		for _, probe := range []struct {
			name    string
			serials []serial.Number
		}{{"revoked", env.revoked}, {"absent", env.absent}} {
			b.Run(fmt.Sprintf("layout=sorted/n=%d/%s/%s", n, mode.name, probe.name), func(b *testing.B) {
				benchProve(b, mode.src, probe.serials, false)
			})
		}
	}
}

// BenchmarkMappedStatus: the full per-connection unit of work — proof
// construction plus status encoding — heap vs mapped.
func BenchmarkMappedStatus(b *testing.B) {
	n := workload.LargestCRLEntries
	env := newMappedEnv(b, n)
	ms, mc := env.mappedSnapshot(b, b.TempDir())
	defer mc.Close()
	heap := env.replica.Snapshot()
	for _, mode := range []struct {
		name string
		src  *dictionary.Snapshot
	}{{"heap", heap}, {"mapped", ms}} {
		b.Run(fmt.Sprintf("layout=sorted/n=%d/%s", n, mode.name), func(b *testing.B) {
			benchProve(b, mode.src, env.absent, true)
		})
	}
}

// BenchmarkSharedStoreRSS measures what each additional co-located reader
// RA costs in heap once the first copy of the dictionary exists: reader
// stores map the writer's checkpoint instead of deserializing their own.
// Reported: heap bytes per additional reader, the full-copy footprint a
// non-shared RA would pay, and their ratio (the ≥10× acceptance claim),
// plus the file-backed mapped bytes each reader serves from.
func BenchmarkSharedStoreRSS(b *testing.B) {
	const readers = 4
	n := workload.LargestCRLEntries
	env := newMappedEnv(b, n)
	dir := b.TempDir()
	be := storage.NewFileBackend(dir, false)
	lg, err := be.Open("BenchCA")
	if err != nil {
		b.Fatal(err)
	}
	if err := lg.Checkpoint(env.v2); err != nil {
		b.Fatal(err)
	}
	lg.Close()
	now := time.Now().Unix()
	rootCert, err := cert.SelfSigned("BenchCA", env.signer, now, now+3600, 10)
	if err != nil {
		b.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	stores := make([]*ra.Store, readers)
	for i := range stores {
		s, err := ra.NewStoreWithOptions(ra.StoreOptions{Storage: be, SharedData: true}, rootCert)
		if err != nil {
			b.Fatal(err)
		}
		stores[i] = s
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heapPerReader := float64(after.HeapAlloc-before.HeapAlloc) / readers
	fullCopy := float64(env.replica.MemoryFootprint())
	mappedPerReader := float64(stores[0].MappedBytes())

	probe := env.revoked[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := stores[i%readers].Status("BenchCA", probe); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(heapPerReader, "heap-bytes/reader")
	b.ReportMetric(mappedPerReader, "mapped-bytes/reader")
	b.ReportMetric(fullCopy, "full-copy-bytes")
	b.ReportMetric(fullCopy/heapPerReader, "rss-reduction-x")
	for _, s := range stores {
		s.Close()
	}
}

// BenchmarkRestartFirstStatus: time to the first served status from the
// replica's in-memory log (full replay: re-hash the whole commitment
// structure, as every restart did before checkpoints persisted it) versus
// from a durable log's checkpoint (map-don't-replay: the checkpoint buffer
// becomes the tree, zero re-hashing), across the benchmark sizes the
// paper's tables use plus 1M.
func BenchmarkRestartFirstStatus(b *testing.B) {
	for _, n := range []int{65536, workload.LargestCRLEntries, 1_000_000} {
		env := newMappedEnv(b, n)
		pub := env.signer.Public()
		now := time.Now().Unix()
		state := env.replica.PersistentState()
		for _, mode := range []struct {
			name    string
			restore func(lg storage.Log) (*dictionary.Replica, error)
		}{
			{"replay", func(storage.Log) (*dictionary.Replica, error) {
				return dictionary.RestoreReplica("BenchCA", pub, state, now)
			}},
			{"map-v2", func(lg storage.Log) (*dictionary.Replica, error) {
				return dictionary.RecoverReplicaLog(lg, "BenchCA", pub, now)
			}},
		} {
			b.Run(fmt.Sprintf("layout=sorted/n=%d/%s", n, mode.name), func(b *testing.B) {
				probe := env.revoked[0]
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					backend := storage.NewMemory()
					lg, err := backend.Open("BenchCA")
					if err != nil {
						b.Fatal(err)
					}
					if err := lg.Checkpoint(env.v2); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					r, err := mode.restore(lg)
					if err != nil {
						b.Fatal(err)
					}
					st, err := r.Prove(probe)
					if err != nil {
						b.Fatal(err)
					}
					if len(st.Encode()) == 0 {
						b.Fatal("empty status")
					}
					b.StopTimer()
					lg.Close()
					b.StartTimer()
				}
			})
		}
	}
}
