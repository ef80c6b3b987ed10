// Restart benchmarks: what an origin restart costs the dissemination tier
// with and without the durable state tier. The paper's availability story
// (§VII) assumes restarts are cheap; before PR 5 every RA behind a
// restarted origin re-downloaded the whole dictionary (ErrAhead → full
// Resync), and a restarted RA started cold. BenchmarkWarmStart pins the
// difference: a warm start is a checkpoint+WAL replay plus one
// suffix-sized pull; a cold start is a full-dictionary pull — the gap
// grows linearly with dictionary size while the warm cost stays
// O(missed ∆).
package ritm_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ritm"
	"ritm/internal/serial"
)

// meteredOrigin counts the origin traffic a puller causes.
type meteredOrigin struct {
	ritm.Origin
	pulls atomic.Int64
	bytes atomic.Int64
}

func (m *meteredOrigin) Pull(ca ritm.CAID, from uint64) (*ritm.PullResponse, error) {
	resp, err := m.Origin.Pull(ca, from)
	m.pulls.Add(1)
	if err == nil {
		m.bytes.Add(int64(resp.Size()))
	}
	return resp, err
}

// restartEnv is an origin with n revocations of history (in ∆-cycle
// batches) and the durable-store image of an RA that crashed missed
// batches ago (crashCkpt + crashWAL, replayed into a pristine backend per
// benchmark iteration so no run observes another's catch-up).
type restartEnv struct {
	dp        *ritm.DistributionPoint
	ca        *ritm.CA
	root      *ritm.Certificate
	n         int
	crashCkpt []byte
	crashWAL  [][]byte
}

// crashBackend materializes the crash-time durable state into a fresh
// in-memory backend.
func (e *restartEnv) crashBackend(tb testing.TB) *ritm.MemoryBackend {
	tb.Helper()
	backend := ritm.NewMemoryBackend()
	lg, err := backend.Open("BenchCA")
	if err != nil {
		tb.Fatal(err)
	}
	defer lg.Close()
	if e.crashCkpt != nil {
		if err := lg.Checkpoint(e.crashCkpt); err != nil {
			tb.Fatal(err)
		}
	}
	for _, rec := range e.crashWAL {
		if err := lg.Append(rec); err != nil {
			tb.Fatal(err)
		}
	}
	return backend
}

func newRestartEnv(tb testing.TB, n, batch, missed int) *restartEnv {
	tb.Helper()
	dp := ritm.NewDistributionPoint(nil)
	authority, err := ritm.NewCA(ritm.CAConfig{ID: "BenchCA", Delta: 10 * time.Second, Publisher: dp})
	if err != nil {
		tb.Fatal(err)
	}
	if err := dp.RegisterCA("BenchCA", authority.PublicKey()); err != nil {
		tb.Fatal(err)
	}
	if err := authority.PublishRoot(); err != nil {
		tb.Fatal(err)
	}
	gen := serial.NewGenerator(0xBE7C4, nil)
	revoke := func(batches int) {
		for i := 0; i < batches; i++ {
			if _, err := authority.Revoke(gen.NextN(batch)...); err != nil {
				tb.Fatal(err)
			}
		}
	}
	env := &restartEnv{dp: dp, ca: authority, root: authority.RootCertificate(), n: n}

	// History up to the crash point, synced and persisted by a first RA
	// (CheckpointEvery 1: the crash image is a checkpoint, the restore
	// path the steady state pays).
	revoke(n/batch - missed)
	backend := ritm.NewMemoryBackend()
	agent, err := ritm.NewRA(ritm.RAConfig{
		Roots:           []*ritm.Certificate{env.root},
		Origin:          dp,
		Delta:           10 * time.Second,
		Storage:         backend,
		CheckpointEvery: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := agent.SyncOnce(); err != nil {
		tb.Fatal(err)
	}
	if err := agent.Store().Close(); err != nil {
		tb.Fatal(err)
	}
	// Capture the crash image, then the batches the RA misses while "down".
	lg, err := backend.Open("BenchCA")
	if err != nil {
		tb.Fatal(err)
	}
	env.crashCkpt, env.crashWAL, err = lg.Load()
	if err != nil {
		tb.Fatal(err)
	}
	lg.Close()
	revoke(missed)
	return env
}

// BenchmarkWarmStart measures an RA restart: construction (checkpoint
// restore + WAL replay) plus the catch-up sync, warm (durable store,
// suffix-only pull) vs cold (no store, full-dictionary pull). Reported per
// op: origin pulls, origin bytes, and the recovered
// dictionary size.
func BenchmarkWarmStart(b *testing.B) {
	const batch, missed = 64, 8
	for _, n := range []int{8192, 65536} {
		env := newRestartEnv(b, n, batch, missed)
		for _, mode := range []string{"warm", "cold"} {
			b.Run(fmt.Sprintf("layout=sorted/n=%d/%s", n, mode), func(b *testing.B) {
				var pulls, bytes int64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					origin := &meteredOrigin{Origin: env.dp}
					cfg := ritm.RAConfig{
						Roots:  []*ritm.Certificate{env.root},
						Origin: origin,
						Delta:  10 * time.Second,
					}
					if mode == "warm" {
						cfg.Storage = env.crashBackend(b)
					}
					agent, err := ritm.NewRA(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if err := agent.SyncOnce(); err != nil {
						b.Fatal(err)
					}
					r, err := agent.Store().Replica("BenchCA")
					if err != nil {
						b.Fatal(err)
					}
					if r.Count() != uint64(env.n) {
						b.Fatalf("count = %d, want %d", r.Count(), env.n)
					}
					if mode == "warm" {
						if err := agent.Store().Close(); err != nil {
							b.Fatal(err)
						}
					}
					pulls += origin.pulls.Load()
					bytes += origin.bytes.Load()
				}
				b.ReportMetric(float64(pulls)/float64(b.N), "origin-pulls/op")
				b.ReportMetric(float64(bytes)/float64(b.N), "origin-bytes/op")
				b.ReportMetric(float64(missed*batch), "missed-revocations")
			})
		}
	}
}
