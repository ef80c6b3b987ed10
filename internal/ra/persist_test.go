package ra

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ritm/internal/ca"
	"ritm/internal/cdn"
	"ritm/internal/cert"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// Warm-start and durable-origin scenario tests: the restart stories PR 2/3
// could only resolve through ErrAhead → full Resync (re-downloading the
// whole dictionary) now resolve as plain suffix catch-up when the durable
// state tier is configured.

// countingOrigin measures the origin traffic a puller causes.
type countingOrigin struct {
	cdn.Origin
	pulls atomic.Int64
	bytes atomic.Int64
}

func (c *countingOrigin) Pull(caID dictionary.CAID, from uint64) (*cdn.PullResponse, error) {
	resp, err := c.Origin.Pull(caID, from)
	c.pulls.Add(1)
	if err == nil {
		c.bytes.Add(int64(resp.Size()))
	}
	return resp, err
}

// persistEnv is a CA → DP deployment with revocation history, for restart
// tests. batches controls how many ∆ cycles of revocations exist.
type persistEnv struct {
	ca  *ca.CA
	dp  *cdn.DistributionPoint
	gen *serial.Generator
}

func newPersistEnv(t *testing.T, dpBackend storage.Backend, batches, batchSize int) *persistEnv {
	t.Helper()
	dp := cdn.NewDistributionPointWithStorage(nil, dpBackend, 0)
	authority, err := ca.New(ca.Config{ID: "CA1", Delta: 10 * time.Second, Publisher: dp})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.RegisterCA("CA1", authority.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := authority.PublishRoot(); err != nil {
		t.Fatal(err)
	}
	e := &persistEnv{ca: authority, dp: dp, gen: serial.NewGenerator(0xD15C, nil)}
	e.revoke(t, batches, batchSize)
	return e
}

func (e *persistEnv) revoke(t *testing.T, batches, batchSize int) {
	t.Helper()
	for i := 0; i < batches; i++ {
		if _, err := e.ca.Revoke(e.gen.NextN(batchSize)...); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRAWarmStartSuffixCatchup is the converted restart scenario: an RA
// that restarts with a durable store resumes at its persisted count and
// fetches only the suffix it missed — measurably less origin traffic than
// the cold start's full-dictionary pull.
func TestRAWarmStartSuffixCatchup(t *testing.T) {
	t.Run("sorted", func(t *testing.T) {
		env := newPersistEnv(t, nil, 40, 25) // 1000 revocations pre-crash
		backend := storage.NewMemory()

		agent1, err := New(Config{
			Roots:   []*cert.Certificate{env.ca.RootCertificate()},
			Origin:  env.dp,
			Delta:   10 * time.Second,
			Storage: backend,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := agent1.SyncOnce(); err != nil {
			t.Fatal(err)
		}
		r1, err := agent1.Store().Replica("CA1")
		if err != nil {
			t.Fatal(err)
		}
		if r1.Count() != 1000 {
			t.Fatalf("pre-crash count = %d, want 1000", r1.Count())
		}
		// "Crash" the RA; the CA keeps revoking while it is down.
		if err := agent1.Store().Close(); err != nil {
			t.Fatal(err)
		}
		env.revoke(t, 4, 25)

		// Warm restart: the replica resumes at the persisted count
		// before any network traffic.
		warmOrigin := &countingOrigin{Origin: env.dp}
		agent2, err := New(Config{
			Roots:   []*cert.Certificate{env.ca.RootCertificate()},
			Origin:  warmOrigin,
			Delta:   10 * time.Second,
			Storage: backend,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer agent2.Store().Close()
		r2, err := agent2.Store().Replica("CA1")
		if err != nil {
			t.Fatal(err)
		}
		if r2.Count() != 1000 {
			t.Fatalf("warm-started count = %d before sync, want 1000", r2.Count())
		}
		if err := agent2.SyncOnce(); err != nil {
			t.Fatal(err)
		}
		if r2, _ = agent2.Store().Replica("CA1"); r2.Count() != 1100 {
			t.Fatalf("post-sync count = %d, want 1100", r2.Count())
		}

		// Cold start for comparison: same origin state, no storage.
		coldOrigin := &countingOrigin{Origin: env.dp}
		agent3, err := New(Config{
			Roots:  []*cert.Certificate{env.ca.RootCertificate()},
			Origin: coldOrigin,
			Delta:  10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := agent3.SyncOnce(); err != nil {
			t.Fatal(err)
		}

		warm, cold := warmOrigin.bytes.Load(), coldOrigin.bytes.Load()
		t.Logf("catch-up bytes: warm %d, cold %d", warm, cold)
		if warm*4 >= cold {
			t.Errorf("warm start pulled %d bytes vs cold %d: suffix catch-up should be far cheaper", warm, cold)
		}

		// Warm-started statuses verify against the trust anchor.
		st, err := agent2.Status("CA1", env.gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Check(st.Subject, env.ca.PublicKey(), time.Now().Unix()); err != nil {
			t.Errorf("warm-started status does not verify: %v", err)
		}
	})
}

// TestDurableOriginRestartNoResync converts the origin-restart scenario:
// with the distribution point persisting its state, a crash and reopen
// loses nothing, so a running RA sees no ErrAhead, triggers no recovery,
// and keeps syncing plain suffixes. (Contrast TestFetcherRecoversFromOriginRestart,
// which covers the storage-less origin that MUST be recovered from.)
func TestDurableOriginRestartNoResync(t *testing.T) {
	t.Run("sorted", func(t *testing.T) {
		backend := storage.NewMemory()
		env := newPersistEnv(t, backend, 10, 30)

		swap := &hotSwapOrigin{o: env.dp}
		agent, err := New(Config{
			Roots:  []*cert.Certificate{env.ca.RootCertificate()},
			Origin: swap,
			Delta:  10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.SyncOnce(); err != nil {
			t.Fatal(err)
		}
		r, _ := agent.Store().Replica("CA1")
		if r.Count() != 300 {
			t.Fatalf("pre-restart count = %d, want 300", r.Count())
		}

		// Origin crash: the process dies, the durable state survives. A
		// reopened distribution point recovers every dictionary from the
		// backend — nothing is "re-fed" by the CA.
		if err := env.dp.Close(); err != nil {
			t.Fatal(err)
		}
		dp2 := cdn.NewDistributionPointWithStorage(nil, backend, 0)
		if err := dp2.RegisterCA("CA1", env.ca.PublicKey()); err != nil {
			t.Fatalf("reopen origin: %v", err)
		}
		swap.set(dp2)

		f := agent.StartFetcherWith(FetcherOptions{Interval: 20 * time.Millisecond})
		defer f.Shutdown()

		// The RA keeps syncing across the restart: new revocations flow
		// (published to the recovered origin), and at no point does the
		// fetcher need the ErrAhead → Resync arc.
		env.ca.SetPublisher(dp2)
		if _, err := env.ca.Revoke(env.gen.NextN(5)...); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 2*time.Second, func() bool {
			r, err := agent.Store().Replica("CA1")
			return err == nil && r.Count() == 305
		}, "suffix sync across durable origin restart")
		if st := f.Stats(); st.Recoveries != 0 {
			t.Errorf("recoveries = %d across a durable origin restart, want 0", st.Recoveries)
		}
	})
}

// TestStoreRemoveDestroysDurableState: dropping an expired shard reclaims
// its disk too — a later warm start must not resurrect it.
func TestStoreRemoveDestroysDurableState(t *testing.T) {
	backend := storage.NewMemory()
	env := newPersistEnv(t, nil, 2, 5)
	agent, err := New(Config{
		Roots:   []*cert.Certificate{env.ca.RootCertificate()},
		Origin:  env.dp,
		Delta:   10 * time.Second,
		Storage: backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	agent.Store().Remove("CA1")

	lg, err := backend.Open("CA1")
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	ckpt, wal, err := lg.Load()
	if err != nil {
		t.Fatal(err)
	}
	if ckpt != nil || len(wal) != 0 {
		t.Errorf("removed CA left durable state behind: ckpt=%v wal=%d", ckpt != nil, len(wal))
	}
}

// boundedOrigin serves every pull body in the form older origins wrote for
// a puller several batches behind: the trailing bound list (a count, then
// ascending deltas) lists the batch ends of the suffix, where origins now
// always end it in a zero count. The body goes through the decoder, as it
// would off the wire.
type boundedOrigin struct {
	cdn.Origin
	batch uint64 // revocations per batch
}

func (o boundedOrigin) Pull(caID dictionary.CAID, from uint64) (*cdn.PullResponse, error) {
	pr, err := o.Origin.Pull(caID, from)
	if err != nil || pr.Issuance == nil {
		return pr, err
	}
	var bounds []uint64
	for b := from/o.batch*o.batch + o.batch; b < pr.Issuance.Root.N; b += o.batch {
		bounds = append(bounds, b)
	}
	enc := pr.Encoded()
	body := binary.AppendUvarint(append([]byte(nil), enc[:len(enc)-1]...), uint64(len(bounds)))
	prev := uint64(0)
	for _, b := range bounds {
		body = binary.AppendUvarint(body, b-prev)
		prev = b
	}
	got, err := cdn.DecodePullResponse(body)
	if err == nil && got.Bounds != nil {
		err = fmt.Errorf("decoded %d bounds, want them dropped", len(got.Bounds))
	}
	return got, err
}

// TestBoundedPullBodyApplies: pull bodies carrying batch bounds, as older
// origins serve them, still decode, and what they carry reaches the signed
// root on every path it takes — the writer's live replica, the writer
// restarted over its checkpoint and WAL (RecoverReplicaLog), and a shared
// reader mapping them (OpenMappedReplica). A bound count over the sanity
// cap is still refused.
func TestBoundedPullBodyApplies(t *testing.T) {
	env := newPersistEnv(t, nil, 12, 25)
	roots := []*cert.Certificate{env.ca.RootCertificate()}
	backend := storage.NewMemory()
	cfg := Config{Roots: roots, Origin: boundedOrigin{env.dp, 25}, Storage: backend, CheckpointEvery: 2}
	writer, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := func() *dictionary.SignedRoot { return env.ca.Authority().SignedRoot() }
	// Three syncs, each across several batches: the first two records are
	// checkpointed, the third stays in the WAL.
	for i := 0; i < 3; i++ {
		if i > 0 {
			env.revoke(t, 3, 25)
		}
		if err := writer.SyncOnce(); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
		if r, err := writer.Store().Replica("CA1"); err != nil || !r.Root().Equal(want()) {
			t.Fatalf("sync %d: the live writer is not at the signed root (%v)", i, err)
		}
	}
	reader, err := New(Config{Roots: roots, Storage: backend, SharedData: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Store().Close()
	d, ok := reader.Store().sharedFor("CA1")
	if !ok {
		t.Fatal("reader has no shared dictionary for CA1")
	}
	if snap := d.state.Load().snap; !snap.Root().Equal(want()) || snap.Count() != 450 {
		t.Fatalf("shared reader at n=%d, not at the signed root", snap.Count())
	}
	writer.Store().Close()
	restarted, err := New(cfg)
	if err != nil {
		t.Fatalf("restart over bounded-body records: %v", err)
	}
	defer restarted.Store().Close()
	if r, err := restarted.Store().Replica("CA1"); err != nil || !r.Root().Equal(want()) || r.Count() != 450 {
		t.Fatalf("restarted writer is not at the signed root (%v)", err)
	}

	pr, err := env.dp.Pull("CA1", 0)
	if err != nil {
		t.Fatal(err)
	}
	over := binary.AppendUvarint(append([]byte(nil), pr.Encoded()[:len(pr.Encoded())-1]...), 1<<24+1)
	if _, err := cdn.DecodePullResponse(over); err == nil {
		t.Fatal("a bound count over the cap decoded")
	}
}
