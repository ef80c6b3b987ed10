package ra

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ritm/internal/ca"
	"ritm/internal/cdn"
	"ritm/internal/cert"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// pullEvery replaces ra's grid wait with a plain d-long sleep, so a test
// runs the pull loop at d instead of once per period of a 10 s root.
func pullEvery(ra *RA, d time.Duration) {
	ra.wait = func(_ time.Time, stop <-chan struct{}) bool {
		select {
		case <-time.After(d):
			return true
		case <-stop:
			return false
		}
	}
}

// TestFetcherSyncsImmediately asserts the first sync does not wait for the
// first tick: the seed fetcher slept a full interval before pulling, so a
// freshly started RA served ErrDesynchronized statuses for up to ∆.
func TestFetcherSyncsImmediately(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	if _, err := e.ca.Revoke(serial.NewGenerator(3, nil).NextN(2)...); err != nil {
		t.Fatal(err)
	}
	// A wait that never ends: only the immediate first sync can catch up.
	e.ra.wait = func(_ time.Time, stop <-chan struct{}) bool { <-stop; return false }
	f := e.ra.StartFetcher(FetcherOptions{})
	defer f.Shutdown()
	waitFor(t, 2*time.Second, func() bool {
		r, err := e.ra.Store().Replica("CA1")
		return err == nil && r.Count() == 2
	}, "immediate first sync")
	if st := f.Stats(); st.Syncs < 1 {
		t.Errorf("syncs = %d, want ≥1", st.Syncs)
	}
}

// TestFetcherJitterStillSyncs runs a jittered fetcher and asserts syncing
// proceeds (jitter shifts each CA's schedule, it must not lose pulls).
func TestFetcherJitterStillSyncs(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	if _, err := e.ca.Revoke(serial.NewGenerator(4, nil).NextN(3)...); err != nil {
		t.Fatal(err)
	}
	pullEvery(e.ra, 30*time.Millisecond)
	f := e.ra.StartFetcher(FetcherOptions{Jitter: 10 * time.Millisecond})
	defer f.Shutdown()
	waitFor(t, 2*time.Second, func() bool {
		r, err := e.ra.Store().Replica("CA1")
		return err == nil && r.Count() == 3
	}, "jittered sync")
}

// TestSyncOnceSurfacesErrAhead asserts the plain sync path still reports
// the origin regression instead of recovering silently: recovery is the
// fetcher's policy, not SyncOnce semantics.
func TestSyncOnceSurfacesErrAhead(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	if _, err := e.ca.Revoke(serial.NewGenerator(5, nil).NextN(2)...); err != nil {
		t.Fatal(err)
	}
	if err := e.ra.SyncOnce(); err != nil {
		t.Fatal(err)
	}

	// "Restart" the origin: a fresh, entirely empty distribution point —
	// fewer revocations than the RA already holds.
	dp2 := cdn.NewDistributionPoint(nil)
	if err := dp2.RegisterCA("CA1", e.ca.PublicKey()); err != nil {
		t.Fatal(err)
	}
	e.ra.origin = dp2
	if err := e.ra.SyncOnce(); !errors.Is(err, cdn.ErrAhead) {
		t.Fatalf("sync against restarted origin: err = %v, want ErrAhead", err)
	}

	// Resync against the still-rootless origin must refuse to trade a
	// verifiable dictionary for an empty one (the trigger is unsigned; an
	// origin mid-restart re-publishes seconds later).
	if err := e.ra.Resync("CA1"); err == nil {
		t.Fatal("Resync adopted a rootless origin")
	}
	if r, _ := e.ra.Store().Replica("CA1"); r.Count() != 2 {
		t.Errorf("replica wiped by refused resync: count = %d, want 2", r.Count())
	}
}

// TestFetcherRecoversFromOriginRestart is the §III desynchronization story
// in the direction the seed could not handle: the origin restarts with a
// shorter (but CA-signed) history, every pull returns ErrAhead forever,
// and the fetcher must re-resolve from origin state instead of erroring
// until the heat death of the deployment.
func TestFetcherRecoversFromOriginRestart(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	gen := serial.NewGenerator(6, nil)
	msg1, err := e.ca.Revoke(gen.NextN(2)...)
	if err != nil {
		t.Fatal(err)
	}
	msg2, err := e.ca.Revoke(gen.NextN(3)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ra.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if r, _ := e.ra.Store().Replica("CA1"); r.Count() != 5 {
		t.Fatalf("pre-restart count = %d, want 5", r.Count())
	}

	// Origin restart: dp2 was re-fed only the first issuance message.
	dp2 := cdn.NewDistributionPoint(nil)
	if err := dp2.RegisterCA("CA1", e.ca.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := dp2.PublishIssuance(msg1); err != nil {
		t.Fatal(err)
	}
	e.ra.origin = dp2

	pullEvery(e.ra, 20*time.Millisecond)
	f := e.ra.StartFetcher(FetcherOptions{})
	defer f.Shutdown()

	// Recovery: the replica re-resolves to the origin's (shorter) state.
	waitFor(t, 2*time.Second, func() bool {
		r, err := e.ra.Store().Replica("CA1")
		return err == nil && r.Count() == 2
	}, "ErrAhead recovery")
	if st := f.Stats(); st.Recoveries < 1 {
		t.Errorf("recoveries = %d, want ≥1", st.Recoveries)
	}

	// The recovered replica still proves statuses (same trust anchor).
	if _, err := e.ra.Status("CA1", serial.NewGenerator(99, nil).Next()); err != nil {
		t.Errorf("status after recovery: %v", err)
	}

	// The origin catches back up; the fetcher follows without further
	// recovery gymnastics.
	if err := dp2.PublishIssuance(msg2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		r, err := e.ra.Store().Replica("CA1")
		return err == nil && r.Count() == 5
	}, "post-recovery catch-up")
}

// TestFetcherShardExpiry wires the §VIII "ever-growing dictionaries"
// story end to end: an RA replicating an expiry shard whose bucket lies
// in the past drops it on the fetcher's expiry check, while unsharded
// dictionaries are untouched.
func TestFetcherShardExpiry(t *testing.T) {
	const width = time.Hour
	now := time.Now()
	// A shard bucket that ended two hours ago: everything it covers has
	// expired.
	bucket := (now.Add(-3*width).Unix() / 3600) * 3600
	shardID := dictionary.CAID(fmt.Sprintf("ShardCA/exp-%d", bucket))

	dp := cdn.NewDistributionPoint(nil)
	newCA := func(id dictionary.CAID) *ca.CA {
		t.Helper()
		authority, err := ca.New(ca.Config{ID: id, Delta: 10 * time.Second, Publisher: dp})
		if err != nil {
			t.Fatal(err)
		}
		if err := dp.RegisterCA(id, authority.PublicKey()); err != nil {
			t.Fatal(err)
		}
		if err := authority.PublishRoot(); err != nil {
			t.Fatal(err)
		}
		return authority
	}
	shardCA := newCA(shardID)
	liveCA := newCA("LiveCA")

	agent, err := New(Config{
		Roots:  []*cert.Certificate{shardCA.RootCertificate(), liveCA.RootCertificate()},
		Origin: dp,
		Delta:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(agent.Store().CAs()); got != 2 {
		t.Fatalf("replicating %d dictionaries, want 2", got)
	}

	pullEvery(agent, 20*time.Millisecond)
	f := agent.StartFetcher(FetcherOptions{ShardExpiry: width})
	defer f.Shutdown()
	waitFor(t, 2*time.Second, func() bool {
		cas := agent.Store().CAs()
		return len(cas) == 1 && cas[0] == "LiveCA"
	}, "expired shard removal")
	if st := f.Stats(); st.ShardsExpired != 1 {
		t.Errorf("shards expired = %d, want 1", st.ShardsExpired)
	}
}

// TestFetcherStopsPullingRemovedCA: a CA removed from the store while the
// fetcher runs leaves its schedule instead of failing every interval.
func TestFetcherStopsPullingRemovedCA(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	pullEvery(e.ra, 10*time.Millisecond)
	f := e.ra.StartFetcher(FetcherOptions{})
	defer f.Shutdown()
	waitFor(t, 2*time.Second, func() bool { return f.Stats().Syncs >= 1 }, "first sync")
	e.ra.Store().Remove("CA1")
	time.Sleep(100 * time.Millisecond) // ten intervals
	if st := f.Stats(); st.Errors != 0 {
		t.Errorf("errors = %d after removal, want 0 (the removed CA is still pulled)", st.Errors)
	}
}

// hotSwapOrigin lets a test replace the upstream while a fetcher is
// live — an origin restart under a running RA.
type hotSwapOrigin struct {
	mu sync.Mutex
	o  cdn.Origin
}

func (s *hotSwapOrigin) set(o cdn.Origin) { s.mu.Lock(); s.o = o; s.mu.Unlock() }
func (s *hotSwapOrigin) get() cdn.Origin  { s.mu.Lock(); defer s.mu.Unlock(); return s.o }

func (s *hotSwapOrigin) Pull(ca dictionary.CAID, from uint64) (*cdn.PullResponse, error) {
	return s.get().Pull(ca, from)
}
func (s *hotSwapOrigin) LatestRoot(ca dictionary.CAID) (*dictionary.SignedRoot, error) {
	return s.get().LatestRoot(ca)
}
func (s *hotSwapOrigin) CAs() ([]dictionary.CAID, error) { return s.get().CAs() }

// TestFetcherRepeatedOriginRestarts hammers the recovery path the PR 2
// surface shipped thin: THREE successive origin restarts, each with a
// progressively re-fed (CA-signed) history, must each trigger exactly the
// ErrAhead → Resync arc — counted in FetcherStats — and leave the RA
// converged on whatever the current origin holds. Run under -race: the
// fetcher loop races the origin swaps by design.
func TestFetcherRepeatedOriginRestarts(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	swap := &hotSwapOrigin{o: e.ra.origin}
	e.ra.origin = swap
	gen := serial.NewGenerator(11, nil)
	// Three issuance messages: restart k is re-fed only the first k.
	msgs := make([]*dictionary.IssuanceMessage, 3)
	for i := range msgs {
		var err error
		if msgs[i], err = e.ca.Revoke(gen.NextN(2)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.ra.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if r, _ := e.ra.Store().Replica("CA1"); r.Count() != 6 {
		t.Fatalf("pre-restart count = %d, want 6", r.Count())
	}

	pullEvery(e.ra, 20*time.Millisecond)
	f := e.ra.StartFetcher(FetcherOptions{})
	defer f.Shutdown()

	for restarts := 1; restarts <= 3; restarts++ {
		fed := restarts - 1 // 0, 1, 2 messages → counts 0, 2, 4: always behind the RA
		dp := cdn.NewDistributionPoint(nil)
		if err := dp.RegisterCA("CA1", e.ca.PublicKey()); err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs[:fed] {
			if err := dp.PublishIssuance(m); err != nil {
				t.Fatal(err)
			}
		}
		swap.set(dp)

		if fed == 0 {
			// A rootless origin is refused (never trade a verifiable
			// dictionary for nothing): recoveries tick, the replica stays.
			prev := f.Stats().Recoveries
			waitFor(t, 2*time.Second, func() bool {
				return f.Stats().Recoveries > prev
			}, "refused-resync attempt")
			if r, _ := e.ra.Store().Replica("CA1"); r.Count() != 6 {
				t.Fatalf("restart %d: replica wiped by refused resync (count %d)", restarts, r.Count())
			}
			// Re-feed one message so the fetcher can actually adopt it.
			if err := dp.PublishIssuance(msgs[0]); err != nil {
				t.Fatal(err)
			}
			fed = 1
		}
		want := uint64(2 * fed)
		waitFor(t, 2*time.Second, func() bool {
			r, err := e.ra.Store().Replica("CA1")
			return err == nil && r.Count() == want
		}, "recovery to restarted origin's count")

		// Catch the origin back up for the next round: the RA follows
		// forward syncs without further recoveries.
		for _, m := range msgs[fed:] {
			if err := dp.PublishIssuance(m); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, 2*time.Second, func() bool {
			r, err := e.ra.Store().Replica("CA1")
			return err == nil && r.Count() == 6
		}, "post-recovery catch-up")
	}

	st := f.Stats()
	if st.Recoveries < 3 {
		t.Errorf("recoveries = %d over 3 restarts, want ≥ 3", st.Recoveries)
	}
	// Statuses still verify after the whole ordeal (same trust anchor
	// throughout).
	if _, err := e.ra.Status("CA1", serial.NewGenerator(123, nil).Next()); err != nil {
		t.Errorf("status after 3 restart recoveries: %v", err)
	}
}
