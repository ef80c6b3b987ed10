package ra

import (
	"fmt"
	"net/http/httptest"
	"sync"
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

// Multi-origin suite: per-CA fault isolation across the fetcher's
// schedules and the leader-crash → follower-promotion scenario the HA
// design exists for.

// newPublishedCA registers a CA on dp and publishes its root + first
// freshness statement so RAs can sync before the first revocation.
func newPublishedCA(t *testing.T, dp *cdn.DistributionPoint, id dictionary.CAID) *ca.CA {
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
	if err := authority.PublishRefresh(); err != nil {
		t.Fatal(err)
	}
	return authority
}

// gateOrigin blocks pulls for one CA on a channel; every other CA passes
// straight through. It simulates one hung origin shard in a fleet.
type gateOrigin struct {
	inner   cdn.Origin
	slow    dictionary.CAID
	gate    chan struct{} // closed to release the slow shard
	entered chan struct{} // closed once the slow pull is in flight
	once    sync.Once
}

func (g *gateOrigin) Pull(ca dictionary.CAID, from uint64) (*cdn.PullResponse, error) {
	if ca == g.slow {
		g.once.Do(func() { close(g.entered) })
		<-g.gate
	}
	return g.inner.Pull(ca, from)
}
func (g *gateOrigin) LatestRoot(ca dictionary.CAID) (*dictionary.SignedRoot, error) {
	return g.inner.LatestRoot(ca)
}
func (g *gateOrigin) CAs() ([]dictionary.CAID, error) { return g.inner.CAs() }

// hungCAEnv starts a fetcher over FastCA and SlowCA behind a gateOrigin
// that holds SlowCA's pull, after FastCA revoked three serials. The
// returned release unblocks SlowCA; it runs (once) before Shutdown at
// cleanup, which otherwise waits for the hung pull.
func hungCAEnv(t *testing.T, seed uint64) (agent *RA, fastCA *ca.CA, release func()) {
	t.Helper()
	dp := cdn.NewDistributionPoint(nil)
	fastCA = newPublishedCA(t, dp, "FastCA")
	slowCA := newPublishedCA(t, dp, "SlowCA")
	gate := &gateOrigin{
		inner:   dp,
		slow:    "SlowCA",
		gate:    make(chan struct{}),
		entered: make(chan struct{}),
	}
	agent, err := New(Config{
		Roots:  []*cert.Certificate{fastCA.RootCertificate(), slowCA.RootCertificate()},
		Origin: gate,
		Delta:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fastCA.Revoke(serial.NewGenerator(seed, nil).NextN(3)...); err != nil {
		t.Fatal(err)
	}

	pullEvery(agent, 20*time.Millisecond)
	f := agent.StartFetcher(FetcherOptions{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate.gate) }) }
	t.Cleanup(f.Shutdown)
	t.Cleanup(release)

	// The slow shard is hung in flight...
	select {
	case <-gate.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("slow CA pull never started")
	}
	// ...and the fast CA still syncs.
	waitFor(t, 2*time.Second, func() bool {
		r, err := agent.Store().Replica("FastCA")
		return err == nil && r.Count() == 3
	}, "fast CA sync while slow shard is hung")
	return agent, fastCA, release
}

// TestFetcherShardIsolationHungOrigin pins the per-CA isolation contract:
// one CA's origin shard hanging mid-pull must not delay the other CAs'
// first sync, and the hung CA syncs once its origin answers. The seed
// fetcher synced CAs sequentially, so one hung shard froze the whole RA.
func TestFetcherShardIsolationHungOrigin(t *testing.T) {
	agent, _, release := hungCAEnv(t, 21)
	if _, err := agent.Store().LatestRoot("SlowCA"); err == nil {
		t.Error("SlowCA has a root while its only pull is hung")
	}
	release()
	waitFor(t, 2*time.Second, func() bool {
		_, err := agent.Store().LatestRoot("SlowCA")
		return err == nil
	}, "SlowCA sync after release")
}

// TestFetcherHungCADoesNotStallOthers pins that the isolation lasts past
// the first sync: while SlowCA's pull stays hung, FastCA keeps syncing on
// its own schedule. A lockstep cycle (every CA pulled, then all joined,
// before the next tick) froze FastCA at its first sync for as long as
// SlowCA's origin did not answer.
func TestFetcherHungCADoesNotStallOthers(t *testing.T) {
	agent, fastCA, _ := hungCAEnv(t, 25)
	if _, err := fastCA.Revoke(serial.NewGenerator(26, nil).NextN(2)...); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool {
		r, err := agent.Store().Replica("FastCA")
		return err == nil && r.Count() == 5
	}, "FastCA's next syncs while SlowCA is hung")
}

// caFaultOrigin fails pulls for one CA while broken; everything else is
// served from the inner origin.
type caFaultOrigin struct {
	inner  cdn.Origin
	bad    dictionary.CAID
	broken atomic.Bool
}

func (o *caFaultOrigin) Pull(ca dictionary.CAID, from uint64) (*cdn.PullResponse, error) {
	if ca == o.bad && o.broken.Load() {
		return nil, fmt.Errorf("origin shard for %s is down", ca)
	}
	return o.inner.Pull(ca, from)
}
func (o *caFaultOrigin) LatestRoot(ca dictionary.CAID) (*dictionary.SignedRoot, error) {
	if ca == o.bad && o.broken.Load() {
		return nil, fmt.Errorf("origin shard for %s is down", ca)
	}
	return o.inner.LatestRoot(ca)
}
func (o *caFaultOrigin) CAs() ([]dictionary.CAID, error) { return o.inner.CAs() }

// TestFetcherShardFailureIsolationStats asserts a persistently failing CA
// (a) does not block the healthy CA's sync and (b) is visible in
// Stats().ConsecutiveFailures — per-CA, streak-counted, and cleared the
// moment the shard heals.
func TestFetcherShardFailureIsolationStats(t *testing.T) {
	dp := cdn.NewDistributionPoint(nil)
	goodCA := newPublishedCA(t, dp, "GoodCA")
	badCA := newPublishedCA(t, dp, "BadCA")
	fault := &caFaultOrigin{inner: dp, bad: "BadCA"}
	fault.broken.Store(true)
	agent, err := New(Config{
		Roots:  []*cert.Certificate{goodCA.RootCertificate(), badCA.RootCertificate()},
		Origin: fault,
		Delta:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := goodCA.Revoke(serial.NewGenerator(22, nil).NextN(2)...); err != nil {
		t.Fatal(err)
	}

	pullEvery(agent, 20*time.Millisecond)
	f := agent.StartFetcher(FetcherOptions{})
	defer f.Shutdown()

	waitFor(t, 2*time.Second, func() bool {
		r, err := agent.Store().Replica("GoodCA")
		st := f.Stats()
		return err == nil && r.Count() == 2 && st.ConsecutiveFailures["BadCA"] >= 2
	}, "healthy CA sync + failure streak on the broken one")
	st := f.Stats()
	if _, ok := st.ConsecutiveFailures["GoodCA"]; ok {
		t.Errorf("healthy CA appears in ConsecutiveFailures: %v", st.ConsecutiveFailures)
	}
	if st.Errors < 2 {
		t.Errorf("errors = %d, want ≥2", st.Errors)
	}

	// The shard heals: the streak entry must disappear (the map holds only
	// currently-failing CAs).
	fault.broken.Store(false)
	waitFor(t, 2*time.Second, func() bool {
		return len(f.Stats().ConsecutiveFailures) == 0
	}, "failure streak cleared after heal")
}

// TestLeaderCrashFollowerFailover is the acceptance scenario: a leader
// origin crashes with unreplicated records; the RA fails over to the
// WAL-shipped follower, resyncs onto its (shorter, signed) history, and
// every revocation the follower acknowledged stays provable. The CA then
// replays the missed batch to the promoted follower and the RA converges
// back to the full history — nothing is lost, no operator action beyond
// the replay.
func TestLeaderCrashFollowerFailover(t *testing.T) {
	const delta = 10 * time.Second

	// Leader: storage-backed origin (the replication stream needs a WAL).
	leaderDP := cdn.NewDistributionPointWithStorage(nil, storage.NewMemory(), 0)
	defer leaderDP.Close()
	authority := newPublishedCA(t, leaderDP, "CA1")
	leaderSrv := httptest.NewServer(cdn.NewHandler(leaderDP, cdn.HandlerOptions{}))
	defer leaderSrv.Close()

	// Follower: same trust anchor, fed over /v1/replicate.
	followerDP := cdn.NewDistributionPointWithStorage(nil, storage.NewMemory(), 0)
	defer followerDP.Close()
	if err := followerDP.RegisterCA("CA1", authority.PublicKey()); err != nil {
		t.Fatal(err)
	}
	follower := cdn.NewFollower(followerDP, &cdn.HTTPClient{BaseURL: leaderSrv.URL, MaxAttempts: 1})
	followerSrv := httptest.NewServer(cdn.NewHandler(followerDP, cdn.HandlerOptions{}))
	defer followerSrv.Close()

	failover, err := cdn.NewShardedOrigin([][]cdn.Origin{{
		&cdn.HTTPClient{BaseURL: leaderSrv.URL, MaxAttempts: 1},
		&cdn.HTTPClient{BaseURL: followerSrv.URL, MaxAttempts: 1},
	}}, cdn.ShardedOriginOptions{Cooldown: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := New(Config{
		Roots:  []*cert.Certificate{authority.RootCertificate()},
		Origin: failover,
		Delta:  delta,
	})
	if err != nil {
		t.Fatal(err)
	}

	gen := serial.NewGenerator(24, nil)
	revoked := func(t *testing.T, sn serial.Number, when string) {
		t.Helper()
		st, err := agent.Status("CA1", sn)
		if err != nil {
			t.Fatalf("status %s: %v", when, err)
		}
		ok, err := st.Proof.Verify(sn, st.Root.Root, st.Root.N)
		if err != nil || !ok {
			t.Fatalf("proof %s: revoked=%v err=%v", when, ok, err)
		}
	}

	// Batch 1 is acknowledged: revoked, replicated to the follower, synced
	// by the RA.
	batch1 := gen.NextN(10)
	if _, err := authority.Revoke(batch1...); err != nil {
		t.Fatal(err)
	}
	if err := authority.PublishRefresh(); err != nil {
		t.Fatal(err)
	}
	if err := follower.SyncOnce(); err != nil {
		t.Fatalf("follower replication: %v", err)
	}
	if err := agent.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	revoked(t, batch1[0], "before crash")

	// Batch 2 lands on the leader and reaches the RA, but the leader dies
	// before the follower's next replication tick: mid-batch crash.
	batch2Msg, err := authority.Revoke(gen.NextN(5)...)
	if err != nil {
		t.Fatal(err)
	}
	batch2 := batch2Msg.Serials
	if err := authority.PublishRefresh(); err != nil {
		t.Fatal(err)
	}
	if err := agent.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if r, _ := agent.Store().Replica("CA1"); r.Count() != 15 {
		t.Fatalf("pre-crash replica count = %d, want 15", r.Count())
	}
	leaderSrv.Close()

	// The fetcher drives the whole recovery: transport error on the leader
	// → failover → follower answers ErrAhead (it never saw batch 2) →
	// Resync adopts the follower's shorter signed history.
	pullEvery(agent, 20*time.Millisecond)
	f := agent.StartFetcher(FetcherOptions{})
	defer f.Shutdown()
	waitFor(t, 5*time.Second, func() bool {
		r, err := agent.Store().Replica("CA1")
		return err == nil && r.Count() == 10
	}, "resync onto the promoted follower")
	if st := f.Stats(); st.Recoveries < 1 {
		t.Errorf("recoveries = %d, want ≥1", st.Recoveries)
	}
	// Every acknowledged revocation survived the promotion.
	for _, sn := range batch1 {
		revoked(t, sn, "after failover")
	}

	// Promotion runbook: the CA re-points at the survivor and replays the
	// signed batch the dead leader never shipped. The follower verifies it
	// against the same trust anchor, so this is an ordinary publish.
	authority.SetPublisher(followerDP)
	if err := followerDP.PublishIssuance(batch2Msg); err != nil {
		t.Fatalf("replay missed batch to promoted follower: %v", err)
	}
	if err := authority.PublishRefresh(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		r, err := agent.Store().Replica("CA1")
		return err == nil && r.Count() == 15
	}, "convergence after batch replay")
	revoked(t, batch2[0], "after replay")
}
