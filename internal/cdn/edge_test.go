package cdn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ritm/internal/dictionary"
)

// TestEdgeEvictionBounded drives an edge through 120 ∆ cycles of an
// advancing fleet (one revocation + one pull at the new count per cycle)
// and asserts the cache stays O(live keys): without eviction the cache
// would hold one entry per historical count forever — the memory leak of
// the seed implementation.
func TestEdgeEvictionBounded(t *testing.T) {
	tc := newTestCA(t, "CA1")
	edge := NewEdgeServer(tc.dp, 30*time.Second, tc.clock.now)

	var from uint64
	const cycles = 120
	for i := 0; i < cycles; i++ {
		tc.revoke(t, 1)
		tc.clock.advance(10 * time.Second)
		resp, err := edge.Pull("CA1", from)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Issuance == nil {
			t.Fatalf("cycle %d: no issuance", i)
		}
		from = resp.Issuance.Root.N
	}

	st := edge.Stats()
	if st.Entries > 8 {
		t.Errorf("cache holds %d entries after %d cycles, want O(live keys) (≤8)", st.Entries, cycles)
	}
	if st.Entries+st.Evictions != st.Misses {
		t.Errorf("entries (%d) + evictions (%d) != inserts (%d): entries leaked",
			st.Entries, st.Evictions, st.Misses)
	}
	if st.Evictions < cycles-10 {
		t.Errorf("evictions = %d, want ≈%d (every superseded from evicted)", st.Evictions, cycles)
	}
}

// TestEdgeMaxEntriesCap fills an edge with more distinct live keys than
// the configured cap (one key per CA, so TTL and stale-offset sweeps
// cannot reclaim anything) and asserts the oldest entries are dropped.
func TestEdgeMaxEntriesCap(t *testing.T) {
	clock := newTestClock()
	dp := NewDistributionPoint(clock.now)
	const cas = 20
	ids := make([]dictionary.CAID, cas)
	for i := range ids {
		tc := newTestCA(t, dictionary.CAID([]byte{'C', 'A', byte('A' + i)}))
		ids[i] = dictionary.CAID([]byte{'C', 'A', byte('A' + i)})
		if err := dp.RegisterCA(ids[i], tc.auth.PublicKey()); err != nil {
			t.Fatal(err)
		}
		msg, err := tc.auth.Insert(tc.gen.NextN(1), clock.now().Unix())
		if err != nil {
			t.Fatal(err)
		}
		if err := dp.PublishIssuance(msg); err != nil {
			t.Fatal(err)
		}
	}

	edge := NewEdgeServer(dp, time.Hour, clock.now)
	edge.maxEntries = 8
	for _, id := range ids {
		if _, err := edge.Pull(id, 0); err != nil {
			t.Fatal(err)
		}
		clock.advance(time.Second) // distinct ages for deterministic oldest-first drops
	}
	st := edge.Stats()
	if st.Entries > 8 {
		t.Errorf("cache holds %d entries, cap is 8", st.Entries)
	}
	if st.Evictions < cas-8 {
		t.Errorf("evictions = %d, want ≥%d (%d inserts, cap 8)", st.Evictions, cas-8, cas)
	}
	// The newest key must have survived the oldest-first cap eviction.
	if _, err := edge.Pull(ids[cas-1], 0); err != nil {
		t.Fatal(err)
	}
	if after := edge.Stats(); after.Hits != st.Hits+1 {
		t.Error("newest entry was evicted before older ones")
	}
}

// gatedOrigin blocks every Pull until released, counting upstream calls —
// the stampede scenario: many RAs miss the same key at the same instant.
type gatedOrigin struct {
	Origin
	release chan struct{}
	calls   atomic.Int64
}

func (g *gatedOrigin) Pull(ca dictionary.CAID, from uint64) (*PullResponse, error) {
	g.calls.Add(1)
	<-g.release
	return g.Origin.Pull(ca, from)
}

// TestEdgeSingleflightCollapse stampedes one edge key with 16 concurrent
// pulls and asserts the origin is contacted exactly once; everyone else is
// served by joining the in-flight fetch or from the freshly filled cache.
// Run under -race: the singleflight bookkeeping is the point.
func TestEdgeSingleflightCollapse(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 5)
	gate := &gatedOrigin{Origin: tc.dp, release: make(chan struct{})}
	edge := NewEdgeServer(gate, time.Hour, tc.clock.now)

	const pullers = 16
	var started, wg sync.WaitGroup
	errs := make([]error, pullers)
	resps := make([]*PullResponse, pullers)
	started.Add(pullers)
	wg.Add(pullers)
	for i := 0; i < pullers; i++ {
		go func(i int) {
			defer wg.Done()
			started.Done()
			resps[i], errs[i] = edge.Pull("CA1", 0)
		}(i)
	}
	started.Wait()
	time.Sleep(100 * time.Millisecond) // let the pullers pile onto the in-flight call
	close(gate.release)
	wg.Wait()

	for i := 0; i < pullers; i++ {
		if errs[i] != nil {
			t.Fatalf("puller %d: %v", i, errs[i])
		}
		if got := len(resps[i].Issuance.Serials); got != 5 {
			t.Fatalf("puller %d got %d serials, want 5", i, got)
		}
	}
	if calls := gate.calls.Load(); calls != 1 {
		t.Errorf("origin saw %d pulls, want 1 (stampede not collapsed)", calls)
	}
	st := edge.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.CollapsedPulls != pullers-1 {
		t.Errorf("hits (%d) + collapsed (%d) = %d, want %d",
			st.Hits, st.CollapsedPulls, st.Hits+st.CollapsedPulls, pullers-1)
	}
	if st.CollapsedPulls == 0 {
		t.Error("no pulls collapsed onto the in-flight fetch")
	}
}

// TestEdgeSingleflightErrorNotCached verifies a failed collapsed fetch
// propagates the error to every waiter and is not cached: the next pull
// retries the upstream.
func TestEdgeSingleflightErrorNotCached(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 1)
	flaky := &flakyOrigin{Origin: tc.dp}
	edge := NewEdgeServer(flaky, time.Hour, tc.clock.now)

	flaky.broken.Store(true)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = edge.Pull("CA1", 0)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("puller %d succeeded through a broken upstream", i)
		}
	}
	// Every failed pull is visible in the stats — outage health must not
	// read as 100% hit rate.
	if st := edge.Stats(); st.Errors != 4 {
		t.Errorf("errors = %d, want 4", st.Errors)
	}
	flaky.broken.Store(false)
	resp, err := edge.Pull("CA1", 0)
	if err != nil {
		t.Fatalf("pull after upstream recovery: %v", err)
	}
	if len(resp.Issuance.Serials) != 1 {
		t.Errorf("recovered pull returned %d serials, want 1", len(resp.Issuance.Serials))
	}
}

// swapOrigin lets a test replace the edge's upstream mid-flight,
// simulating an origin restart behind a long-lived edge.
type swapOrigin struct {
	mu sync.Mutex
	o  Origin
}

func (s *swapOrigin) set(o Origin) { s.mu.Lock(); s.o = o; s.mu.Unlock() }
func (s *swapOrigin) get() Origin  { s.mu.Lock(); defer s.mu.Unlock(); return s.o }

func (s *swapOrigin) Pull(ca dictionary.CAID, from uint64) (*PullResponse, error) {
	return s.get().Pull(ca, from)
}
func (s *swapOrigin) LatestRoot(ca dictionary.CAID) (*dictionary.SignedRoot, error) {
	return s.get().LatestRoot(ca)
}
func (s *swapOrigin) CAs() ([]dictionary.CAID, error) { return s.get().CAs() }

// TestEdgeStaleFromClampAfterOriginRegression: an origin restart with a
// shorter history must not leave the edge's stale-from high-water mark
// pointing at the old count — that would make every sweep evict the
// fleet's new, lower-from entries forever. The clamp derives the live
// bound from the served root's count.
func TestEdgeStaleFromClampAfterOriginRegression(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 5)

	up := &swapOrigin{o: tc.dp}
	const ttl = 30 * time.Second
	edge := NewEdgeServer(up, ttl, tc.clock.now)
	if _, err := edge.Pull("CA1", 5); err != nil { // latest[CA1] = 5
		t.Fatal(err)
	}

	// Restart: a fresh, empty distribution point — the fleet Resyncs to
	// count 0 and pulls (CA1, 0) from now on.
	dp2 := NewDistributionPoint(tc.clock.now)
	if err := dp2.RegisterCA("CA1", tc.auth.PublicKey()); err != nil {
		t.Fatal(err)
	}
	up.set(dp2)

	tc.clock.advance(ttl - time.Second)
	if _, err := edge.Pull("CA1", 0); err != nil { // cached fresh, clamps latest → 0
		t.Fatal(err)
	}
	// Past the TTL boundary the next pull sweeps: the dead (CA1, 5) entry
	// expires, but the 2s-old (CA1, 0) entry must survive — without the
	// clamp it is evicted as stale (0 < 5) and every post-regression pull
	// re-fetches from the origin until an operator Flush.
	tc.clock.advance(2 * time.Second)
	before := edge.Stats()
	if _, err := edge.Pull("CA1", 0); err != nil {
		t.Fatal(err)
	}
	after := edge.Stats()
	if after.Hits != before.Hits+1 {
		t.Errorf("post-regression (CA1, 0) entry was swept as stale: hits %d → %d (stats %+v)",
			before.Hits, after.Hits, after)
	}
	if after.Evictions < 1 {
		t.Errorf("dead pre-regression entry not evicted: %+v", after)
	}
}

// TestPullResponseEncodedMemoized asserts the response's wire encoding is
// computed once and shared: the seed re-serialized on every Encode call —
// twice per edge miss just for byte accounting, once more in the HTTP
// handler.
func TestPullResponseEncodedMemoized(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 3)
	resp, err := tc.dp.Pull("CA1", 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := resp.Encoded(), resp.Encoded()
	if len(a) == 0 {
		t.Fatal("empty encoding")
	}
	if &a[0] != &b[0] {
		t.Error("Encoded re-serialized instead of returning the memoized buffer")
	}
	if c := resp.Encode(); &c[0] != &a[0] {
		t.Error("Encode did not share the memoized buffer")
	}
	if resp.Size() != len(a) {
		t.Errorf("Size = %d, want %d", resp.Size(), len(a))
	}

	// A decoded response is seeded with the parsed bytes.
	decoded, err := DecodePullResponse(a)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := decoded.Encoded(), decoded.Encoded()
	if &d1[0] != &d2[0] {
		t.Error("decoded response re-serialized instead of reusing the parsed buffer")
	}
	if string(d1) != string(a) {
		t.Error("decoded response's seeded encoding differs from the original")
	}
}

// TestDistributionPointParallelPull hammers the origin's read path from
// many goroutines while a publisher ingests, exercising the atomic
// counters and the atomic freshness pointer under -race (the seed
// serialized every pull behind the exclusive write lock).
func TestDistributionPointParallelPull(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 10)

	const (
		pullers  = 8
		perPull  = 200
		refreshN = 20
	)
	var wg sync.WaitGroup
	for i := 0; i < pullers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perPull; j++ {
				resp, err := tc.dp.Pull("CA1", 0)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Issuance == nil {
					t.Error("pull lost issuance")
					return
				}
			}
		}()
	}
	// Concurrent ingest: freshness refreshes race the pulls. (Not
	// tc.refresh: t.Fatal must not run off the test goroutine.)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < refreshN; j++ {
			st, err := tc.auth.Statement(tc.clock.now().Unix())
			if err != nil {
				t.Error(err)
				return
			}
			if err := tc.dp.PublishFreshness(st); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if got := tc.dp.Stats().Pulls; got != pullers*perPull {
		t.Errorf("pull counter = %d, want %d", got, pullers*perPull)
	}
}

// TestEdgeNegativeCacheDisabledByDefault: without SetNegativeTTL every
// unknown-CA pull reaches the upstream — negative caching is an explicit
// operator choice, not a surprise.
func TestEdgeNegativeCacheDisabledByDefault(t *testing.T) {
	tc := newTestCA(t, "CA1")
	counting := newCountingOrigin(tc.dp)
	edge := NewEdgeServer(counting, time.Minute, tc.clock.now)
	for i := 0; i < 5; i++ {
		if _, err := edge.Pull("CA9", 0); err == nil {
			t.Fatal("unknown CA pull succeeded")
		}
	}
	if got := counting.caPulls("CA9"); got != 5 {
		t.Errorf("upstream saw %d unknown-CA pulls, want 5 (negative caching not opted into)", got)
	}
	if st := edge.Stats(); st.NegativeHits != 0 || st.NegativeEntries != 0 {
		t.Errorf("negative stats populated while disabled: %+v", st)
	}
}

// TestEdgeNegativeCacheBoundsUpstreamLookups: with a negative TTL, an
// unknown-CA request storm costs the upstream one lookup per TTL window —
// across Pull and LatestRoot alike — and the entry clears the moment the
// CA exists.
func TestEdgeNegativeCacheBoundsUpstreamLookups(t *testing.T) {
	const negTTL = 30 * time.Second
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 1)
	counting := newCountingOrigin(tc.dp)
	edge := NewEdgeServer(counting, time.Minute, tc.clock.now)
	edge.SetNegativeTTL(negTTL)

	for i := 0; i < 40; i++ {
		if _, err := edge.Pull("CA9", uint64(i)); !errors.Is(err, ErrUnknownCA) {
			t.Fatalf("pull %d: err = %v, want ErrUnknownCA", i, err)
		}
	}
	// LatestRoot shares the entry: no extra upstream lookup.
	if _, err := edge.LatestRoot("CA9"); !errors.Is(err, ErrUnknownCA) {
		t.Fatal("LatestRoot bypassed the negative cache")
	}
	if got := counting.caPulls("CA9"); got != 1 {
		t.Errorf("upstream saw %d unknown-CA pulls in one window, want 1", got)
	}
	st := edge.Stats()
	if st.NegativeHits != 40 { // 39 pulls + 1 root
		t.Errorf("NegativeHits = %d, want 40", st.NegativeHits)
	}
	if st.Errors != 1 {
		t.Errorf("Errors = %d, want 1 (negative hits are not upstream errors)", st.Errors)
	}
	if st.NegativeEntries != 1 {
		t.Errorf("NegativeEntries = %d, want 1", st.NegativeEntries)
	}

	// Next window: exactly one more upstream lookup.
	tc.clock.advance(negTTL + time.Second)
	if _, err := edge.Pull("CA9", 0); !errors.Is(err, ErrUnknownCA) {
		t.Fatal("unknown CA became known spontaneously")
	}
	if got := counting.caPulls("CA9"); got != 2 {
		t.Errorf("upstream saw %d unknown-CA pulls over 2 windows, want 2", got)
	}

	// The CA comes online; once the negative entry expires the edge
	// serves it (and the success clears any bookkeeping).
	if err := tc.dp.RegisterCA("CA9", tc.auth.PublicKey()); err != nil {
		t.Fatal(err)
	}
	tc.clock.advance(negTTL + time.Second)
	if _, err := edge.Pull("CA9", 0); err != nil {
		t.Errorf("pull after registration: %v", err)
	}
	if st := edge.Stats(); st.NegativeEntries != 0 {
		t.Errorf("NegativeEntries = %d after successful fetch, want 0", st.NegativeEntries)
	}
}

// TestEdgeNegativeCacheOwnSweep: expired negative entries are dropped by
// the negative sweep (its own cadence), not only overwritten on re-miss.
func TestEdgeNegativeCacheOwnSweep(t *testing.T) {
	const negTTL = 20 * time.Second
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 1)
	edge := NewEdgeServer(tc.dp, time.Hour, tc.clock.now)
	edge.SetNegativeTTL(negTTL)

	for _, ghost := range []dictionary.CAID{"G1", "G2", "G3"} {
		if _, err := edge.Pull(ghost, 0); !errors.Is(err, ErrUnknownCA) {
			t.Fatalf("pull %s: unexpected err %v", ghost, err)
		}
	}
	if st := edge.Stats(); st.NegativeEntries != 3 {
		t.Fatalf("NegativeEntries = %d, want 3", st.NegativeEntries)
	}
	// Past the negative TTL, any pull triggers the sweep — including one
	// for a known CA that never touches the negative entries itself.
	tc.clock.advance(negTTL + time.Second)
	if _, err := edge.Pull("CA1", 0); err != nil {
		t.Fatal(err)
	}
	st := edge.Stats()
	if st.NegativeEntries != 0 {
		t.Errorf("NegativeEntries = %d after sweep, want 0", st.NegativeEntries)
	}
	if st.NegativeEvictions != 3 {
		t.Errorf("NegativeEvictions = %d, want 3", st.NegativeEvictions)
	}
}

// TestEdgeNegativeCacheUncachedEdge: the Fig 5 worst-case edge (TTL=0,
// positive caching off) still honors an explicit negative TTL — the two
// caches are independent policies.
func TestEdgeNegativeCacheUncachedEdge(t *testing.T) {
	tc := newTestCA(t, "CA1")
	counting := newCountingOrigin(tc.dp)
	edge := NewEdgeServer(counting, 0, tc.clock.now)
	edge.SetNegativeTTL(time.Minute)
	for i := 0; i < 10; i++ {
		if _, err := edge.Pull("CA9", 0); !errors.Is(err, ErrUnknownCA) {
			t.Fatalf("pull %d: err = %v", i, err)
		}
	}
	if got := counting.caPulls("CA9"); got != 1 {
		t.Errorf("TTL=0 edge forwarded %d unknown-CA pulls, want 1", got)
	}
}

// TestEdgeNegativeCacheFlakyErrorNotCached: only ErrUnknownCA is negative-
// cached; transient upstream failures must be retried, never remembered.
func TestEdgeNegativeCacheFlakyErrorNotCached(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 2)
	broken := &brokenOrigin{}
	edge := NewEdgeServer(&fallbackOrigin{first: broken, then: tc.dp}, time.Minute, tc.clock.now)
	edge.SetNegativeTTL(time.Minute)

	if _, err := edge.Pull("CA1", 0); err == nil {
		t.Fatal("pull through broken upstream succeeded")
	}
	// The 500-class failure was not negative-cached: the immediate retry
	// reaches the (healed) upstream.
	resp, err := edge.Pull("CA1", 0)
	if err != nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
	if len(resp.Issuance.Serials) != 2 {
		t.Errorf("retry served %d serials, want 2", len(resp.Issuance.Serials))
	}
}

// brokenOrigin fails every call with an untyped error.
type brokenOrigin struct{}

func (brokenOrigin) Pull(dictionary.CAID, uint64) (*PullResponse, error) {
	return nil, errUpstreamDown
}
func (brokenOrigin) LatestRoot(dictionary.CAID) (*dictionary.SignedRoot, error) {
	return nil, errUpstreamDown
}
func (brokenOrigin) CAs() ([]dictionary.CAID, error) { return nil, errUpstreamDown }

var errUpstreamDown = fmt.Errorf("upstream down")

// fallbackOrigin serves the first call from `first`, everything after
// from `then` — a one-shot transient failure.
type fallbackOrigin struct {
	mu    sync.Mutex
	used  bool
	first Origin
	then  Origin
}

func (f *fallbackOrigin) pick() Origin {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.used {
		f.used = true
		return f.first
	}
	return f.then
}

func (f *fallbackOrigin) Pull(ca dictionary.CAID, from uint64) (*PullResponse, error) {
	return f.pick().Pull(ca, from)
}
func (f *fallbackOrigin) LatestRoot(ca dictionary.CAID) (*dictionary.SignedRoot, error) {
	return f.pick().LatestRoot(ca)
}
func (f *fallbackOrigin) CAs() ([]dictionary.CAID, error) { return f.pick().CAs() }

// TestEdgeStaleFromClampRepeatedRegressions extends the PR 2 clamp
// coverage: two successive origin regressions (restart, partial re-feed,
// restart again) must each re-open the post-regression keyspace — a
// clamp that only works once would strand the fleet on the second
// incident.
func TestEdgeStaleFromClampRepeatedRegressions(t *testing.T) {
	tc := newTestCA(t, "CA1")
	now := tc.clock.now().Unix()
	msgA, err := tc.auth.Insert(tc.gen.NextN(5), now) // covers (0, 5]
	if err != nil {
		t.Fatal(err)
	}
	msgB, err := tc.auth.Insert(tc.gen.NextN(3), now) // covers (5, 8]
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.dp.PublishIssuance(msgA); err != nil {
		t.Fatal(err)
	}
	if err := tc.dp.PublishIssuance(msgB); err != nil {
		t.Fatal(err)
	}

	up := &swapOrigin{o: tc.dp}
	const ttl = 30 * time.Second
	edge := NewEdgeServer(up, ttl, tc.clock.now)
	if _, err := edge.Pull("CA1", 8); err != nil { // latest[CA1] = 8
		t.Fatal(err)
	}

	// restart replaces the origin with one re-fed only the given prefix.
	restart := func(msgs ...*dictionary.IssuanceMessage) {
		t.Helper()
		dp := NewDistributionPoint(tc.clock.now)
		if err := dp.RegisterCA("CA1", tc.auth.PublicKey()); err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if err := dp.PublishIssuance(m); err != nil {
				t.Fatal(err)
			}
		}
		up.set(dp)
	}

	// assertLiveAfterSweep pulls key (CA1, from) twice across a sweep
	// boundary and requires the second to be a cache hit — the clamp must
	// have re-opened the post-regression keyspace.
	assertLiveAfterSweep := func(phase string, from uint64) {
		t.Helper()
		tc.clock.advance(ttl + time.Second) // expire pre-regression entries
		if _, err := edge.Pull("CA1", from); err != nil {
			t.Fatal(err)
		}
		tc.clock.advance(time.Second)
		before := edge.Stats()
		if _, err := edge.Pull("CA1", from); err != nil {
			t.Fatal(err)
		}
		if after := edge.Stats(); after.Hits != before.Hits+1 {
			t.Errorf("%s: (CA1, %d) swept as stale (%+v)", phase, from, after)
		}
	}

	// First regression: origin re-fed only msgA (count 5); the fleet
	// resyncs to 5 and pulls (CA1, 5).
	restart(msgA)
	assertLiveAfterSweep("first regression", 5)

	// Second regression before anyone caught up: origin restarts EMPTY.
	// A clamp that only handled one regression would sweep (CA1, 0)
	// against the stale latest=5 mark forever.
	restart()
	assertLiveAfterSweep("second regression", 0)
}

// TestEdgeNegativeEntryDoesNotShadowPositiveCache: a negative entry
// recorded by a failed root lookup (origin mid-restart) must not shadow
// live cached pull responses — positive entries win; the negative entry
// only governs keys the edge has nothing for.
func TestEdgeNegativeEntryDoesNotShadowPositiveCache(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 3)
	up := &swapOrigin{o: tc.dp}
	const ttl = time.Minute
	edge := NewEdgeServer(up, ttl, tc.clock.now)
	edge.SetNegativeTTL(30 * time.Second)

	if _, err := edge.Pull("CA1", 0); err != nil { // warm (CA1, 0)
		t.Fatal(err)
	}

	// Origin restarts empty and unregistered: a root lookup records a
	// negative entry for CA1.
	dp2 := NewDistributionPoint(tc.clock.now)
	up.set(dp2)
	if _, err := edge.LatestRoot("CA1"); !errors.Is(err, ErrUnknownCA) {
		t.Fatalf("root against restarted origin: %v", err)
	}
	if st := edge.Stats(); st.NegativeEntries != 1 {
		t.Fatalf("NegativeEntries = %d, want 1", st.NegativeEntries)
	}

	// The live (CA1, 0) entry still serves.
	resp, err := edge.Pull("CA1", 0)
	if err != nil {
		t.Fatalf("cached pull shadowed by negative entry: %v", err)
	}
	if len(resp.Issuance.Serials) != 3 {
		t.Errorf("shadow-check pull served %d serials, want 3", len(resp.Issuance.Serials))
	}
	// A key the edge has NO data for is governed by the negative entry.
	if _, err := edge.Pull("CA1", 1); !errors.Is(err, ErrUnknownCA) {
		t.Errorf("uncached key bypassed the negative entry: %v", err)
	}
}

// TestEdgeNegativeCacheBounded: the negative map shares the positive
// cache's entry cap — a flood of attacker-minted unique CA ids must not
// grow memory without limit (and caching a never-repeated id has no
// value, so refusing new inserts at the cap loses nothing).
func TestEdgeNegativeCacheBounded(t *testing.T) {
	tc := newTestCA(t, "CA1")
	edge := NewEdgeServer(tc.dp, time.Minute, tc.clock.now)
	edge.maxEntries = 8
	edge.SetNegativeTTL(30 * time.Second)

	for i := 0; i < 100; i++ {
		ghost := dictionary.CAID(fmt.Sprintf("ghost-%d", i))
		if _, err := edge.Pull(ghost, 0); !errors.Is(err, ErrUnknownCA) {
			t.Fatalf("pull %d: err = %v", i, err)
		}
	}
	if st := edge.Stats(); st.NegativeEntries > 8 {
		t.Errorf("NegativeEntries = %d after 100 unique unknown CAs, cap is 8", st.NegativeEntries)
	}
	// Entries already in the map keep absorbing their own storms.
	before := edge.Stats().NegativeHits
	if _, err := edge.Pull("ghost-0", 0); !errors.Is(err, ErrUnknownCA) {
		t.Fatal("cached ghost forgot its entry")
	}
	if after := edge.Stats().NegativeHits; after != before+1 {
		t.Errorf("NegativeHits %d → %d: capped map stopped serving live entries", before, after)
	}
	// Once the window lapses, room frees up and new ids are remembered
	// again.
	tc.clock.advance(31 * time.Second)
	if _, err := edge.Pull("fresh-ghost", 0); !errors.Is(err, ErrUnknownCA) {
		t.Fatal(err)
	}
	if _, err := edge.Pull("fresh-ghost", 0); !errors.Is(err, ErrUnknownCA) {
		t.Fatal(err)
	}
	if st := edge.Stats(); st.NegativeEntries == 0 || st.NegativeEntries > 8 {
		t.Errorf("NegativeEntries = %d after sweep + re-insert, want within (0, 8]", st.NegativeEntries)
	}
}
