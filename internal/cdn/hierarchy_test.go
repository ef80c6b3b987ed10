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

// Scenario suite for the two-tier hierarchy (regions × PoPs): these tests
// prove the fan-out arithmetic the "millions of users" story rests on —
// per (ca, from) key the origin sees at most one pull per REGIONAL edge,
// no matter how many PoPs or RAs sit below — and that the contract
// survives unknown-CA storms, injected latency, partitions, and
// regional-edge restarts.

// countingOrigin counts upstream pulls, total and per CA.
type countingOrigin struct {
	Origin
	pulls atomic.Int64
	mu    sync.Mutex
	byCA  map[dictionary.CAID]int
}

func newCountingOrigin(o Origin) *countingOrigin {
	return &countingOrigin{Origin: o, byCA: make(map[dictionary.CAID]int)}
}

func (c *countingOrigin) Pull(ca dictionary.CAID, from uint64) (*PullResponse, error) {
	c.pulls.Add(1)
	c.mu.Lock()
	c.byCA[ca]++
	c.mu.Unlock()
	return c.Origin.Pull(ca, from)
}

func (c *countingOrigin) caPulls(ca dictionary.CAID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byCA[ca]
}

// delayOrigin injects wall-clock latency on every pull — the netsim
// region profile scaled down so the suite stays fast while preserving the
// ordering (far regions slower than near ones).
type delayOrigin struct {
	Origin
	delay time.Duration
}

func (d *delayOrigin) Pull(ca dictionary.CAID, from uint64) (*PullResponse, error) {
	time.Sleep(d.delay)
	return d.Origin.Pull(ca, from)
}

// partitionOrigin fails every pull while partitioned.
type partitionOrigin struct {
	Origin
	partitioned atomic.Bool
}

var errPartitioned = errors.New("link partitioned")

func (p *partitionOrigin) Pull(ca dictionary.CAID, from uint64) (*PullResponse, error) {
	if p.partitioned.Load() {
		return nil, errPartitioned
	}
	return p.Origin.Pull(ca, from)
}

func (p *partitionOrigin) LatestRoot(ca dictionary.CAID) (*dictionary.SignedRoot, error) {
	if p.partitioned.Load() {
		return nil, errPartitioned
	}
	return p.Origin.LatestRoot(ca)
}

// simRA is a minimal revocation agent for fan-out accounting: it tracks
// the from-offset it would pull at and advances it from served roots,
// which is all the cache arithmetic depends on.
type simRA struct {
	pop  Origin
	from uint64
}

func (s *simRA) sync(ca dictionary.CAID) error {
	resp, err := s.pop.Pull(ca, s.from)
	if err != nil {
		return err
	}
	if resp.Issuance != nil && resp.Issuance.Root != nil {
		s.from = resp.Issuance.Root.N
	}
	return nil
}

// hierarchyEnv is R regions × P PoPs × N RAs per PoP over one virtual-
// clock origin.
type hierarchyEnv struct {
	tc     *testCA
	origin *countingOrigin
	topo   *Topology
	ras    []*simRA // region-major: ras[((r*P)+p)*N + i]
	perPoP int
}

func newHierarchy(t *testing.T, regions, popsPerRegion, rasPerPoP int, cfg TopologyConfig) *hierarchyEnv {
	t.Helper()
	tc := newTestCA(t, "CA1")
	origin := newCountingOrigin(tc.dp)
	cfg.Regions = regions
	cfg.PoPsPerRegion = popsPerRegion
	if cfg.Now == nil {
		cfg.Now = tc.clock.now
	}
	topo, err := NewTopology(origin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := &hierarchyEnv{tc: tc, origin: origin, topo: topo, perPoP: rasPerPoP}
	for r := 0; r < regions; r++ {
		for p := 0; p < popsPerRegion; p++ {
			for i := 0; i < rasPerPoP; i++ {
				env.ras = append(env.ras, &simRA{pop: topo.PoP(r, p)})
			}
		}
	}
	return env
}

// cycle publishes one batch, advances the clock by delta, and syncs every
// RA concurrently — one ∆ boundary of the whole deployment.
func (e *hierarchyEnv) cycle(t *testing.T, revocations int, delta time.Duration) {
	t.Helper()
	if revocations > 0 {
		e.tc.revoke(t, revocations)
	}
	e.tc.clock.advance(delta)
	errs := make([]error, len(e.ras))
	var wg sync.WaitGroup
	for i, ra := range e.ras {
		wg.Add(1)
		go func(i int, ra *simRA) {
			defer wg.Done()
			errs[i] = ra.sync("CA1")
		}(i, ra)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("RA %d: %v", i, err)
		}
	}
}

// TestHierarchyFanOutContract is the core arithmetic: R regions × P PoPs
// × N RAs advancing in lockstep must cost the origin at most one pull per
// (ca, from) per REGIONAL edge — origin load O(R), independent of P and
// N — with tier hit rates matching the (N−1)/N and (P−1)/P floors.
func TestHierarchyFanOutContract(t *testing.T) {
	const (
		regions = 2
		pops    = 3
		ras     = 4 // per PoP → 24 fleet-wide
		cycles  = 15
	)
	env := newHierarchy(t, regions, pops, ras, TopologyConfig{
		RegionalTTL: 30 * time.Second,
		PoPTTL:      30 * time.Second,
	})
	for i := 0; i < cycles; i++ {
		env.cycle(t, 20, 10*time.Second)
	}

	// The fleet advanced through `cycles` distinct (ca, from) keys; each
	// key may reach the origin once per regional edge.
	if got, want := int(env.origin.pulls.Load()), regions*cycles; got > want {
		t.Errorf("origin saw %d pulls for %d keys × %d regions, want ≤ %d (fan-out leaked)",
			got, cycles, regions, want)
	}

	st := env.topo.Stats()
	popTotal := st.PoP.Hits + st.PoP.Misses + st.PoP.CollapsedPulls
	if want := regions * pops * ras * cycles; popTotal != want {
		t.Fatalf("PoP tier served %d pulls, want %d", popTotal, want)
	}
	// Each PoP misses ≤ once per key: everything else is a hit or joins
	// the in-flight fetch.
	if st.PoP.Misses > regions*pops*cycles {
		t.Errorf("PoP misses = %d, want ≤ %d (one per PoP per key)", st.PoP.Misses, regions*pops*cycles)
	}
	if hr, floor := HitRate(st.PoP), float64(ras-1)/float64(ras)-0.01; hr < floor {
		t.Errorf("PoP-tier hit rate = %.3f, want ≥ %.3f", hr, floor)
	}
	// The regional tier only sees PoP misses; of those, one per key per
	// region goes through.
	regTotal := st.Regional.Hits + st.Regional.Misses + st.Regional.CollapsedPulls
	if regTotal != st.PoP.Misses {
		t.Errorf("regional tier served %d pulls, PoP tier missed %d — tiers disagree", regTotal, st.PoP.Misses)
	}
	if st.Regional.Misses > regions*cycles {
		t.Errorf("regional misses = %d, want ≤ %d", st.Regional.Misses, regions*cycles)
	}
	// Per-region roll-up covers the fleet: each region's PoP tier served
	// its P×N share.
	for r, rs := range st.PerRegion {
		if total := rs.PoP.Hits + rs.PoP.Misses + rs.PoP.CollapsedPulls; total != pops*ras*cycles {
			t.Errorf("region %d PoP tier served %d, want %d", r, total, pops*ras*cycles)
		}
	}
	// Every RA converged on the same final count.
	want := uint64(cycles * 20)
	for i, ra := range env.ras {
		if ra.from != want {
			t.Errorf("RA %d at count %d, want %d", i, ra.from, want)
		}
	}
}

// TestHierarchyFanOutIndependentOfRACount doubles the fleet behind the
// same topology shape and asserts origin load does not move: the claim is
// O(regions), not "small-ish".
func TestHierarchyFanOutIndependentOfRACount(t *testing.T) {
	const (
		regions = 2
		pops    = 2
		cycles  = 8
	)
	originPulls := func(rasPerPoP int) int {
		env := newHierarchy(t, regions, pops, rasPerPoP, TopologyConfig{
			RegionalTTL: 30 * time.Second,
			PoPTTL:      30 * time.Second,
		})
		for i := 0; i < cycles; i++ {
			env.cycle(t, 10, 10*time.Second)
		}
		return int(env.origin.pulls.Load())
	}
	small, large := originPulls(2), originPulls(16)
	if small > regions*cycles || large > regions*cycles {
		t.Errorf("origin pulls small=%d large=%d, want both ≤ %d", small, large, regions*cycles)
	}
	if large > small {
		t.Errorf("origin pulls grew with RA count: %d RAs/PoP → %d pulls, %d RAs/PoP → %d pulls",
			2, small, 16, large)
	}
}

// TestHierarchyNegativeCacheBoundsUnknownCAStorm: a fleet misconfigured
// to poll a CA the origin does not carry must cost the origin at most one
// unknown-CA lookup per regional edge per negative TTL — bounded by the
// TTL clock, not the fleet's request rate.
func TestHierarchyNegativeCacheBoundsUnknownCAStorm(t *testing.T) {
	const (
		regions = 2
		pops    = 3
		negTTL  = 30 * time.Second
	)
	env := newHierarchy(t, regions, pops, 0, TopologyConfig{
		RegionalTTL: 10 * time.Second,
		PoPTTL:      10 * time.Second,
		NegativeTTL: negTTL,
	})
	const ghost = dictionary.CAID("GhostCA")

	storm := func(requestsPerPoP int) {
		t.Helper()
		for r := 0; r < regions; r++ {
			for p := 0; p < pops; p++ {
				for i := 0; i < requestsPerPoP; i++ {
					if _, err := env.topo.PoP(r, p).Pull(ghost, 0); !errors.Is(err, ErrUnknownCA) {
						t.Fatalf("storm pull: err = %v, want ErrUnknownCA", err)
					}
				}
			}
		}
	}

	// Window 1: 50 requests per PoP (300 fleet-wide). The first request
	// per region walks through to the origin; everyone after is answered
	// from a tier's negative cache.
	storm(50)
	window1 := env.origin.caPulls(ghost)
	if window1 > regions {
		t.Errorf("origin saw %d unknown-CA lookups in one window, want ≤ %d (one per regional edge)",
			window1, regions)
	}

	// Still inside the TTL: another 50/PoP costs the origin nothing.
	env.tc.clock.advance(negTTL / 2)
	storm(50)
	if got := env.origin.caPulls(ghost); got != window1 {
		t.Errorf("origin lookups grew within the negative TTL: %d → %d", window1, got)
	}

	// Window 2 (TTL expired): one more bounded batch — lookups scale with
	// elapsed windows, not with the 900 requests issued so far.
	env.tc.clock.advance(negTTL)
	storm(50)
	if got := env.origin.caPulls(ghost); got > 2*regions {
		t.Errorf("origin saw %d unknown-CA lookups over 2 windows, want ≤ %d", got, 2*regions)
	}

	st := env.topo.Stats()
	if st.PoP.NegativeHits == 0 || st.Regional.NegativeHits == 0 {
		t.Errorf("negative hits: pop=%d regional=%d, want both > 0", st.PoP.NegativeHits, st.Regional.NegativeHits)
	}
	// The storm must not be misread as upstream failure: negative hits
	// are their own ledger line.
	if total := st.PoP.NegativeHits + st.PoP.Errors; total != regions*pops*150 {
		t.Errorf("PoP tier accounted %d of %d storm requests", total, regions*pops*150)
	}

	// The CA comes online: once the negative TTL lapses the hierarchy
	// forgets the misconfiguration on its own.
	if err := env.tc.dp.RegisterCA(ghost, env.tc.auth.PublicKey()); err != nil {
		t.Fatal(err)
	}
	env.tc.clock.advance(negTTL + time.Second)
	if _, err := env.topo.PoP(0, 0).Pull(ghost, 0); err != nil {
		t.Errorf("pull after CA registration and TTL expiry: %v", err)
	}
}

// TestHierarchyInjectedLatency puts wide-area delays (scaled down 100×)
// on the topology links and stampedes every key: slow links
// must change only wall-clock time, never the fan-out arithmetic — the
// singleflight window just stays open longer.
func TestHierarchyInjectedLatency(t *testing.T) {
	const (
		regions = 2
		pops    = 2
		ras     = 8
		cycles  = 5
	)
	// Per-region PoP→regional and regional→origin delays: an edge sits
	// nearer than the origin, and the two regions differ.
	edgeRTT := []time.Duration{8 * time.Millisecond, 10 * time.Millisecond}
	originRTT := []time.Duration{40 * time.Millisecond, 100 * time.Millisecond}
	env := newHierarchy(t, regions, pops, ras, TopologyConfig{
		RegionalTTL: 30 * time.Second,
		PoPTTL:      30 * time.Second,
		Wrap: func(tier Tier, region, pop int, up Origin) Origin {
			switch tier {
			case TierRegional:
				return &delayOrigin{Origin: up, delay: originRTT[region] / 100}
			default:
				return &delayOrigin{Origin: up, delay: edgeRTT[region] / 100}
			}
		},
	})
	for i := 0; i < cycles; i++ {
		env.cycle(t, 10, 10*time.Second)
	}
	if got, want := int(env.origin.pulls.Load()), regions*cycles; got > want {
		t.Errorf("origin saw %d pulls under latency, want ≤ %d", got, want)
	}
	st := env.topo.Stats()
	// With 8 RAs stampeding each PoP over a slow link, collapsed pulls are
	// the mechanism that holds the contract — they must appear.
	if st.PoP.CollapsedPulls == 0 {
		t.Error("no singleflight collapses under injected latency — stampede reached the upstream")
	}
	want := uint64(cycles * 10)
	for i, ra := range env.ras {
		if ra.from != want {
			t.Errorf("RA %d at count %d, want %d", i, ra.from, want)
		}
	}
}

// TestHierarchyPartitionedRegionServesStale: severing one region's
// regional→origin link must leave that region serving cached entries
// (within TTL) while the other region proceeds, and heal cleanly.
func TestHierarchyPartitionedRegionServesStale(t *testing.T) {
	const (
		regions = 2
		pops    = 2
		ras     = 3
	)
	links := make([]*partitionOrigin, regions)
	env := newHierarchy(t, regions, pops, ras, TopologyConfig{
		RegionalTTL: 60 * time.Second,
		PoPTTL:      30 * time.Second,
		Wrap: func(tier Tier, region, pop int, up Origin) Origin {
			if tier == TierRegional {
				links[region] = &partitionOrigin{Origin: up}
				return links[region]
			}
			return up
		},
	})
	env.cycle(t, 10, 10*time.Second) // key (CA1, 0): fleet advances to 10
	env.cycle(t, 0, 10*time.Second)  // key (CA1, 10): the fleet's CURRENT key, now cached tier-wide

	// Partition region 0 from the origin.
	links[0].partitioned.Store(true)

	// Re-pulls at the current count inside the PoP TTL are absorbed
	// locally: the partition is invisible — this is the §V staleness
	// story, a severed CDN tier degrades to bounded-stale service, which
	// the client-side 2∆ policy turns into interruption only after TWO
	// missed periods.
	for i, ra := range env.ras {
		if err := ra.sync("CA1"); err != nil {
			t.Fatalf("RA %d during partition (cached key): %v", i, err)
		}
	}

	// Every cached copy of the current key ages out (past the regional
	// TTL); new revocations appear. Region 0's RAs now fail through to
	// the severed link, region 1 proceeds to the new count. (Errors are
	// expected in region 0 — assert the split, not uniform success.)
	env.tc.revoke(t, 10)
	env.tc.clock.advance(61 * time.Second)
	perRegion := pops * ras // RAs per region, region-major layout
	for i, ra := range env.ras {
		err := ra.sync("CA1")
		inBroken := i < perRegion
		if inBroken && err == nil {
			t.Errorf("RA %d in partitioned region synced through a severed link", i)
		}
		if !inBroken && err != nil {
			t.Errorf("RA %d in healthy region failed: %v", i, err)
		}
	}
	for i, ra := range env.ras[perRegion:] {
		if ra.from != 20 {
			t.Errorf("healthy-region RA %d at count %d, want 20", i, ra.from)
		}
	}

	// Heal: the next sync round converges everyone, no operator action.
	links[0].partitioned.Store(false)
	env.cycle(t, 0, time.Second)
	for i, ra := range env.ras {
		if ra.from != 20 {
			t.Errorf("RA %d at count %d after heal, want 20", i, ra.from)
		}
	}
}

// TestHierarchyRegionalRestartRecovery: wiping a regional edge's cache
// (process restart) must cost the origin at most one extra pull per live
// key from that region — the PoP tier keeps absorbing its share, and the
// other region is untouched.
func TestHierarchyRegionalRestartRecovery(t *testing.T) {
	const (
		regions = 2
		pops    = 3
		ras     = 4
	)
	env := newHierarchy(t, regions, pops, ras, TopologyConfig{
		RegionalTTL: 40 * time.Second,
		PoPTTL:      20 * time.Second,
	})
	env.cycle(t, 10, 10*time.Second) // key (CA1, 0): fleet advances to 10
	env.cycle(t, 0, 10*time.Second)  // key (CA1, 10) cached tier-wide
	baseline := int(env.origin.pulls.Load())

	env.topo.regionals[0].Flush() // a restarted regional edge comes back with an empty cache

	// Within the PoP TTL the restart is invisible: PoPs serve from their
	// own caches and the cold regional is never consulted.
	for i, ra := range env.ras {
		if err := ra.sync("CA1"); err != nil {
			t.Fatalf("RA %d right after restart: %v", i, err)
		}
	}
	if got := int(env.origin.pulls.Load()); got != baseline {
		t.Errorf("origin pulls %d → %d while PoP caches were warm", baseline, got)
	}

	// PoP entries expire; the fleet re-pulls the live key. Region 0's
	// PoPs miss into the cold regional, which re-warms with ONE origin
	// pull; region 1's regional still holds the key and absorbs its own.
	env.tc.clock.advance(21 * time.Second)
	for i, ra := range env.ras {
		if err := ra.sync("CA1"); err != nil {
			t.Fatalf("RA %d after PoP expiry: %v", i, err)
		}
	}
	if got := int(env.origin.pulls.Load()); got > baseline+1 {
		t.Errorf("regional restart cost %d origin pulls, want ≤ 1", got-baseline)
	}

	// Life goes on: the next ∆ boundary (spaced past the regional TTL so
	// every pre-restart entry is gone) obeys the steady-state bound.
	before := int(env.origin.pulls.Load())
	env.cycle(t, 10, 41*time.Second)
	if got := int(env.origin.pulls.Load()) - before; got > regions {
		t.Errorf("post-restart cycle cost %d origin pulls, want ≤ %d", got, regions)
	}
	want := uint64(20)
	for i, ra := range env.ras {
		if ra.from != want {
			t.Errorf("RA %d at count %d, want %d", i, ra.from, want)
		}
	}
}

// TestTopologyValidation exercises construction errors and the Wrap
// callback's contract (tier names, index ranges, upstream identity).
func TestTopologyValidation(t *testing.T) {
	tc := newTestCA(t, "CA1")
	if _, err := NewTopology(nil, TopologyConfig{Regions: 1, PoPsPerRegion: 1}); err == nil {
		t.Error("nil origin accepted")
	}
	for _, bad := range []TopologyConfig{
		{Regions: 0, PoPsPerRegion: 2},
		{Regions: 2, PoPsPerRegion: 0},
		{Regions: -1, PoPsPerRegion: -1},
	} {
		if _, err := NewTopology(tc.dp, bad); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}

	type wrapCall struct {
		tier        Tier
		region, pop int
	}
	var calls []wrapCall
	topo, err := NewTopology(tc.dp, TopologyConfig{
		Regions:       2,
		PoPsPerRegion: 2,
		PoPTTL:        time.Minute,
		RegionalTTL:   time.Minute,
		Now:           tc.clock.now,
		Wrap: func(tier Tier, region, pop int, up Origin) Origin {
			calls = append(calls, wrapCall{tier, region, pop})
			if tier == TierRegional && up != Origin(tc.dp) {
				t.Errorf("regional wrap upstream is not the origin")
			}
			return up
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []wrapCall{
		{TierRegional, 0, -1}, {TierPoP, 0, 0}, {TierPoP, 0, 1},
		{TierRegional, 1, -1}, {TierPoP, 1, 0}, {TierPoP, 1, 1},
	}
	if fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Errorf("wrap calls = %v, want %v", calls, want)
	}
	if len(topo.regionals) != 2 || len(topo.pops[0]) != 2 {
		t.Errorf("shape = %d×%d, want 2×2", len(topo.regionals), len(topo.pops[0]))
	}
	if TierRegional.String() != "regional" || TierPoP.String() != "pop" {
		t.Errorf("tier names = %q/%q", TierRegional.String(), TierPoP.String())
	}
}

// TestTopologyStatsRollup cross-checks the roll-up against the individual
// edges it summarizes.
func TestTopologyStatsRollup(t *testing.T) {
	env := newHierarchy(t, 2, 2, 3, TopologyConfig{
		RegionalTTL: time.Minute,
		PoPTTL:      time.Minute,
	})
	for i := 0; i < 4; i++ {
		env.cycle(t, 5, 10*time.Second)
	}
	st := env.topo.Stats()
	var popSum, regSum EdgeStats
	for r, regional := range env.topo.regionals {
		regSum = regSum.add(regional.Stats())
		var regionPoPs EdgeStats
		for _, pop := range env.topo.pops[r] {
			regionPoPs = regionPoPs.add(pop.Stats())
		}
		popSum = popSum.add(regionPoPs)
		if st.PerRegion[r].PoP != regionPoPs {
			t.Errorf("region %d PoP roll-up = %+v, edges say %+v", r, st.PerRegion[r].PoP, regionPoPs)
		}
	}
	if st.PoP != popSum {
		t.Errorf("PoP tier roll-up = %+v, edges say %+v", st.PoP, popSum)
	}
	if st.Regional != regSum {
		t.Errorf("regional tier roll-up = %+v, edges say %+v", st.Regional, regSum)
	}
	if HitRate(EdgeStats{}) != 0 {
		t.Error("HitRate of zero traffic must be 0, not NaN")
	}
}
