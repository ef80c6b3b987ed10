package cdn

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ritm/internal/dictionary"
)

// PullMeta describes the cache disposition of a served pull response: the
// serving cache's TTL (zero when the server does not cache) and how long
// the entry has been sitting in that cache (zero on a miss). The HTTP
// layer derives the Cache-Control: max-age and Age headers from it, so a
// real CDN in front of an edge inherits the edge's freshness contract
// instead of heuristic caching.
type PullMeta struct {
	TTL time.Duration
	Age time.Duration
	// NegativeTTL is the serving cache's negative TTL (0 = negative
	// caching disabled). On an ErrUnknownCA response the HTTP layer
	// exports it as the error's max-age, so a front CDN absorbs an
	// unknown-CA storm for the same window the edge itself would.
	NegativeTTL time.Duration
}

// MetaOrigin is an Origin that reports cache metadata with each pull;
// EdgeServer implements it, and the HTTP handler upgrades to it when
// available.
type MetaOrigin interface {
	Origin
	PullWithMeta(ca dictionary.CAID, from uint64) (*PullResponse, PullMeta, error)
	// NegativeTTL reports the serving cache's unknown-CA negative TTL
	// (0 = disabled); the HTTP layer exports it on error responses of
	// endpoints that have no per-pull metadata (LatestRoot).
	NegativeTTL() time.Duration
}

// edgeMaxEntries bounds the edge cache (and its negative map). One entry
// per (CA, from) pair is live at a time per RA cohort, so even large
// multi-shard fleets stay far below this. When the cap is exceeded a sweep
// runs and, if expiry and stale-offset eviction are not enough, the oldest
// entries are dropped.
const edgeMaxEntries = 4096

// EdgeServer replicates an upstream Origin (the distribution point, or
// another edge in a hierarchy) with a pull-through TTL cache, the dominant
// CDN communication paradigm (§II "Content-Delivery Network"). A TTL of
// zero disables caching entirely, which is the worst-case configuration the
// paper measures in Fig 5 ("the content needs to be fetched from the origin
// server for every request").
//
// The cache key is (CA, from): two RAs at the same count receive the same
// bytes, which is what makes CDN dissemination scale with the number of
// RAs. Entries expire after the TTL, bounding staleness; the client-side 2∆
// policy tolerates exactly one period of such staleness (§V).
//
// The cache is bounded: a sweep (amortized over pulls, at most once per
// TTL unless the entry cap is exceeded) drops entries past their TTL and
// entries at stale from-offsets — once the fleet advances to a higher
// count for a CA, the superseded keys can never be pulled again by an
// up-to-date RA, so keeping them would leak memory proportional to
// revocation history × pull cadence. Concurrent misses for the same key
// are collapsed into one upstream fetch (singleflight), so an origin sees
// at most one pull per (CA, from) per TTL no matter how many RAs stampede.
//
// An optional negative cache (SetNegativeTTL) remembers ErrUnknownCA per
// CA: a misconfigured RA fleet polling a dictionary the origin does not
// carry costs the upstream at most one lookup per negative TTL instead of
// one per request. Negative entries have their own sweep cadence (the
// negative TTL, not the positive one) and never shadow a successful fetch:
// the first pull that succeeds deletes the entry.
type EdgeServer struct {
	upstream Origin
	ttl      time.Duration
	now      func() time.Time

	mu           sync.Mutex
	cache        map[edgeKey]*edgeEntry
	inflight     map[edgeKey]*edgeCall
	latest       map[dictionary.CAID]uint64    // highest live from per CA (clamped by origin count)
	negative     map[dictionary.CAID]time.Time // ErrUnknownCA entries: CA → expiry
	negTTL       time.Duration
	lastSweep    time.Time
	lastNegSweep time.Time
	maxEntries   int // edgeMaxEntries; in-package tests lower it
	stats        EdgeStats
}

type edgeKey struct {
	ca   dictionary.CAID
	from uint64
}

type edgeEntry struct {
	resp    *PullResponse
	fetched time.Time
}

// edgeCall is one in-flight upstream fetch; concurrent pulls for the same
// key park on done and share the result instead of stampeding the origin.
type edgeCall struct {
	done chan struct{}
	resp *PullResponse
	err  error
}

// NewEdgeServer creates an edge server caching upstream responses for ttl.
// A zero ttl disables caching. now is the cache clock (nil = time.Now).
func NewEdgeServer(upstream Origin, ttl time.Duration, now func() time.Time) *EdgeServer {
	if now == nil {
		now = time.Now
	}
	return &EdgeServer{
		upstream:   upstream,
		ttl:        ttl,
		now:        now,
		cache:      make(map[edgeKey]*edgeEntry),
		inflight:   make(map[edgeKey]*edgeCall),
		latest:     make(map[dictionary.CAID]uint64),
		negative:   make(map[dictionary.CAID]time.Time),
		maxEntries: edgeMaxEntries,
	}
}

// SetNegativeTTL enables negative caching of ErrUnknownCA for d (0, the
// default, disables it). While a negative entry is live every pull or root
// request for that CA is answered locally with ErrUnknownCA — the upstream
// sees at most one unknown-CA lookup per d per edge, so a misconfigured
// fleet cannot convert its request rate into origin load. Choose d like a
// DNS negative TTL: long enough to absorb a storm, short enough that a
// freshly registered CA is picked up promptly.
func (e *EdgeServer) SetNegativeTTL(d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d < 0 {
		d = 0
	}
	e.negTTL = d
	if d == 0 {
		e.negative = make(map[dictionary.CAID]time.Time)
	}
}

var _ Origin = (*EdgeServer)(nil)
var _ MetaOrigin = (*EdgeServer)(nil)

// Pull implements Origin with pull-through caching and singleflight miss
// collapsing.
func (e *EdgeServer) Pull(ca dictionary.CAID, from uint64) (*PullResponse, error) {
	resp, _, err := e.PullWithMeta(ca, from)
	return resp, err
}

// PullWithMeta implements MetaOrigin: Pull plus the cache disposition of
// the response (the edge's TTL and the entry's age), which the HTTP layer
// turns into Cache-Control: max-age and Age headers.
func (e *EdgeServer) PullWithMeta(ca dictionary.CAID, from uint64) (*PullResponse, PullMeta, error) {
	meta := PullMeta{TTL: e.ttl}
	if e.ttl <= 0 {
		// Caching disabled (the Fig 5 worst case): every request reaches
		// the origin, including concurrent ones — that is the point of the
		// configuration, so no singleflight either. The negative cache is a
		// separate, explicit opt-in and still applies: an unknown-CA storm
		// is operator misconfiguration, not a workload to measure.
		e.mu.Lock()
		meta.NegativeTTL = e.negTTL
		if e.negativeHitLocked(ca, e.now()) {
			e.stats.NegativeHits++
			e.mu.Unlock()
			return nil, meta, negativeErr(ca)
		}
		e.mu.Unlock()
		resp, err := e.upstream.Pull(ca, from)
		if err != nil {
			e.mu.Lock()
			e.stats.Errors++
			e.recordUnknownCALocked(ca, e.now(), err)
			e.mu.Unlock()
			return nil, meta, fmt.Errorf("edge pull: %w", err)
		}
		size := int64(resp.Size())
		e.mu.Lock()
		e.stats.Misses++
		e.stats.BytesServed += size
		e.stats.BytesFetched += size
		e.mu.Unlock()
		return resp, meta, nil
	}

	key := edgeKey{ca: ca, from: from}
	now := e.now()

	e.mu.Lock()
	meta.NegativeTTL = e.negTTL
	e.maybeSweepLocked(now)
	// Positive entries win over negative ones: a live cached response is
	// proof the CA's dictionary exists and is fresher than whatever
	// failure recorded the negative entry (e.g. a LatestRoot against an
	// origin mid-restart). Serving ErrUnknownCA while holding the CA's
	// data would break the "never shadow a successful fetch" contract.
	if ent, ok := e.cache[key]; ok && now.Sub(ent.fetched) < e.ttl {
		e.stats.Hits++
		e.stats.BytesServed += int64(ent.resp.Size())
		resp := ent.resp
		meta.Age = now.Sub(ent.fetched)
		e.mu.Unlock()
		return resp, meta, nil
	}
	if e.negativeHitLocked(ca, now) {
		e.stats.NegativeHits++
		e.mu.Unlock()
		return nil, meta, negativeErr(ca)
	}
	if call, ok := e.inflight[key]; ok {
		// Someone else is already fetching this key: park and share.
		e.mu.Unlock()
		<-call.done
		if call.err != nil {
			e.mu.Lock()
			e.stats.Errors++
			e.mu.Unlock()
			return nil, meta, call.err
		}
		e.mu.Lock()
		e.stats.CollapsedPulls++
		e.stats.BytesServed += int64(call.resp.Size())
		e.mu.Unlock()
		return call.resp, meta, nil
	}
	call := &edgeCall{done: make(chan struct{})}
	e.inflight[key] = call
	e.mu.Unlock()

	resp, err := e.upstream.Pull(ca, from)
	var size int64
	if err != nil {
		call.err = fmt.Errorf("edge pull: %w", err)
	} else {
		call.resp = resp
		// Serialize (memoize) outside the lock: a large suffix takes
		// milliseconds to encode and must not block concurrent hits.
		size = int64(resp.Size())
	}

	e.mu.Lock()
	delete(e.inflight, key)
	if err != nil {
		e.stats.Errors++
		e.recordUnknownCALocked(ca, now, err)
	} else {
		delete(e.negative, ca)
		e.stats.Misses++
		e.stats.BytesServed += size
		e.stats.BytesFetched += size
		// Stamp with the post-fetch clock: dating the entry before the
		// upstream round trip would shorten its effective TTL by the
		// fetch latency.
		e.cache[key] = &edgeEntry{resp: resp, fetched: e.now()}
		if from > e.latest[ca] {
			e.latest[ca] = from
		}
		// The served root's count bounds what the origin can answer: after
		// an origin regression (restart with a shorter history — the
		// scenario ra.Resync recovers from) a monotone high-water mark
		// would keep sweeping the fleet's new, lower-from entries forever.
		// Clamp it so post-regression keys are live again; the dead
		// higher-from entries age out by TTL.
		originN := from
		if resp.Issuance != nil && resp.Issuance.Root != nil {
			originN = resp.Issuance.Root.N
		}
		if e.latest[ca] > originN {
			e.latest[ca] = originN
		}
		if len(e.cache) > e.maxEntries {
			e.sweepLocked(now)
		}
	}
	e.mu.Unlock()
	close(call.done)

	if err != nil {
		return nil, meta, call.err
	}
	return resp, meta, nil
}

// negativeErr is the error served from the negative cache. It wraps
// ErrUnknownCA so errors.Is-based callers (and the HTTP error mapping)
// treat it exactly like an origin miss.
func negativeErr(ca dictionary.CAID) error {
	return fmt.Errorf("edge: %w: %s (negative cache)", ErrUnknownCA, ca)
}

// negativeHitLocked reports whether a live negative entry covers ca.
// Expired entries found on the way are dropped. Caller holds mu.
func (e *EdgeServer) negativeHitLocked(ca dictionary.CAID, now time.Time) bool {
	if e.negTTL <= 0 {
		return false
	}
	e.maybeSweepNegativeLocked(now)
	until, ok := e.negative[ca]
	if !ok {
		return false
	}
	if !now.Before(until) {
		delete(e.negative, ca)
		return false
	}
	return true
}

// recordUnknownCALocked caches an upstream ErrUnknownCA for the negative
// TTL; other errors are not cached (a flaky upstream must be retried, not
// remembered). The map is bounded by the same cap as the positive cache:
// a flood of attacker-minted unique CA ids must not grow memory without
// limit, and caching a never-repeated id has no value anyway — at the
// cap, new ids are simply not remembered (existing entries keep
// absorbing their storms) until the sweep frees room. Caller holds mu.
func (e *EdgeServer) recordUnknownCALocked(ca dictionary.CAID, now time.Time, err error) {
	if e.negTTL <= 0 || !errors.Is(err, ErrUnknownCA) {
		return
	}
	if _, exists := e.negative[ca]; !exists && len(e.negative) >= e.maxEntries {
		e.lastNegSweep = time.Time{} // force the sweep to run now
		e.maybeSweepNegativeLocked(now)
		if len(e.negative) >= e.maxEntries {
			return
		}
	}
	e.negative[ca] = now.Add(e.negTTL)
}

// maybeSweepNegativeLocked drops expired negative entries, at most once
// per negative TTL — the negative cache's own cadence, independent of the
// positive sweep (the TTLs usually differ). Caller holds mu.
func (e *EdgeServer) maybeSweepNegativeLocked(now time.Time) {
	if e.negTTL <= 0 || now.Sub(e.lastNegSweep) < e.negTTL {
		return
	}
	e.lastNegSweep = now
	for ca, until := range e.negative {
		if !now.Before(until) {
			delete(e.negative, ca)
			e.stats.NegativeEvictions++
		}
	}
}

// maybeSweepLocked runs an eviction sweep when one is due: at most once
// per TTL in the steady state, immediately when the entry cap is blown.
// Caller holds mu.
func (e *EdgeServer) maybeSweepLocked(now time.Time) {
	if now.Sub(e.lastSweep) < e.ttl && len(e.cache) <= e.maxEntries {
		return
	}
	e.sweepLocked(now)
}

// sweepLocked drops expired entries and entries at stale from-offsets
// (superseded by a higher cached from for the same CA — the fleet has
// advanced, so those keys are dead). If the cache is still over the cap,
// the oldest entries go too — down to 90% of the cap, so a workload whose
// live keys exceed the cap pays the O(n log n) age sort once per ~cap/10
// inserts instead of on every miss. Stale-offset bookkeeping for CAs with
// no remaining entries (rotated-out expiry shards) is pruned so the edge
// holds no per-CA state for dictionaries it no longer serves. Caller
// holds mu.
func (e *EdgeServer) sweepLocked(now time.Time) {
	e.lastSweep = now
	for k, ent := range e.cache {
		if now.Sub(ent.fetched) >= e.ttl || k.from < e.latest[k.ca] {
			delete(e.cache, k)
			e.stats.Evictions++
		}
	}
	if over := len(e.cache) - (e.maxEntries - e.maxEntries/10); over > 0 && len(e.cache) > e.maxEntries {
		type aged struct {
			key     edgeKey
			fetched time.Time
		}
		entries := make([]aged, 0, len(e.cache))
		for k, ent := range e.cache {
			entries = append(entries, aged{k, ent.fetched})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].fetched.Before(entries[j].fetched) })
		for _, a := range entries[:over] {
			delete(e.cache, a.key)
			e.stats.Evictions++
		}
	}
	live := make(map[dictionary.CAID]struct{}, len(e.latest))
	for k := range e.cache {
		live[k.ca] = struct{}{}
	}
	for ca := range e.latest {
		if _, ok := live[ca]; !ok {
			delete(e.latest, ca)
		}
	}
}

// LatestRoot implements Origin. Roots are not positively cached, so
// consistency checking always observes the origin's current view (stale
// roots would produce false equivocation alarms). The negative cache
// applies: an unknown CA stays unknown for the negative TTL regardless of
// which endpoint asks, and there is no staleness to mis-serve.
func (e *EdgeServer) LatestRoot(ca dictionary.CAID) (*dictionary.SignedRoot, error) {
	now := e.now()
	e.mu.Lock()
	if e.negativeHitLocked(ca, now) {
		e.stats.NegativeHits++
		e.mu.Unlock()
		return nil, negativeErr(ca)
	}
	e.mu.Unlock()
	root, err := e.upstream.LatestRoot(ca)
	if err != nil {
		e.mu.Lock()
		e.recordUnknownCALocked(ca, e.now(), err)
		e.mu.Unlock()
		return nil, err
	}
	return root, nil
}

// CAs implements Origin.
func (e *EdgeServer) CAs() ([]dictionary.CAID, error) { return e.upstream.CAs() }

// Flush drops every cached entry, positive and negative (operator action,
// a restart in the scenario tests, or tests moving virtual time
// backwards). In-flight fetches complete and repopulate the cache.
func (e *EdgeServer) Flush() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cache = make(map[edgeKey]*edgeEntry)
	e.latest = make(map[dictionary.CAID]uint64)
	e.negative = make(map[dictionary.CAID]time.Time)
}

// NegativeTTL implements MetaOrigin.
func (e *EdgeServer) NegativeTTL() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.negTTL
}

// EdgeStats counts edge-server activity.
type EdgeStats struct {
	Hits   int
	Misses int
	// CollapsedPulls counts pulls served by joining another puller's
	// in-flight upstream fetch for the same (CA, from) — requests the
	// origin never saw. A fleet syncing in lockstep shows up here.
	CollapsedPulls int
	// Evictions counts cache entries dropped by sweeps (TTL expiry, stale
	// from-offsets, or the entry cap).
	Evictions int
	// Errors counts pulls that returned an upstream error to their caller
	// (leader fetches, parked waiters sharing a failed fetch, and uncached
	// pulls alike) — without it, hit-rate metrics read 100%-healthy during
	// an upstream outage in which zero requests succeed. Requests answered
	// from the negative cache count as NegativeHits, not Errors: the
	// upstream was deliberately not consulted.
	Errors int
	// NegativeHits counts requests answered with ErrUnknownCA from the
	// negative cache — unknown-CA traffic the upstream never saw.
	NegativeHits int
	// NegativeEvictions counts negative entries dropped by their sweep.
	NegativeEvictions int
	// NegativeEntries is the number of live negative entries at the time
	// Stats was called.
	NegativeEntries int
	// Entries is the number of live cache entries at the time Stats was
	// called; eviction tests assert it stays O(live keys).
	Entries      int
	BytesServed  int64 // toward RAs
	BytesFetched int64 // from upstream
}

// add returns per-field sums of two stat snapshots; topology roll-ups use
// it to report a whole tier as one ledger.
func (s EdgeStats) add(o EdgeStats) EdgeStats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.CollapsedPulls += o.CollapsedPulls
	s.Evictions += o.Evictions
	s.Errors += o.Errors
	s.NegativeHits += o.NegativeHits
	s.NegativeEvictions += o.NegativeEvictions
	s.NegativeEntries += o.NegativeEntries
	s.Entries += o.Entries
	s.BytesServed += o.BytesServed
	s.BytesFetched += o.BytesFetched
	return s
}

// Stats returns a copy of the edge's counters.
func (e *EdgeServer) Stats() EdgeStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Entries = len(e.cache)
	st.NegativeEntries = len(e.negative)
	return st
}
