package ra

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ritm/internal/cdn"
	"ritm/internal/cert"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// Config configures a Revocation Agent.
type Config struct {
	// Roots are the trusted CA certificates whose dictionaries the RA
	// replicates.
	Roots []*cert.Certificate
	// Origin is the dissemination endpoint the RA pulls from (normally an
	// edge server; cdn.HTTPClient for a remote one).
	Origin cdn.Origin
	// Origins, when non-empty, is the RA's multi-origin source list: an
	// ordered set of failover candidates (preferred first — e.g. the
	// nearest edge, then a follower origin, then a remote region). The RA
	// wraps them in a cdn failover origin that demotes dead or behind
	// candidates and converges on whichever one answers; combined with
	// the ErrAhead→Resync machinery this is what survives a leader crash
	// plus follower promotion without operator action. When Origin is
	// also set it becomes the first candidate.
	Origins []cdn.Origin
	// FailoverCooldown is how long a demoted candidate from Origins stays
	// skipped before being probed again (0 = cdn.DefaultFailoverCooldown).
	FailoverCooldown time.Duration
	// Delta is the pull interval ∆. Zero selects 10 seconds, the smallest
	// value the paper analyzes.
	Delta time.Duration
	// ChainProofs enables the §VIII "Certificate chains" extension: the RA
	// injects one revocation status per certificate of the server chain
	// (for every issuer it replicates) instead of the leaf's status only.
	ChainProofs bool
	// Layout must be LayoutSorted (the zero value); New refuses any other.
	//
	// Deprecated: the sorted hash tree is the only commitment. The field
	// exists only so that the frozen benchmark harness (bench/) keeps
	// compiling.
	Layout dictionary.LayoutKind
	// Storage, when non-nil, persists every replica (WAL of verified
	// update batches + periodic checkpoints) and warm-starts them on
	// construction: a restarted RA resumes at its persisted count and the
	// first pull fetches only the missed suffix, instead of re-downloading
	// the whole dictionary. Nil (the default) keeps the RA purely
	// in-memory.
	Storage storage.Backend
	// CheckpointEvery is the number of persisted update batches between
	// checkpoint snapshots (0 = ra.DefaultCheckpointEvery). Smaller values
	// bound recovery replay tighter; larger values amortize the
	// O(dictionary) checkpoint write over more syncs.
	CheckpointEvery int
	// SharedData runs the RA as a read-only co-located reader: instead of
	// pulling from an origin and owning replicas, it maps the checkpoints
	// a writer RA (same Storage directory, normal configuration) installs
	// and serves statuses from the mapping — one writer process pays the
	// heap and the sync traffic, every additional RA on the machine costs
	// only shared page-cache residency. Requires Storage (implementing
	// storage.Mapper); Origin becomes optional and is ignored. The sync
	// loop (SyncOnce / the fetcher) polls the writer's stamp instead of
	// pulling.
	SharedData bool
	// Now is the clock (nil = time.Now); experiments inject virtual time.
	Now func() time.Time
}

// RA is a Revocation Agent. It is safe for concurrent use: the data path
// (proxy goroutines, one per connection direction) shares no locks — the
// status cache and the resumption table are sharded, the dictionary store
// is read through atomic snapshots, and the activity counters are
// atomics.
type RA struct {
	store       *Store
	origin      cdn.Origin
	delta       time.Duration
	chainProofs bool
	now         func() time.Time
	table       *Table
	sessions    *sessionTable // resumption cache: session ID / ticket → identities
	stats       proxyCounters
}

// connIdentity is what the RA must remember about a TLS session to support
// abbreviated handshakes, where no certificate crosses the wire: the CA
// (dictionary selector) and serial number of the server certificate.
type connIdentity struct {
	ca dictionary.CAID
	sn serial.Number
}

// New creates a Revocation Agent.
func New(cfg Config) (*RA, error) {
	if len(cfg.Origins) > 0 {
		candidates := cfg.Origins
		if cfg.Origin != nil {
			candidates = append([]cdn.Origin{cfg.Origin}, candidates...)
		}
		failover, err := cdn.NewFailoverOrigin(candidates, cdn.ShardedOriginOptions{
			Cooldown: cfg.FailoverCooldown,
			Now:      cfg.Now,
		})
		if err != nil {
			return nil, fmt.Errorf("ra: %w", err)
		}
		cfg.Origin = failover
	}
	if cfg.Origin == nil && !cfg.SharedData {
		return nil, fmt.Errorf("ra: config missing dissemination origin")
	}
	if cfg.Delta == 0 {
		cfg.Delta = 10 * time.Second
	}
	if cfg.Delta < time.Second {
		return nil, fmt.Errorf("ra: ∆ = %v, must be at least one second", cfg.Delta)
	}
	if cfg.Layout != dictionary.LayoutSorted {
		return nil, fmt.Errorf("ra: layout %v is not supported", cfg.Layout)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	store, err := NewStoreWithOptions(StoreOptions{
		Storage:         cfg.Storage,
		CheckpointEvery: cfg.CheckpointEvery,
		SharedData:      cfg.SharedData,
		Now:             cfg.Now,
	}, cfg.Roots...)
	if err != nil {
		return nil, err
	}
	return &RA{
		store:       store,
		origin:      cfg.Origin,
		delta:       cfg.Delta,
		chainProofs: cfg.ChainProofs,
		now:         cfg.Now,
		table:       NewTable(),
		sessions:    newSessionTable(),
	}, nil
}

// Store exposes the RA's dictionary store.
func (ra *RA) Store() *Store { return ra.store }

// Table exposes the RA's DPI connection table.
func (ra *RA) Table() *Table { return ra.table }

// Delta returns the RA's pull interval.
func (ra *RA) Delta() time.Duration { return ra.delta }

// SyncOnce performs one pull cycle over every replicated CA: it requests
// the suffix after its local count, applies the issuance message and the
// freshness statement, and returns the first error encountered (after
// attempting all CAs). The request shape makes desynchronization recovery
// automatic: a lagging replica simply receives a longer suffix (§III).
func (ra *RA) SyncOnce() error {
	var firstErr error
	for _, ca := range ra.store.CAs() {
		if err := ra.syncCA(ca); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (ra *RA) syncCA(ca dictionary.CAID) error {
	// Shared-mode dictionaries sync against the writer's durable state,
	// not the network: one stamp poll, a re-map when the writer moved.
	if d, ok := ra.store.sharedFor(ca); ok {
		return ra.store.refreshShared(d)
	}
	replica, err := ra.store.Replica(ca)
	if err != nil {
		return err
	}
	resp, err := ra.origin.Pull(ca, replica.Count())
	if err != nil {
		return fmt.Errorf("ra: pull %s: %w", ca, err)
	}
	if resp.Issuance != nil {
		// applyUpdate also WALs the verified update when a storage backend
		// is configured. An update error is an attack signal, not a
		// transient failure: the network delivered a message whose signed
		// root does not match its own content (§V).
		if err := ra.store.applyUpdate(ca, replica, resp.Issuance); err != nil {
			return fmt.Errorf("ra: update %s: %w", ca, err)
		}
	}
	if resp.Freshness != nil {
		// applyFreshness WAL-appends the adopted statement so co-located
		// shared-data readers stay fresh between checkpoints.
		if err := ra.store.applyFreshness(ca, replica, resp.Freshness, ra.now().Unix()); err != nil &&
			!errors.Is(err, dictionary.ErrStale) {
			return fmt.Errorf("ra: freshness %s: %w", ca, err)
		}
	}
	return nil
}

// Status produces the revocation status for (ca, sn) from the RA's
// replica, served from the per-∆ status cache when the dictionary
// snapshot is unchanged. The status carries sn as its subject so that
// clients receiving several chain statuses can route each to the right
// certificate (§VIII). The result is shared with other callers and must
// be treated as immutable.
func (ra *RA) Status(ca dictionary.CAID, sn serial.Number) (*dictionary.Status, error) {
	st, _, err := ra.store.Status(ca, sn)
	return st, err
}

// StatusEncoded is Status plus the memoized wire encoding — the proxy's
// injection path, which writes the encoding straight into the TLS-sim
// stream without re-serializing. The bytes are shared; do not modify.
func (ra *RA) StatusEncoded(ca dictionary.CAID, sn serial.Number) (*dictionary.Status, []byte, error) {
	return ra.store.Status(ca, sn)
}

// rememberSession records the identities behind a resumption handle
// (session ID or ticket bytes), observed in plaintext during a full
// handshake, so that abbreviated handshakes can still be supported (§III
// "RITM supports two mechanisms of TLS resumption"). With chain proofs
// enabled the whole chain's identities are remembered.
func (ra *RA) rememberSession(handle []byte, ids []connIdentity) {
	ra.sessions.remember(handle, ids)
}

// lookupSession resolves a resumption handle to certificate identities.
func (ra *RA) lookupSession(handle []byte) ([]connIdentity, bool) {
	return ra.sessions.lookup(handle)
}

// Resync rebuilds the replica of ca from the origin's current state: a
// fresh replica (same CA, same trust anchor) is synchronized from count 0
// off to the side and, only once it verifies, swapped into the store
// atomically. This is the recovery path for cdn.ErrAhead — the origin
// holds fewer revocations than we do, typically because it was restarted
// and re-fed a shorter (but still CA-signed) history; without recovery
// every subsequent pull errors forever.
//
// Security: the replacement accepts only messages whose signed root
// verifies against the same trust anchor as before, so a malicious origin
// cannot use this path to inject state it could not also have served to a
// freshly booted RA. What it can do is serve an older-but-valid view; the
// client-side 2∆ freshness policy converts that staleness into connection
// interruption, exactly as for any stale dissemination (§V).
//
// The swap only happens when the rebuilt history is genuinely shorter
// than the current one; a rebuild at least as long means the origin
// caught back up (normal sync resumes next cycle) or an edge cache served
// a stale pre-restart response, and is reported as an error instead of
// swapped.
func (ra *RA) Resync(ca dictionary.CAID) error {
	old, err := ra.store.Replica(ca)
	if err != nil {
		return err
	}
	// The replacement inherits the old replica's trust anchor.
	fresh := dictionary.NewReplica(ca, old.PublicKey())
	resp, err := ra.origin.Pull(ca, 0)
	if err != nil {
		return fmt.Errorf("ra: resync %s: %w", ca, err)
	}
	if resp.Issuance != nil {
		if err := fresh.Update(resp.Issuance); err != nil {
			return fmt.Errorf("ra: resync %s: %w", ca, err)
		}
	}
	if resp.Freshness != nil {
		if err := fresh.ApplyFreshness(resp.Freshness, ra.now().Unix()); err != nil &&
			!errors.Is(err, dictionary.ErrStale) {
			return fmt.Errorf("ra: resync %s: %w", ca, err)
		}
	}
	// Never trade a verifiable dictionary for a rootless one: an origin
	// that was restarted but not yet re-fed by its CA answers (ca, 0) with
	// an empty response, and the trigger (ErrAhead + empty body) is
	// entirely unsigned — swapping would let a malicious edge wipe RA
	// state on demand, and even an honest race would turn every status
	// into ErrDesynchronized seconds before the CA re-publishes. Keep the
	// old replica (its statuses stay verifiable within the client's 2∆
	// tolerance) and retry next cycle.
	if fresh.Root() == nil {
		return fmt.Errorf("ra: resync %s: origin has no published root yet; keeping current replica", ca)
	}
	// Resync exists to adopt a SHORTER origin history. Receiving one at
	// least as long as ours means either the origin already caught back up
	// (the normal suffix pull will succeed next cycle) or an edge cache
	// served a stale pre-restart (ca, 0) response — swapping that in would
	// reinstate the exact state that produced ErrAhead and livelock the
	// recovery (purging the status cache every cycle) until the entry
	// expires. Either way: don't swap, report, retry next cycle.
	if fresh.Count() >= old.Count() {
		return fmt.Errorf("ra: resync %s: origin returned %d revocations, not behind our %d (stale edge cache or origin recovered); deferring",
			ca, fresh.Count(), old.Count())
	}
	return ra.store.ReplaceReplica(ca, fresh)
}

// FetcherOptions configures the RA's background pull loop. The zero value
// is a production-reasonable fetcher: sync every ∆ starting immediately,
// recover from origin restarts, no jitter, no shard expiry.
type FetcherOptions struct {
	// Interval is the pull cadence (0 = the RA's ∆). Pulling more often
	// than ∆ satisfies the protocol ("at least every ∆", §III) and
	// tightens the freshness of injected statuses.
	Interval time.Duration
	// Jitter, when positive, delays each CA's pull within a cycle by a
	// uniformly random duration in [0, Jitter). A fleet of RAs started
	// together otherwise pulls every dictionary at the same instants,
	// turning every ∆ boundary into a synchronized stampede; jitter smears
	// the load across the interval. CAs sync concurrently within a cycle,
	// so the per-CA draw is clamped to Interval (not Interval/n): the
	// cycle's worst-case length is one interval — the "at least every ∆"
	// contract (§III) degrades to at most one skipped tick, never
	// unbounded drift, no matter how many shard dictionaries the RA
	// replicates. Pair jitter with Interval ≤ ∆/2 for strict compliance.
	Jitter time.Duration
	// OnError receives sync errors (nil = dropped). Recovery from
	// cdn.ErrAhead happens before OnError is consulted; only errors that
	// survive recovery are reported. CAs sync concurrently, so OnError
	// must be safe for concurrent use.
	OnError func(error)
	// ShardExpiry, when positive, runs Store.RemoveExpired with this
	// bucket width after every sync cycle, dropping expiry shards whose
	// certificates have all expired (§VIII "Ever-growing dictionaries").
	// Use the same width the CAs shard with (dictionary.ShardConfig.Width).
	ShardExpiry time.Duration
	// DisableRecovery turns off the automatic Resync on cdn.ErrAhead;
	// such errors then surface through OnError on every cycle, which is
	// only useful for deployments that treat an origin regression as an
	// incident requiring operator action.
	DisableRecovery bool
}

// fetcherSeq distinguishes jitter seeds of fetchers started in the same
// nanosecond (a fleet booted in one process).
var fetcherSeq atomic.Int64

// Fetcher is the RA's background pull loop.
type Fetcher struct {
	stop chan struct{}
	done chan struct{}

	stats fetcherCounters
}

// fetcherCounters is the backing store for FetcherStats: lock-free
// totals plus a small mutex-guarded map for the per-CA consecutive
// failure streaks (touched once per CA per cycle, so the lock is cold).
type fetcherCounters struct {
	syncs         atomic.Int64
	errors        atomic.Int64
	recoveries    atomic.Int64
	shardsExpired atomic.Int64

	mu          sync.Mutex
	consecutive map[dictionary.CAID]int64
}

// caFailed records a failed sync for ca, returning the streak length.
func (c *fetcherCounters) caFailed(ca dictionary.CAID) int64 {
	c.errors.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.consecutive == nil {
		c.consecutive = make(map[dictionary.CAID]int64)
	}
	c.consecutive[ca]++
	return c.consecutive[ca]
}

// caSynced resets ca's failure streak after a successful sync.
func (c *fetcherCounters) caSynced(ca dictionary.CAID) {
	c.mu.Lock()
	delete(c.consecutive, ca)
	c.mu.Unlock()
}

// FetcherStats counts fetcher-lifecycle activity.
type FetcherStats struct {
	// Syncs counts completed sync cycles (all CAs attempted).
	Syncs int64
	// Errors counts per-CA sync failures that survived recovery.
	Errors int64
	// Recoveries counts automatic Resync attempts triggered by
	// cdn.ErrAhead.
	Recoveries int64
	// ShardsExpired counts expiry shards dropped by the ShardExpiry sweep.
	ShardsExpired int64
	// ConsecutiveFailures maps each currently-failing CA to its streak of
	// consecutive failed syncs. A CA that syncs successfully is removed,
	// so the map holds only CAs that are behind right now — the signal an
	// operator alerts on (one unhealthy origin shard must not hide behind
	// the healthy ones in an aggregate counter).
	ConsecutiveFailures map[dictionary.CAID]int64
}

// Stats returns a copy of the fetcher's counters.
func (f *Fetcher) Stats() FetcherStats {
	st := FetcherStats{
		Syncs:         f.stats.syncs.Load(),
		Errors:        f.stats.errors.Load(),
		Recoveries:    f.stats.recoveries.Load(),
		ShardsExpired: f.stats.shardsExpired.Load(),
	}
	f.stats.mu.Lock()
	if len(f.stats.consecutive) > 0 {
		st.ConsecutiveFailures = make(map[dictionary.CAID]int64, len(f.stats.consecutive))
		for ca, n := range f.stats.consecutive {
			st.ConsecutiveFailures[ca] = n
		}
	}
	f.stats.mu.Unlock()
	return st
}

// StartFetcher launches the pull loop, contacting the origin every ∆.
// Errors go to onErr (may be nil).
func (ra *RA) StartFetcher(onErr func(error)) *Fetcher {
	return ra.StartFetcherWith(FetcherOptions{OnError: onErr})
}

// StartFetcherEvery launches the pull loop at a custom interval.
func (ra *RA) StartFetcherEvery(interval time.Duration, onErr func(error)) *Fetcher {
	return ra.StartFetcherWith(FetcherOptions{Interval: interval, OnError: onErr})
}

// StartFetcherWith launches the pull loop with full lifecycle control. The
// first sync runs immediately (a freshly started RA must not serve
// ErrDesynchronized statuses for a whole interval waiting for the first
// tick), then every Interval.
func (ra *RA) StartFetcherWith(opts FetcherOptions) *Fetcher {
	interval := opts.Interval
	if interval <= 0 {
		interval = ra.delta
	}
	f := &Fetcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		// Jitter source: per-fetcher, so a fleet sharing one binary still
		// draws independent offsets.
		rng := mrand.New(mrand.NewSource(time.Now().UnixNano() + fetcherSeq.Add(1)<<32))
		ra.syncCycle(f, opts, interval, rng)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				ra.syncCycle(f, opts, interval, rng)
			case <-f.stop:
				return
			}
		}
	}()
	return f
}

// syncCycle runs one fetcher cycle: every CA pulled concurrently (with
// optional per-CA jitter), ErrAhead recovery, then the shard-expiry
// sweep. CAs sync in independent goroutines so one CA's slow or failed
// pull — a hung origin shard, a long Resync — cannot delay the other
// CAs' freshness within the same tick; the errors of each are isolated
// and counted per CA (see FetcherStats.ConsecutiveFailures).
func (ra *RA) syncCycle(f *Fetcher, opts FetcherOptions, interval time.Duration, rng *mrand.Rand) {
	cas := ra.store.CAs()
	jitter := opts.Jitter
	if jitter > interval {
		// Clamp so the cycle's worst-case length stays within one interval
		// (see FetcherOptions.Jitter).
		jitter = interval
	}
	var wg sync.WaitGroup
	for _, ca := range cas {
		// Draw the jitter here: rng is not goroutine-safe, and the draws
		// must stay on the loop goroutine anyway for determinism of the
		// seed sequence.
		var delay time.Duration
		if jitter > 0 {
			delay = time.Duration(rng.Int63n(int64(jitter)))
		}
		wg.Add(1)
		go func(ca dictionary.CAID, delay time.Duration) {
			defer wg.Done()
			if delay > 0 {
				timer := time.NewTimer(delay)
				select {
				case <-timer.C:
				case <-f.stop:
					timer.Stop()
					return
				}
			}
			err := ra.syncCA(ca)
			if err != nil && errors.Is(err, cdn.ErrAhead) && !opts.DisableRecovery {
				f.stats.recoveries.Add(1)
				err = ra.Resync(ca)
			}
			if err != nil {
				f.stats.caFailed(ca)
				if opts.OnError != nil {
					opts.OnError(err)
				}
				return
			}
			f.stats.caSynced(ca)
		}(ca, delay)
	}
	wg.Wait()
	f.stats.syncs.Add(1)
	if opts.ShardExpiry > 0 {
		removed := ra.store.RemoveExpired(ra.now().Unix(), opts.ShardExpiry)
		f.stats.shardsExpired.Add(int64(len(removed)))
	}
}

// Shutdown stops the fetcher and waits for it to exit.
func (f *Fetcher) Shutdown() {
	close(f.stop)
	<-f.done
}

// ProxyStats counts the RA's data-path activity (§VII-D throughput).
type ProxyStats struct {
	// ConnectionsTotal counts accepted connections.
	ConnectionsTotal int64
	// ConnectionsSupported counts RITM-supported TLS connections.
	ConnectionsSupported int64
	// RecordsInspected counts TLS records classified by DPI.
	RecordsInspected int64
	// NonTLSConnections counts connections handled as transparent byte pipes.
	NonTLSConnections int64
	// StatusesInjected counts revocation-status records added to streams.
	StatusesInjected int64
	// StatusesForwarded counts upstream-RA statuses forwarded unchanged
	// (the multiple-RA rule of §VIII).
	StatusesForwarded int64
	// StatusesReplaced counts upstream-RA statuses replaced by fresher ones.
	StatusesReplaced int64
	// SpliceErrors counts non-benign data-path errors absorbed while
	// splicing proxied bytes (e.g. a peer reset mid-stream). The seed's
	// proxy swallowed these entirely; they now also reach SetOnError.
	SpliceErrors int64
	// ConnectionsBumped counts real-TLS connections terminated by the
	// RA's interceptor (ra.RA.NewInterceptor) after a clean status check.
	ConnectionsBumped int64
	// ConnectionsRefused counts real-TLS connections the interceptor
	// refused because the upstream leaf is revoked in the dictionary.
	ConnectionsRefused int64
}

// proxyCounters is the lock-free backing store for ProxyStats. The seed
// kept these under the RA's global mutex, which put a lock acquisition on
// every inspected record; per-counter atomics cost one uncontended
// instruction instead.
type proxyCounters struct {
	connectionsTotal     atomic.Int64
	connectionsSupported atomic.Int64
	recordsInspected     atomic.Int64
	nonTLSConnections    atomic.Int64
	statusesInjected     atomic.Int64
	statusesForwarded    atomic.Int64
	statusesReplaced     atomic.Int64
	spliceErrors         atomic.Int64
	connectionsBumped    atomic.Int64
	connectionsRefused   atomic.Int64
}

// Stats returns a copy of the RA's data-path counters. Each counter is
// read atomically; the copy is not a single consistent cut across
// counters, which no caller needs.
func (ra *RA) Stats() ProxyStats {
	return ProxyStats{
		ConnectionsTotal:     ra.stats.connectionsTotal.Load(),
		ConnectionsSupported: ra.stats.connectionsSupported.Load(),
		RecordsInspected:     ra.stats.recordsInspected.Load(),
		NonTLSConnections:    ra.stats.nonTLSConnections.Load(),
		StatusesInjected:     ra.stats.statusesInjected.Load(),
		StatusesForwarded:    ra.stats.statusesForwarded.Load(),
		StatusesReplaced:     ra.stats.statusesReplaced.Load(),
		SpliceErrors:         ra.stats.spliceErrors.Load(),
		ConnectionsBumped:    ra.stats.connectionsBumped.Load(),
		ConnectionsRefused:   ra.stats.connectionsRefused.Load(),
	}
}

// CacheStats reports the RA's status-cache effectiveness.
func (ra *RA) CacheStats() CacheStats { return ra.store.CacheStats() }
