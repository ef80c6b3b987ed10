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
	// edge server; cdn.HTTPClient for a remote one). Several candidates —
	// the nearest edge, a follower origin, a remote region — go behind
	// one single-shard cdn.NewShardedOrigin, which demotes dead or behind
	// candidates; with the ErrAhead→Resync recovery that survives a leader crash plus
	// follower promotion without operator action.
	Origin cdn.Origin
	// Delta is the RA's ∆: its pull cadence until a CA's first signed root
	// arrives, and the bound on Jitter; afterwards each CA is pulled on its
	// root's own period grid. Zero selects 10 seconds, the smallest value
	// the paper analyzes.
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
	// checkpoint snapshots (0 = dictionary.DefaultCheckpointEvery).
	// Smaller values bound recovery replay tighter; larger values amortize
	// the O(dictionary) checkpoint write over more syncs.
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
	// wait is the pull loops' timer: it blocks until due or until stop
	// closes, and reports which (tests drive the schedule through it).
	wait func(due time.Time, stop <-chan struct{}) bool
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
	store, err := NewStore(StoreOptions{
		Storage:         cfg.Storage,
		CheckpointEvery: cfg.CheckpointEvery,
		SharedData:      cfg.SharedData,
		Now:             cfg.Now,
	}, cfg.Roots...)
	if err != nil {
		return nil, err
	}
	ra := &RA{
		store:       store,
		origin:      cfg.Origin,
		delta:       cfg.Delta,
		chainProofs: cfg.ChainProofs,
		now:         cfg.Now,
		table:       NewTable(),
		sessions:    newSessionTable(),
	}
	ra.wait = func(due time.Time, stop <-chan struct{}) bool {
		// A pull that fires early by the RA's clock only pulls early:
		// nextPull then schedules from the time it ran.
		t := time.NewTimer(due.Sub(ra.now()))
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-stop:
			return false
		}
	}
	return ra, nil
}

// Store exposes the RA's dictionary store.
func (ra *RA) Store() *Store { return ra.store }

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
	d, err := ra.store.dict(ca)
	if err != nil {
		return err
	}
	// Shared-mode dictionaries sync against the writer's durable state,
	// not the network: one stamp poll, a re-map when the writer moved.
	if d.shared != nil {
		return ra.store.refreshShared(d.shared)
	}
	resp, err := ra.origin.Pull(ca, d.replica.Count())
	if err != nil {
		return fmt.Errorf("ra: pull %s: %w", ca, err)
	}
	if resp.Issuance != nil {
		// applyUpdate also WALs the verified update when a storage backend
		// is configured. An update error is an attack signal, not a
		// transient failure: the network delivered a message whose signed
		// root does not match its own content (§V).
		if err := ra.store.applyUpdate(ca, d.journal, resp.Issuance); err != nil {
			return fmt.Errorf("ra: update %s: %w", ca, err)
		}
	}
	if resp.Freshness != nil {
		// applyFreshness WAL-appends the adopted statement so co-located
		// shared-data readers stay fresh between checkpoints.
		if err := ra.store.applyFreshness(ca, d.journal, resp.Freshness, ra.now().Unix()); err != nil &&
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

// FetcherOptions configures the RA's background pull loops. The zero
// value is a production-reasonable fetcher: every CA synced at once, then
// once per period of its signed root, recovery from origin restarts, no
// jitter, no shard expiry.
type FetcherOptions struct {
	// Jitter, when positive, places each CA's pull at a uniformly random
	// phase in [0, min(Jitter, ∆)) inside every period of its root. A
	// fleet of RAs otherwise pulls every dictionary at the same instants,
	// turning every period boundary into a synchronized stampede; the
	// phase smears the load across the period. Any phase keeps the RA on
	// the client's {p, p−1} window: the pull in period p fetches statement
	// p, which stays acceptable through period p + 1.
	Jitter time.Duration
	// OnError receives sync errors (nil = dropped). Recovery from
	// cdn.ErrAhead happens before OnError is consulted; only errors that
	// survive recovery are reported. CAs sync concurrently, so OnError
	// must be safe for concurrent use.
	OnError func(error)
	// ShardExpiry, when positive, checks each CA before every pull and
	// drops it (Store.Remove) once it is an expiry shard whose certificates
	// have all expired (§VIII "Ever-growing dictionaries"; see
	// expiredShard). Use the same width the CAs shard with
	// (dictionary.ShardConfig.Width).
	ShardExpiry time.Duration
}

// Fetcher runs the RA's background pull loops, one per CA.
type Fetcher struct {
	stop chan struct{}
	wg   sync.WaitGroup

	stats fetcherCounters
}

// fetcherCounters is the backing store for FetcherStats: lock-free
// totals plus a small mutex-guarded map for the per-CA consecutive
// failure streaks (touched once per CA per sync, so the lock is cold).
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
	// Syncs counts completed per-CA syncs, failed ones included.
	Syncs int64
	// Errors counts per-CA sync failures that survived recovery.
	Errors int64
	// Recoveries counts automatic Resync attempts triggered by
	// cdn.ErrAhead.
	Recoveries int64
	// ShardsExpired counts expiry shards dropped by the ShardExpiry check.
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

// StartFetcher launches one pull loop per CA the store holds now; a CA
// added afterwards is not pulled. Each loop syncs at once (a freshly
// started RA must not serve ErrDesynchronized statuses for a whole period
// waiting for its first pull), then runs on the grid of the signed root
// the CA's dictionary holds (see nextPull), so one CA's slow or hung pull
// — a hung origin shard, a long Resync — never delays another CA's sync.
func (ra *RA) StartFetcher(opts FetcherOptions) *Fetcher {
	jitter := min(opts.Jitter, ra.delta)
	f := &Fetcher{stop: make(chan struct{})}
	for _, ca := range ra.store.CAs() {
		var phase time.Duration
		if jitter > 0 {
			phase = time.Duration(mrand.Int63n(int64(jitter)))
		}
		f.wg.Add(1)
		go func(ca dictionary.CAID) {
			defer f.wg.Done()
			ra.fetchLoop(f, ca, opts, phase)
		}(ca)
	}
	return f
}

// fetchLoop is one CA's schedule. It returns on Shutdown or once the CA
// left the store.
func (ra *RA) fetchLoop(f *Fetcher, ca dictionary.CAID, opts FetcherOptions, phase time.Duration) {
	for ra.fetch(f, ca, opts) {
		due, err := ra.nextPull(ca, phase)
		if err != nil || !ra.wait(due, f.stop) {
			return
		}
	}
}

// nextPull returns when ca's loop pulls next, after a pull just made. It
// reads the grid of the signed root the dictionary now holds, p =
// ⌊(now − t)/∆⌋, on which the CA publishes statement p at t + p∆:
//   - while the freshness statement lags period p — the pull came before
//     the statement reached the origin, or an edge cache served the
//     previous one — it retries every ∆/10 until the period ends, since
//     a client in period p + 1 refuses statement p − 1 as stale;
//   - otherwise it pulls at phase into the next period, but never in its
//     first ∆/10, when the statement may still be on its way.
//
// A shared reader's pull is its stamp poll, so it follows its writer the
// same way. Without a root there is no grid, and the next pull is one ∆
// away.
func (ra *RA) nextPull(ca dictionary.CAID, phase time.Duration) (time.Time, error) {
	d, err := ra.store.dict(ca)
	if err != nil {
		return time.Time{}, err
	}
	snap, _, held, err := d.acquire()
	if err != nil {
		return time.Time{}, err
	}
	defer held.release()
	now := ra.now()
	root := snap.Root()
	if root == nil || root.DeltaSecs == 0 {
		return now.Add(ra.delta), nil
	}
	delta := root.Delta()
	step := delta / 10
	end := root.NextPeriod(now)
	// FreshnessAge fails only without a root.
	if age, _ := snap.FreshnessAge(now.Unix()); age > 0 {
		if retry := now.Add(step); retry.Before(end) {
			return retry, nil
		}
	}
	offset := max(phase%delta, step)
	if next := end.Add(offset - delta); next.After(now) {
		return next, nil
	}
	return end.Add(offset), nil
}

// fetch syncs ca once, recovering from cdn.ErrAhead, and counts the
// outcome. It reports false once ca left the store — dropped here as an
// expired shard, or by a Store.Remove — and there is nothing left to pull.
func (ra *RA) fetch(f *Fetcher, ca dictionary.CAID, opts FetcherOptions) bool {
	if opts.ShardExpiry > 0 && expiredShard(ca, ra.now().Unix(), opts.ShardExpiry) {
		ra.store.Remove(ca)
		f.stats.shardsExpired.Add(1)
		return false
	}
	err := ra.syncCA(ca)
	if errors.Is(err, cdn.ErrAhead) {
		f.stats.recoveries.Add(1)
		err = ra.Resync(ca)
	}
	if errors.Is(err, ErrNoDictionary) {
		return false
	}
	f.stats.syncs.Add(1)
	if err != nil {
		f.stats.caFailed(ca)
		if opts.OnError != nil {
			opts.OnError(err)
		}
		return true
	}
	f.stats.caSynced(ca)
	return true
}

// expiredShard reports whether ca is an expiry shard (an identifier
// produced by dictionary.ShardIDFor) whose bucket — of the given width —
// ended at or before now: every certificate it covers has expired, so its
// revocation status is moot and its storage can be reclaimed (§VIII
// "Ever-growing dictionaries"). Dictionaries without the shard suffix never
// expire, and a width under one second disables expiry.
//
// Caveat: shards are recognized purely by the "<ca>/exp-<unixtime>"
// identifier convention, so that suffix namespace is reserved — an
// unsharded CA whose identifier happens to end in "/exp-<integer>" would
// be dropped as if it were a shard. Deployments that cannot guarantee the
// convention must leave ShardExpiry off and call Store.Remove themselves.
func expiredShard(ca dictionary.CAID, now int64, width time.Duration) bool {
	w := int64(width / time.Second)
	_, bucketStart, ok := dictionary.ParseShardID(ca)
	return ok && w > 0 && bucketStart+w <= now
}

// Shutdown stops every pull loop and waits for them to exit. A pull in
// flight is not interrupted: Shutdown returns once it does, which over
// cdn.HTTPClient is within one attempt deadline (one ∆) of an origin that
// never answers.
func (f *Fetcher) Shutdown() {
	close(f.stop)
	f.wg.Wait()
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
