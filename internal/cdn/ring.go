package cdn

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"
	"time"

	"ritm/internal/dictionary"
)

// Multi-origin sharding: one DistributionPoint per shard instead of one
// for the world. A consistent-hash ring maps CA ids to shards, so every
// component that routes by CA id — regional edges, RA fetchers, the CAs
// themselves — computes the same assignment from nothing but (shard
// count, CA id). Each shard is a failover list of candidate origins
// (leader first, WAL-shipping followers after); ShardedOrigin routes
// pulls along the ring and demotes dead or behind candidates, which is
// what turns follower replication into availability.

// ErrNoOrigin reports that every candidate origin of the shard
// responsible for a CA is down or demoted.
var ErrNoOrigin = errors.New("cdn: no live origin for shard")

// ringVnodes is the number of virtual nodes per shard on the ring. 64
// keeps the max/mean shard imbalance under ~1.3 for realistic CA counts
// while the full ring still fits in a few KB.
const ringVnodes = 64

// Ring is a consistent-hash ring mapping CA ids to origin shards. It is
// deterministic across processes — every edge, RA, and operator tool
// computes the same CA→shard assignment from the shard count alone — and
// stable under growth: adding one shard moves ~1/(n+1) of the CAs,
// leaving every other shard's dictionaries (and its followers' replicated
// state) untouched.
type Ring struct {
	points []uint64 // sorted vnode positions
	owner  []int    // owner[i] = shard owning points[i]
}

// NewRing builds the ring for n shards.
func NewRing(n int) (*Ring, error) {
	if n < 1 {
		return nil, fmt.Errorf("cdn: ring needs ≥1 shard (got %d)", n)
	}
	r := &Ring{
		points: make([]uint64, 0, n*ringVnodes),
		owner:  make([]int, 0, n*ringVnodes),
	}
	type vnode struct {
		pos   uint64
		shard int
	}
	vnodes := make([]vnode, 0, n*ringVnodes)
	for s := 0; s < n; s++ {
		for v := 0; v < ringVnodes; v++ {
			vnodes = append(vnodes, vnode{pos: ringHash(fmt.Sprintf("shard/%d#%d", s, v)), shard: s})
		}
	}
	sort.Slice(vnodes, func(i, j int) bool { return vnodes[i].pos < vnodes[j].pos })
	for _, vn := range vnodes {
		r.points = append(r.points, vn.pos)
		r.owner = append(r.owner, vn.shard)
	}
	return r, nil
}

// ringHash positions a key on the ring (FNV-1a: deterministic across
// processes and Go versions, unlike maphash). Raw FNV avalanches poorly
// on short keys that differ only in trailing digits — exactly what vnode
// labels and real CA-id families look like — leaving correlated clusters
// on the ring, so the sum is pushed through a splitmix64 finalizer.
func ringHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardFor returns the shard responsible for ca: the owner of the first
// vnode at or clockwise of the CA's position.
func (r *Ring) ShardFor(ca dictionary.CAID) int {
	pos := ringHash(string(ca))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= pos })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return r.owner[i]
}

// ShardedOriginOptions tunes failover behavior.
type ShardedOriginOptions struct {
	// Cooldown is how long a demoted candidate stays skipped before it is
	// probed again (0 = 5s). Demotion happens on transport errors and on
	// ErrAhead (a candidate behind the caller's history); typed
	// ErrUnknownCA answers are authoritative and never demote.
	Cooldown time.Duration
	// Now is the failover clock (nil = time.Now); scenario tests inject
	// virtual time.
	Now func() time.Time
}

// DefaultFailoverCooldown is the default demotion window.
const DefaultFailoverCooldown = 5 * time.Second

// shardCandidate is the failover state of one candidate origin.
type shardCandidate struct {
	origin    Origin
	downUntil atomic.Int64 // Unix nanos; 0 = live
}

// shardState is one shard's candidate list plus its routing state.
type shardState struct {
	candidates []*shardCandidate
	preferred  atomic.Int32 // index currently served first
	pulls      atomic.Int64
	failovers  atomic.Int64
}

// ShardedOrigin implements Origin over a fleet of origin shards: a pull
// for a CA routes along the ring to the responsible shard and walks that
// shard's candidate list — leader first, followers after — demoting
// candidates that are dead (transport error) or behind the caller
// (ErrAhead) for a cooldown. A successful candidate becomes the shard's
// preferred target, so after a leader crash the fleet converges on the
// promoted follower and stays there instead of re-probing the corpse on
// every pull.
//
// Failover semantics feed the existing recovery machinery rather than
// replacing it: when every live candidate answers ErrAhead (the caller's
// history is longer than anything the shard still has — the leader died
// with unreplicated records), ErrAhead is returned and the RA's
// ErrAhead→Resync path adopts the promoted follower's shorter verified
// history. Typed ErrUnknownCA answers pass through immediately: the shard
// is authoritative for its CAs, and not carrying one is an answer, not an
// outage.
type ShardedOrigin struct {
	ring     *Ring
	shards   []*shardState
	cooldown time.Duration
	now      func() time.Time
}

// NewShardedOrigin builds a sharded origin over one candidate list per
// shard (each list ordered by preference: leader first). The ring is
// derived from len(shards).
func NewShardedOrigin(shards [][]Origin, opts ShardedOriginOptions) (*ShardedOrigin, error) {
	ring, err := NewRing(len(shards))
	if err != nil {
		return nil, err
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = DefaultFailoverCooldown
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	so := &ShardedOrigin{ring: ring, cooldown: opts.Cooldown, now: opts.Now}
	for i, candidates := range shards {
		if len(candidates) == 0 {
			return nil, fmt.Errorf("cdn: shard %d has no candidate origins", i)
		}
		st := &shardState{}
		for _, o := range candidates {
			if o == nil {
				return nil, fmt.Errorf("cdn: shard %d has a nil candidate origin", i)
			}
			st.candidates = append(st.candidates, &shardCandidate{origin: o})
		}
		so.shards = append(so.shards, st)
	}
	return so, nil
}

// route walks the shard's candidates from the preferred one, calling fn
// on each live candidate until one answers.
func (so *ShardedOrigin) route(shard int, fn func(Origin) error) error {
	st := so.shards[shard]
	n := len(st.candidates)
	start := int(st.preferred.Load())
	if start < 0 || start >= n {
		start = 0
	}
	nowNanos := so.now().UnixNano()
	var firstErr error
	sawAhead := false
	tried := 0
	for k := 0; k < n; k++ {
		i := (start + k) % n
		c := st.candidates[i]
		if until := c.downUntil.Load(); until != 0 && nowNanos < until {
			continue // demoted; probe again after the cooldown
		}
		tried++
		err := fn(c.origin)
		switch {
		case err == nil:
			c.downUntil.Store(0)
			if i != start {
				st.preferred.Store(int32(i))
				st.failovers.Add(1)
			}
			return nil
		case errors.Is(err, ErrUnknownCA):
			// Authoritative: the shard does not carry this CA. Failing over
			// would turn a correct answer into n copies of it.
			return err
		case errors.Is(err, ErrAhead):
			// This candidate's history is shorter than the caller's. Prefer
			// a candidate that can still serve; only if ALL of them are
			// behind does ErrAhead surface (feeding the caller's Resync).
			sawAhead = true
			c.downUntil.Store(nowNanos + int64(so.cooldown))
		default:
			c.downUntil.Store(nowNanos + int64(so.cooldown))
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if sawAhead {
		// Every live candidate is behind the caller: surface the typed
		// sentinel so ErrAhead→Resync can adopt the surviving history.
		// Clear the demotions it caused — the candidates are alive, and the
		// recovery pull that follows must reach them.
		for _, c := range st.candidates {
			c.downUntil.Store(0)
		}
		if firstErr == nil || !errors.Is(firstErr, ErrAhead) {
			firstErr = fmt.Errorf("%w: every candidate of shard %d is behind", ErrAhead, shard)
		}
		return firstErr
	}
	if tried == 0 {
		return fmt.Errorf("%w %d: all %d candidates demoted", ErrNoOrigin, shard, n)
	}
	return firstErr
}

// Pull implements Origin.
func (so *ShardedOrigin) Pull(ca dictionary.CAID, from uint64) (*PullResponse, error) {
	shard := so.ring.ShardFor(ca)
	so.shards[shard].pulls.Add(1)
	var resp *PullResponse
	err := so.route(shard, func(o Origin) error {
		var err error
		resp, err = o.Pull(ca, from)
		return err
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// LatestRoot implements Origin.
func (so *ShardedOrigin) LatestRoot(ca dictionary.CAID) (*dictionary.SignedRoot, error) {
	shard := so.ring.ShardFor(ca)
	var root *dictionary.SignedRoot
	err := so.route(shard, func(o Origin) error {
		var err error
		root, err = o.LatestRoot(ca)
		return err
	})
	if err != nil {
		return nil, err
	}
	return root, nil
}

// CAs implements Origin: the sorted union over every shard (asking each
// shard's first live candidate). A shard with no live candidate is
// skipped — a partial listing beats an outage for discovery.
func (so *ShardedOrigin) CAs() ([]dictionary.CAID, error) {
	seen := make(map[dictionary.CAID]bool)
	for shard := range so.shards {
		var cas []dictionary.CAID
		err := so.route(shard, func(o Origin) error {
			var err error
			cas, err = o.CAs()
			return err
		})
		if err != nil {
			continue
		}
		for _, ca := range cas {
			seen[ca] = true
		}
	}
	out := make([]dictionary.CAID, 0, len(seen))
	for ca := range seen {
		out = append(out, ca)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

var _ Origin = (*ShardedOrigin)(nil)

// ShardOriginStats is one shard's routing counters.
type ShardOriginStats struct {
	// Pulls counts pulls routed to the shard (successful or not).
	Pulls int
	// Failovers counts preferred-candidate switches.
	Failovers int
	// Preferred is the index of the candidate currently served first.
	Preferred int
}

// ShardedOriginStats is the per-shard roll-up.
type ShardedOriginStats struct {
	PerShard []ShardOriginStats
}

// Stats returns a copy of the routing counters.
func (so *ShardedOrigin) Stats() ShardedOriginStats {
	st := ShardedOriginStats{PerShard: make([]ShardOriginStats, len(so.shards))}
	for i, s := range so.shards {
		st.PerShard[i] = ShardOriginStats{
			Pulls:     int(s.pulls.Load()),
			Failovers: int(s.failovers.Load()),
			Preferred: int(s.preferred.Load()),
		}
	}
	return st
}
