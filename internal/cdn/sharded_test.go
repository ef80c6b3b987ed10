package cdn

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ritm/internal/dictionary"
)

// ShardedOrigin suite: ring routing, candidate failover, demotion
// cooldowns, and the ErrAhead escape hatch that feeds the RA's Resync.

// scriptedOrigin answers pulls with a fixed error (nil = delegate).
type scriptedOrigin struct {
	Origin
	err   error
	pulls int
}

func (s *scriptedOrigin) Pull(ca dictionary.CAID, from uint64) (*PullResponse, error) {
	s.pulls++
	if s.err != nil {
		return nil, s.err
	}
	return s.Origin.Pull(ca, from)
}

func (s *scriptedOrigin) LatestRoot(ca dictionary.CAID) (*dictionary.SignedRoot, error) {
	if s.err != nil {
		return nil, s.err
	}
	return s.Origin.LatestRoot(ca)
}

func TestShardedOriginRoutesByRing(t *testing.T) {
	const shards = 3
	// Every shard's origin carries every CA, so a routing mistake would
	// still succeed — the pull counters are what pin the routing.
	tc := newTestCA(t, "CA-primary")
	counters := make([]*countingOrigin, shards)
	lists := make([][]Origin, shards)
	for i := range lists {
		counters[i] = newCountingOrigin(tc.dp)
		lists[i] = []Origin{counters[i]}
	}
	so, err := NewShardedOrigin(lists, ShardedOriginOptions{Now: tc.clock.now})
	if err != nil {
		t.Fatal(err)
	}
	cas := make([]dictionary.CAID, 40)
	for i := range cas {
		cas[i] = dictionary.CAID(fmt.Sprintf("CA-%03d", i))
		if err := tc.dp.RegisterCA(cas[i], tc.auth.PublicKey()); err != nil {
			t.Fatal(err)
		}
	}
	for _, ca := range cas {
		if _, err := so.Pull(ca, 0); err != nil {
			t.Fatalf("pull %s: %v", ca, err)
		}
	}
	for _, ca := range cas {
		want := so.ring.ShardFor(ca)
		for s := range counters {
			got := counters[s].caPulls(ca)
			if s == want && got != 1 {
				t.Errorf("%s: responsible shard %d saw %d pulls, want 1", ca, s, got)
			}
			if s != want && got != 0 {
				t.Errorf("%s: shard %d saw %d pulls, ring says shard %d", ca, s, got, want)
			}
		}
	}
	st := so.Stats()
	total := 0
	for _, s := range st.PerShard {
		total += s.Pulls
	}
	if total != len(cas) {
		t.Errorf("stats count %d pulls, want %d", total, len(cas))
	}
}

func TestFailoverOriginDeadLeader(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 5)
	dead := &scriptedOrigin{Origin: tc.dp, err: errors.New("connection refused")}
	live := &scriptedOrigin{Origin: tc.dp}
	so, err := NewShardedOrigin([][]Origin{{dead, live}}, ShardedOriginOptions{Now: tc.clock.now})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := so.Pull("CA1", 0)
	if err != nil || resp.Issuance == nil {
		t.Fatalf("failover pull: %v", err)
	}
	if dead.pulls != 1 || live.pulls != 1 {
		t.Fatalf("pulls: dead=%d live=%d, want 1/1", dead.pulls, live.pulls)
	}
	st := so.Stats()
	if st.PerShard[0].Failovers != 1 || st.PerShard[0].Preferred != 1 {
		t.Fatalf("stats = %+v, want failover to candidate 1", st.PerShard[0])
	}

	// Converged: later pulls go straight to the promoted candidate; the
	// demoted corpse is not re-probed inside the cooldown.
	if _, err := so.Pull("CA1", 0); err != nil {
		t.Fatal(err)
	}
	if dead.pulls != 1 {
		t.Fatalf("dead candidate re-probed inside cooldown (%d pulls)", dead.pulls)
	}

	// After the cooldown the dead candidate becomes probeable again, but
	// only when the preferred one fails — no gratuitous probing.
	tc.clock.advance(DefaultFailoverCooldown + time.Second)
	if _, err := so.Pull("CA1", 0); err != nil {
		t.Fatal(err)
	}
	if dead.pulls != 1 {
		t.Fatalf("healthy steady state probed the demoted candidate")
	}

	// The leader heals; the preferred candidate dies: traffic walks back.
	dead.err = nil
	live.err = errors.New("connection refused")
	if _, err := so.Pull("CA1", 0); err != nil {
		t.Fatalf("fail-back pull: %v", err)
	}
	if so.Stats().PerShard[0].Preferred != 0 {
		t.Fatal("did not fail back to the healed candidate")
	}
}

func TestShardedOriginUnknownCAIsAuthoritative(t *testing.T) {
	tc := newTestCA(t, "CA1")
	first := &scriptedOrigin{Origin: tc.dp}
	second := &scriptedOrigin{Origin: tc.dp}
	so, err := NewShardedOrigin([][]Origin{{first, second}}, ShardedOriginOptions{Now: tc.clock.now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := so.Pull("GhostCA", 0); !errors.Is(err, ErrUnknownCA) {
		t.Fatalf("err = %v, want ErrUnknownCA", err)
	}
	// The typed answer is final: no failover, no demotion.
	if second.pulls != 0 {
		t.Fatal("unknown-CA answer triggered failover")
	}
	if _, err := so.Pull("CA1", 0); err != nil {
		t.Fatalf("candidate was demoted by an unknown-CA answer: %v", err)
	}
}

func TestShardedOriginAllAheadFeedsResync(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 5)
	a := &scriptedOrigin{Origin: tc.dp}
	b := &scriptedOrigin{Origin: tc.dp}
	so, err := NewShardedOrigin([][]Origin{{a, b}}, ShardedOriginOptions{Now: tc.clock.now})
	if err != nil {
		t.Fatal(err)
	}
	// A caller ahead of every candidate (its leader died with unreplicated
	// records): the typed ErrAhead must surface so Resync can adopt the
	// surviving history — and the candidates must NOT stay demoted, or the
	// recovery pull that follows would find an empty shard.
	if _, err := so.Pull("CA1", 999); !errors.Is(err, ErrAhead) {
		t.Fatalf("err = %v, want ErrAhead", err)
	}
	if _, err := so.Pull("CA1", 0); err != nil {
		t.Fatalf("recovery pull after all-ahead: %v", err)
	}
}

func TestShardedOriginAllDead(t *testing.T) {
	tc := newTestCA(t, "CA1")
	boom := errors.New("boom")
	a := &scriptedOrigin{Origin: tc.dp, err: boom}
	b := &scriptedOrigin{Origin: tc.dp, err: boom}
	so, err := NewShardedOrigin([][]Origin{{a, b}}, ShardedOriginOptions{Now: tc.clock.now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := so.Pull("CA1", 0); !errors.Is(err, boom) {
		t.Fatalf("first all-dead pull err = %v, want the candidate error", err)
	}
	// Both demoted now: the shard reports no live origin until cooldown.
	if _, err := so.Pull("CA1", 0); !errors.Is(err, ErrNoOrigin) {
		t.Fatalf("demoted-shard pull err = %v, want ErrNoOrigin", err)
	}
	tc.clock.advance(DefaultFailoverCooldown + time.Second)
	a.err = nil
	if _, err := so.Pull("CA1", 0); err != nil {
		t.Fatalf("post-cooldown heal: %v", err)
	}
}

func TestShardedOriginValidation(t *testing.T) {
	if _, err := NewShardedOrigin(nil, ShardedOriginOptions{}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewShardedOrigin([][]Origin{{}}, ShardedOriginOptions{}); err == nil {
		t.Error("empty candidate list accepted")
	}
	if _, err := NewShardedOrigin([][]Origin{{nil}}, ShardedOriginOptions{}); err == nil {
		t.Error("nil candidate accepted")
	}
}

// TestShardedHierarchyLoadIndependence extends the hierarchy fan-out
// contract to the sharded fleet: with S shards behind the edge tiers and
// 10× the CA count, each shard's origin load stays O(its own CAs ×
// regions) — one shard's traffic never lands on another's origin, so
// shards scale capacity horizontally.
func TestShardedHierarchyLoadIndependence(t *testing.T) {
	const (
		shards  = 2
		regions = 2
		pops    = 2
		cycles  = 6
	)
	for _, caCount := range []int{4, 40} { // 10× growth
		t.Run(fmt.Sprintf("%dCAs", caCount), func(t *testing.T) {
			tc := newTestCA(t, "CA-000")
			cas := make([]dictionary.CAID, caCount)
			cas[0] = "CA-000"
			for i := 1; i < caCount; i++ {
				cas[i] = dictionary.CAID(fmt.Sprintf("CA-%03d", i))
				if err := tc.dp.RegisterCA(cas[i], tc.auth.PublicKey()); err != nil {
					t.Fatal(err)
				}
			}
			counters := make([]*countingOrigin, shards)
			lists := make([][]Origin, shards)
			for s := range lists {
				counters[s] = newCountingOrigin(tc.dp)
				lists[s] = []Origin{counters[s]}
			}
			so, err := NewShardedOrigin(lists, ShardedOriginOptions{Now: tc.clock.now})
			if err != nil {
				t.Fatal(err)
			}
			topo, err := NewTopology(so, TopologyConfig{
				Regions:       regions,
				PoPsPerRegion: pops,
				RegionalTTL:   30 * time.Second,
				PoPTTL:        30 * time.Second,
				Now:           tc.clock.now,
			})
			if err != nil {
				t.Fatal(err)
			}
			perShardCAs := make([]int, shards)
			for _, ca := range cas {
				perShardCAs[so.ring.ShardFor(ca)]++
			}
			// One simRA per PoP polling every CA.
			ras := make([]*simRA, 0, regions*pops*caCount)
			for r := 0; r < regions; r++ {
				for p := 0; p < pops; p++ {
					for range cas {
						ras = append(ras, &simRA{pop: topo.PoP(r, p)})
					}
				}
			}
			for cycle := 0; cycle < cycles; cycle++ {
				tc.clock.advance(31 * time.Second)
				for i, ra := range ras {
					if err := ra.sync(cas[i%caCount]); err != nil {
						t.Fatalf("RA %d: %v", i, err)
					}
				}
			}
			// Each shard's origin saw at most (its CAs × regions × cycles)
			// pulls: load scales with the shard's own slice of the CA
			// space, not the fleet total.
			for s, c := range counters {
				bound := perShardCAs[s] * regions * cycles
				if got := int(c.pulls.Load()); got > bound {
					t.Errorf("shard %d origin saw %d pulls for %d CAs, want ≤ %d",
						s, got, perShardCAs[s], bound)
				}
				// And no cross-shard leakage: every CA this origin served
				// must belong to this shard.
				for _, ca := range cas {
					if so.ring.ShardFor(ca) != s && c.caPulls(ca) > 0 {
						t.Errorf("shard %d served %s, which the ring assigns to shard %d",
							s, ca, so.ring.ShardFor(ca))
					}
				}
			}
		})
	}
}
