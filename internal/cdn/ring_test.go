package cdn

import (
	"fmt"
	"testing"

	"ritm/internal/dictionary"
)

func TestRingDeterministicAcrossInstances(t *testing.T) {
	// Every edge, RA, and CA must compute the same CA→shard map from the
	// shard count alone — two independently built rings must agree on
	// every id.
	a, err := NewRing(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		ca := dictionary.CAID(fmt.Sprintf("CA-%04d", i))
		if a.ShardFor(ca) != b.ShardFor(ca) {
			t.Fatalf("rings disagree on %s: %d vs %d", ca, a.ShardFor(ca), b.ShardFor(ca))
		}
	}
}

func TestRingBalance(t *testing.T) {
	const shards, cas = 4, 4000
	ring, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	for i := 0; i < cas; i++ {
		s := ring.ShardFor(dictionary.CAID(fmt.Sprintf("CA-%05d", i)))
		if s < 0 || s >= shards {
			t.Fatalf("ShardFor out of range: %d", s)
		}
		counts[s]++
	}
	// 64 vnodes/shard keeps max/mean imbalance modest; assert a loose
	// bound so the test pins "balanced", not a hash accident.
	mean := cas / shards
	for s, n := range counts {
		if n < mean/2 || n > mean*2 {
			t.Errorf("shard %d owns %d of %d CAs (mean %d) — ring is unbalanced", s, n, cas, mean)
		}
	}
}

func TestRingStableUnderGrowth(t *testing.T) {
	// Consistent hashing's point: adding a shard moves ~1/(n+1) of the
	// CAs, everything else stays put (followers keep their replicated
	// state).
	small, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	large, err := NewRing(5)
	if err != nil {
		t.Fatal(err)
	}
	const cas = 2000
	moved := 0
	for i := 0; i < cas; i++ {
		ca := dictionary.CAID(fmt.Sprintf("CA-%05d", i))
		if small.ShardFor(ca) != large.ShardFor(ca) {
			moved++
		}
	}
	// Expected ~1/5 = 400; a naive mod-N hash would move ~4/5 = 1600.
	if moved > cas/2 {
		t.Errorf("adding one shard moved %d of %d CAs — not consistent hashing", moved, cas)
	}
	if moved == 0 {
		t.Error("adding a shard moved nothing — ring ignores shard count")
	}
}

func TestRingValidation(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := NewRing(n); err == nil {
			t.Errorf("NewRing(%d) accepted", n)
		}
	}
	one, err := NewRing(1)
	if err != nil {
		t.Fatal(err)
	}
	if one.ShardFor("anything") != 0 {
		t.Error("single-shard ring must route everything to shard 0")
	}
}
