package dictionary

import (
	"math/rand/v2"
	"testing"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// rebuildReference recomputes all interior levels from scratch, the way the
// seed's full rebuild did. It is the oracle the incremental rebuild is
// checked against.
func rebuildReference(leafHashes []cryptoutil.Hash) [][]cryptoutil.Hash {
	if len(leafHashes) == 0 {
		return nil
	}
	levels := [][]cryptoutil.Hash{leafHashes}
	cur := leafHashes
	for len(cur) > 1 {
		next := make([]cryptoutil.Hash, (len(cur)+1)/2)
		for k := 0; k+1 < len(cur); k += 2 {
			next[k/2] = cryptoutil.HashNode(cur[k], cur[k+1])
		}
		if len(cur)%2 == 1 {
			next[len(next)-1] = cur[len(cur)-1]
		}
		levels = append(levels, next)
		cur = next
	}
	return levels
}

// TestIncrementalRebuildMatchesReference inserts random batches and checks
// after each one that every interior level equals a from-scratch rebuild.
func TestIncrementalRebuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	tree := NewTree()
	seen := make(map[uint64]bool)
	for batchNo := 0; batchNo < 40; batchNo++ {
		k := 1 + rng.IntN(9)
		batch := make([]serial.Number, 0, k)
		for len(batch) < k {
			v := rng.Uint64N(1 << 20)
			if seen[v] {
				continue
			}
			seen[v] = true
			batch = append(batch, serial.FromUint64(v))
		}
		if err := tree.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		levels := tree.commit.levels
		want := rebuildReference(hashLevel(levels[0]))
		if len(levels) != len(want) {
			t.Fatalf("batch %d: %d levels, want %d", batchNo, len(levels), len(want))
		}
		for lvl := range want {
			for i := range want[lvl] {
				if !nodeAt(levels[lvl], i).Equal(want[lvl][i]) {
					t.Fatalf("batch %d: level %d node %d differs from full rebuild", batchNo, lvl, i)
				}
			}
		}
	}
}

// TestIncrementalRebuildProofsVerify checks end to end that proofs from an
// incrementally maintained tree verify, for presence and absence, across
// batches inserted at the front, middle, and back of the serial space.
func TestIncrementalRebuildProofsVerify(t *testing.T) {
	tree := NewTree()
	// Middle, then back (pure append), then front — each exercises a
	// different set of kept spans.
	batches := [][]uint64{
		{5000, 5002, 5004},
		{9000, 9001, 9002, 9003}, // right edge: O(k·log n) path
		{10, 11},                 // left edge: worst case
		{5001, 8999, 12},
	}
	for _, b := range batches {
		if err := tree.InsertBatch(mustSerials(t, b...)); err != nil {
			t.Fatal(err)
		}
	}
	root, n := tree.Root(), tree.Count()
	for _, v := range []uint64{10, 5001, 9003, 12} {
		p := tree.Prove(serial.FromUint64(v))
		revoked, err := p.Verify(serial.FromUint64(v), root, n)
		if err != nil || !revoked {
			t.Fatalf("presence proof for %d: revoked=%v err=%v", v, revoked, err)
		}
	}
	for _, v := range []uint64{1, 5003, 8000, 9999} {
		p := tree.Prove(serial.FromUint64(v))
		revoked, err := p.Verify(serial.FromUint64(v), root, n)
		if err != nil || revoked {
			t.Fatalf("absence proof for %d: revoked=%v err=%v", v, revoked, err)
		}
	}
}

// TestSnapshotImmutableAcrossUpdates takes a snapshot, applies further
// updates, and checks the old snapshot still proves against its own root —
// the property the RA's lock-free read path depends on.
func TestSnapshotImmutableAcrossUpdates(t *testing.T) {
	a, r := authorityAndReplica(t, 0)
	msg, err := a.Insert(mustSerials(t, 100, 200, 300), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(msg); err != nil {
		t.Fatal(err)
	}
	old := r.Snapshot()
	oldGen := old.Generation()
	oldRoot := old.Root()

	// Mutate the replica several times; inserts land on both sides of the
	// existing serials so interior levels get rewritten around them.
	for i, batch := range [][]uint64{{50, 150}, {250, 350}, {1, 2, 3}} {
		msg, err := a.Insert(mustSerials(t, batch...), int64(2+i))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Update(msg); err != nil {
			t.Fatal(err)
		}
	}
	if r.Snapshot().Generation() <= oldGen {
		t.Fatalf("generation did not advance: %d -> %d", oldGen, r.Snapshot().Generation())
	}

	// The old snapshot must still verify against its own (old) root.
	for _, v := range []uint64{100, 200, 300} {
		st, err := old.Prove(serial.FromUint64(v))
		if err != nil {
			t.Fatal(err)
		}
		if !st.Root.Equal(oldRoot) {
			t.Fatal("old snapshot served a different root")
		}
		revoked, err := st.Proof.Verify(serial.FromUint64(v), st.Root.Root, st.Root.N)
		if err != nil || !revoked {
			t.Fatalf("old snapshot proof for %d: revoked=%v err=%v", v, revoked, err)
		}
	}
	// Serials revoked only later must still prove absent in the old view.
	st, err := old.Prove(serial.FromUint64(150))
	if err != nil {
		t.Fatal(err)
	}
	revoked, err := st.Proof.Verify(serial.FromUint64(150), oldRoot.Root, oldRoot.N)
	if err != nil || revoked {
		t.Fatalf("old snapshot should prove 150 absent: revoked=%v err=%v", revoked, err)
	}
	if snapRevoked(old, serial.FromUint64(150)) {
		t.Error("old snapshot reports a later revocation")
	}
}

// TestSnapshotGenerationSemantics pins down when the generation moves: on
// every verified update and on every *new* freshness statement, but not on
// a re-applied identical statement.
func TestSnapshotGenerationSemantics(t *testing.T) {
	delta := 10 * time.Second
	a := newTestAuthority(t, 0)
	r := NewReplica(a.CA(), a.PublicKey())

	if r.Snapshot().Root() != nil {
		t.Fatal("initial snapshot should have no root")
	}
	if _, err := r.Snapshot().Prove(serial.FromUint64(1)); err == nil {
		t.Fatal("initial snapshot should refuse to prove")
	}

	if err := r.Update(&IssuanceMessage{Root: a.SignedRoot()}); err != nil {
		t.Fatal(err)
	}
	g1 := r.Snapshot().Generation()
	if g1 == 0 {
		t.Fatal("update did not advance the generation")
	}

	// A freshness statement for a later period advances the generation once.
	now := int64(2 * delta / time.Second)
	st, err := a.Statement(now)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyFreshness(st, now); err != nil {
		t.Fatal(err)
	}
	g2 := r.Snapshot().Generation()
	if g2 <= g1 {
		t.Fatalf("freshness did not advance the generation: %d -> %d", g1, g2)
	}
	// Re-applying the identical statement is a no-op for caches.
	if err := r.ApplyFreshness(st, now); err != nil {
		t.Fatal(err)
	}
	if g3 := r.Snapshot().Generation(); g3 != g2 {
		t.Fatalf("identical statement re-publish: generation %d -> %d", g2, g3)
	}

	// Re-delivery of the root the replica already holds (every pull
	// response carries the latest root) must not republish either — and
	// must not regress the freshness value to the anchor.
	if err := r.Update(&IssuanceMessage{Root: a.SignedRoot()}); err != nil {
		t.Fatal(err)
	}
	if g4 := r.Snapshot().Generation(); g4 != g2 {
		t.Fatalf("identical root re-publish: generation %d -> %d", g2, g4)
	}
	if !r.Snapshot().Freshness().Equal(st.Value) {
		t.Error("identical root re-delivery regressed the freshness value")
	}
}

// snapRevoked reports whether sn is revoked in snapshot s.
func snapRevoked(s *Snapshot, sn serial.Number) bool {
	_, ok := s.view.revoked(sn)
	return ok
}
