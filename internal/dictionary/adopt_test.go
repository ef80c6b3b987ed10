package dictionary

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// forkAuthority returns an authority signing as a's CA with a's key: a
// validly signed fork of a's dictionary.
func forkAuthority(t *testing.T, a *Authority) *Authority {
	t.Helper()
	f, err := NewAuthority(AuthorityConfig{CA: a.CA(), Signer: a.cfg.Signer, Delta: testDelta, ChainLength: 16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// stripped is msg as it reaches a replica anywhere but in the authority's
// process: serials and root, no offered tree.
func stripped(msg *IssuanceMessage) *IssuanceMessage {
	return &IssuanceMessage{Serials: msg.Serials, Root: msg.Root}
}

// mustInsert inserts serials into a and returns the authority's message.
func mustInsert(t *testing.T, a *Authority, serials []serial.Number) *IssuanceMessage {
	t.Helper()
	msg, err := a.Insert(serials, 1)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// mustUpdate applies msg to r and returns the nodes r hashed doing so.
func mustUpdate(t *testing.T, r *Replica, msg *IssuanceMessage) uint64 {
	t.Helper()
	before := r.tree.HashedNodes()
	if err := r.Update(msg); err != nil {
		t.Fatal(err)
	}
	return r.tree.HashedNodes() - before
}

// TestReplicaAdoptFallbacks feeds an in-process replica the authority's own
// message in every shape the adoption rule refuses — a substituted serial, a
// different validly signed root, a replica one batch behind, a replica
// holding a fork's prior state — and checks each is replayed instead: it
// fails with exactly the error a twin replica replaying the stripped message
// returns, and leaves the replica unchanged.
func TestReplicaAdoptFallbacks(t *testing.T) {
	gen := serial.NewGenerator(0xADA7, nil)
	for _, tc := range []struct {
		name string
		// setup brings the authority and both replicas to the state under
		// test and returns the message to feed; replays says whether the
		// fallback hashes (a count gap fails before any merge).
		setup   func(t *testing.T, a *Authority, rs ...*Replica) *IssuanceMessage
		replays bool
	}{
		{"substituted serial", func(t *testing.T, a *Authority, rs ...*Replica) *IssuanceMessage {
			msg := mustInsert(t, a, gen.NextN(200))
			forged := *msg
			forged.Serials = append([]serial.Number{gen.Next()}, msg.Serials[1:]...)
			return &forged
		}, true},
		{"different signed root, same count", func(t *testing.T, a *Authority, rs ...*Replica) *IssuanceMessage {
			fork := forkAuthority(t, a)
			mustInsert(t, fork, a.tree.Log())
			other := mustInsert(t, fork, gen.NextN(200))
			forged := *mustInsert(t, a, gen.NextN(200))
			forged.Root = other.Root
			return &forged
		}, true},
		{"different signed root, earlier count", func(t *testing.T, a *Authority, rs ...*Replica) *IssuanceMessage {
			earlier := a.SignedRoot()
			forged := *mustInsert(t, a, gen.NextN(200))
			forged.Root = earlier
			return &forged
		}, false},
		{"replica one batch behind", func(t *testing.T, a *Authority, rs ...*Replica) *IssuanceMessage {
			mustInsert(t, a, gen.NextN(200))
			return mustInsert(t, a, gen.NextN(200))
		}, false},
		{"replica on a fork's prior state", func(t *testing.T, a *Authority, rs ...*Replica) *IssuanceMessage {
			fork := forkAuthority(t, a)
			mustInsert(t, fork, a.tree.Log())
			forked := stripped(mustInsert(t, fork, gen.NextN(200)))
			for _, r := range rs {
				mustUpdate(t, r, forked)
			}
			mustInsert(t, a, gen.NextN(200))
			return mustInsert(t, a, gen.NextN(200))
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, adopter := authorityAndReplica(t, 0)
			twin := NewReplica(a.CA(), a.PublicKey())
			corpus := stripped(mustInsert(t, a, gen.NextN(2000)))
			for _, r := range []*Replica{adopter, twin} {
				mustUpdate(t, r, corpus)
			}
			msg := tc.setup(t, a, adopter, twin)
			if msg.built == nil {
				t.Fatal("setup lost the authority's offer")
			}
			root, n, hashed := adopter.Root(), adopter.Count(), adopter.tree.HashedNodes()
			err, want := adopter.Update(msg), twin.Update(stripped(msg))
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Fatalf("adopter: %v, replay: %v; want the replay's rejection", err, want)
			}
			if !adopter.Root().Equal(root) || adopter.Count() != n {
				t.Error("rejected update changed the replica")
			}
			if replayed := adopter.tree.HashedNodes() > hashed; replayed != tc.replays {
				t.Errorf("replayed = %v, want %v (%v)", replayed, tc.replays, err)
			}
		})
	}
}

// TestAdoptedSnapshotStableUnderInserts takes a snapshot right after a
// replica adopted the authority's tree, then has the authority insert and
// the replica adopt two more batches while readers prove from the
// snapshot: every proof must stay byte-identical (and, under -race, no
// write may touch what the snapshot reads). Adoption shares the arrays, so
// this fails if the authority ever merges in place into a taken run.
func TestAdoptedSnapshotStableUnderInserts(t *testing.T) {
	gen := serial.NewGenerator(0x5AFE, nil)
	a, r := authorityAndReplica(t, 0)
	revoked := gen.NextN(20_000)
	if hashed := mustUpdate(t, r, mustInsert(t, a, revoked)); hashed != 0 {
		t.Fatalf("corpus adoption hashed %d nodes", hashed)
	}
	snap := r.Snapshot()
	probes := append(revoked[:64:64], gen.NextN(64)...)
	want := make([][]byte, len(probes))
	for i, s := range probes {
		st, err := snap.Prove(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = st.Encode()
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for i, s := range probes {
					st, err := snap.Prove(s)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(st.Encode(), want[i]) {
						t.Errorf("proof for %v changed under a later insert", s)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for range 2 {
		// Uniform batches shift every leaf: an in-place merge would rewrite
		// the whole run the snapshot proves from.
		if hashed := mustUpdate(t, r, mustInsert(t, a, gen.NextN(1000))); hashed != 0 {
			t.Errorf("adoption hashed %d nodes", hashed)
		}
	}
	close(done)
	wg.Wait()
}

// TestAuthorityInsertInPlaceAllocs pins what the offer costs a CA that no
// replica adopts from: consecutive inserts still merge into the
// authority's private arrays in place, with no n-sized allocation. Once a
// replica takes an offer, the next insert copies on write instead.
func TestAuthorityInsertInPlaceAllocs(t *testing.T) {
	const n, k = 50_000, 64
	gen := serial.NewGenerator(0x1A9, nil)
	a := newTestAuthority(t, 0)
	mustInsert(t, a, gen.NextN(n))
	batches := [][]serial.Number{gen.NextN(k), gen.NextN(k)}
	recs := &a.tree.commit.recs[0]
	// The log's amortized growth is not the merge: give it room up front.
	a.tree.log = slices.Grow(a.tree.log, 2*k)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range batches {
		mustInsert(t, a, b)
	}
	runtime.ReadMemStats(&after)
	if &a.tree.commit.recs[0] != recs {
		t.Error("insert with no adopter copied the run instead of merging in place")
	}
	// A rebuild into fresh arrays allocates the leaf records alone at
	// n × 32 bytes; two in-place merges of k leaves allocate O(k).
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n*cryptoutil.HashSize/8); got > limit {
		t.Errorf("two inserts of %d into %d allocated %d bytes, want ≤ %d", k, n, got, limit)
	}

	r := NewReplica(a.CA(), a.PublicKey())
	if err := r.Update(&IssuanceMessage{Serials: a.tree.Log(), Root: a.SignedRoot()}); err != nil {
		t.Fatal(err)
	}
	if hashed := mustUpdate(t, r, mustInsert(t, a, gen.NextN(k))); hashed != 0 {
		t.Fatalf("adoption hashed %d nodes", hashed)
	}
	taken := &a.tree.commit.recs[0]
	mustInsert(t, a, gen.NextN(k))
	if &a.tree.commit.recs[0] == taken {
		t.Error("insert after an adoption merged in place into the adopted run")
	}
}
