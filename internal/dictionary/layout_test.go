package dictionary

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"math/rand/v2"
	"testing"

	"ritm/internal/serial"
	"ritm/internal/workload"
)

// forestTree returns an empty forest-layout tree.
func forestTree() *Tree { return NewTreeWithLayout(LayoutForest) }

func TestParseLayout(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want LayoutKind
		ok   bool
	}{
		{"sorted", LayoutSorted, true},
		{"forest", LayoutForest, true},
		{"", LayoutSorted, true},
		{"btree", 0, false},
	} {
		got, err := ParseLayout(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseLayout(%q): err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseLayout(%q) = %v, want %v", tc.in, got, tc.want)
		}
		if err == nil && got.String() != tc.in && tc.in != "" {
			t.Errorf("round trip: %v.String() = %q", got, got.String())
		}
	}
}

func TestForestEmptyTree(t *testing.T) {
	tree := forestTree()
	if tree.Root() != EmptyRoot {
		t.Errorf("empty forest root = %v, want EmptyRoot", tree.Root())
	}
	p := tree.Prove(serial.FromUint64(5))
	if p.Kind != ProofAbsenceEmpty {
		t.Fatalf("Prove on empty forest: kind = %v", p.Kind)
	}
	revoked, err := p.Verify(serial.FromUint64(5), tree.Root(), tree.Count())
	if err != nil || revoked {
		t.Fatalf("empty forest proof: revoked=%v err=%v", revoked, err)
	}
}

// TestForestProveAllSizes crosses several bucket-split boundaries and
// verifies every presence proof plus absence proofs in each gap region.
func TestForestProveAllSizes(t *testing.T) {
	for _, size := range []int{1, 2, DefaultForestBucketCap - 1, DefaultForestBucketCap, DefaultForestBucketCap + 1, 3 * DefaultForestBucketCap, 1000} {
		tree := forestTree()
		serials := make([]serial.Number, size)
		for i := range serials {
			serials[i] = serial.FromUint64(uint64(i*10 + 5))
		}
		// Insert in a few batches so merges hit existing buckets too.
		for start := 0; start < size; start += 300 {
			end := min(start+300, size)
			if err := tree.InsertBatch(serials[start:end]); err != nil {
				t.Fatal(err)
			}
		}
		root, n := tree.Root(), tree.Count()
		for i, s := range serials {
			p := tree.Prove(s)
			if p.Kind != ProofPresence || p.Spine == nil {
				t.Fatalf("size %d: Prove(%v) kind=%v spine=%v", size, s, p.Kind, p.Spine != nil)
			}
			revoked, err := p.Verify(s, root, n)
			if err != nil || !revoked {
				t.Fatalf("size %d leaf %d: revoked=%v err=%v", size, i, revoked, err)
			}
		}
		for _, v := range []uint64{1, 6, 23, uint64(size)*10 + 6, uint64(size) * 1000} {
			s := serial.FromUint64(v)
			if _, present := tree.Revoked(s); present {
				continue
			}
			p := tree.Prove(s)
			if p.Kind != ProofAbsence || p.Spine == nil {
				t.Fatalf("size %d: absence Prove(%d) kind=%v spine=%v", size, v, p.Kind, p.Spine != nil)
			}
			revoked, err := p.Verify(s, root, n)
			if err != nil || revoked {
				t.Fatalf("size %d: absence of %d: revoked=%v err=%v", size, v, revoked, err)
			}
		}
	}
}

// TestForestBucketInvariants checks the structural contract the absence
// proofs rely on: buckets tile the serial space contiguously, stay within
// capacity, keep sorted in-range leaves, and the spine mirrors the bucket
// commitments.
func TestForestBucketInvariants(t *testing.T) {
	tree := forestTree()
	gen := serial.NewGenerator(0xF02E57, nil)
	for i := 0; i < 40; i++ {
		if err := tree.InsertBatch(gen.NextN(100)); err != nil {
			t.Fatal(err)
		}
	}
	f := tree.commit.(*forestLayout)
	if len(f.buckets) < 2 {
		t.Fatalf("expected splits, got %d buckets", len(f.buckets))
	}
	if !f.buckets[0].lo.IsZero() {
		t.Error("first bucket must be unbounded below")
	}
	if !f.buckets[len(f.buckets)-1].hi.IsZero() {
		t.Error("last bucket must be unbounded above")
	}
	total := 0
	for i, b := range f.buckets {
		leaves := runLeaves(b.tree)
		if len(leaves) == 0 {
			t.Fatalf("bucket %d is empty", i)
		}
		if len(leaves) > DefaultForestBucketCap {
			t.Fatalf("bucket %d holds %d leaves, cap %d", i, len(leaves), DefaultForestBucketCap)
		}
		total += len(leaves)
		if i > 0 && !f.buckets[i-1].hi.Equal(b.lo) {
			t.Fatalf("buckets %d/%d do not tile: hi=%v lo=%v", i-1, i, f.buckets[i-1].hi, b.lo)
		}
		for j, lf := range leaves {
			if !b.lo.IsZero() && b.lo.Compare(lf.Serial) > 0 {
				t.Fatalf("bucket %d leaf %d below lo", i, j)
			}
			if !b.hi.IsZero() && lf.Serial.Compare(b.hi) >= 0 {
				t.Fatalf("bucket %d leaf %d at/above hi", i, j)
			}
			if j > 0 && leaves[j-1].Serial.Compare(lf.Serial) >= 0 {
				t.Fatalf("bucket %d unsorted at %d", i, j)
			}
		}
		if !nodeAt(f.spine[0], i).Equal(b.node) {
			t.Fatalf("spine[0][%d] does not match bucket node", i)
		}
	}
	if total != int(tree.Count()) {
		t.Fatalf("buckets hold %d leaves, tree count %d", total, tree.Count())
	}
}

// TestCrossLayoutAgreement is the cross-layout property test: over random
// issuance logs drawn from the workload corpus, both layouts agree on
// Revoked for present and absent serials, every proof verifies against its
// own layout's root — and never against the other layout's.
func TestCrossLayoutAgreement(t *testing.T) {
	corpus := workload.NewCorpus(0xD1C7)
	rng := rand.New(rand.NewPCG(41, 43))
	tested := 0
	for i := 0; i < corpus.Len() && tested < 3; i++ {
		if corpus.Size(i) > 4000 || corpus.Size(i) < 50 {
			continue
		}
		tested++
		log := corpus.Serials(i)
		sorted := NewTree()
		forest := forestTree()
		// Replay the same issuance history in identical random batches.
		for start := 0; start < len(log); {
			end := min(start+1+rng.IntN(400), len(log))
			if err := sorted.InsertBatch(log[start:end]); err != nil {
				t.Fatal(err)
			}
			if err := forest.InsertBatch(log[start:end]); err != nil {
				t.Fatal(err)
			}
			start = end
		}
		if sorted.Count() != forest.Count() {
			t.Fatalf("crl %d: counts differ: %d vs %d", i, sorted.Count(), forest.Count())
		}
		if sorted.Root().Equal(forest.Root()) {
			t.Fatalf("crl %d: layouts share a root; domain separation broken", i)
		}
		queries := make([]serial.Number, 0, 192)
		for j := 0; j < 128; j++ {
			queries = append(queries, log[rng.IntN(len(log))])
		}
		queries = append(queries, corpus.SampleAbsent(i, 64)...)
		for _, q := range queries {
			sNum, sOK := sorted.Revoked(q)
			fNum, fOK := forest.Revoked(q)
			if sOK != fOK || sNum != fNum {
				t.Fatalf("crl %d: layouts disagree on %v: (%d,%v) vs (%d,%v)", i, q, sNum, sOK, fNum, fOK)
			}
			sp, fp := sorted.Prove(q), forest.Prove(q)
			sRev, err := sp.Verify(q, sorted.Root(), sorted.Count())
			if err != nil || sRev != sOK {
				t.Fatalf("crl %d: sorted proof for %v: revoked=%v err=%v", i, q, sRev, err)
			}
			fRev, err := fp.Verify(q, forest.Root(), forest.Count())
			if err != nil || fRev != fOK {
				t.Fatalf("crl %d: forest proof for %v: revoked=%v err=%v", i, q, fRev, err)
			}
			// Cross-verification must fail: roots are layout-specific.
			if _, err := sp.Verify(q, forest.Root(), forest.Count()); err == nil {
				t.Fatalf("crl %d: sorted proof verified against forest root", i)
			}
			if _, err := fp.Verify(q, sorted.Root(), sorted.Count()); err == nil {
				t.Fatalf("crl %d: forest proof verified against sorted root", i)
			}
			// And both proofs survive a wire round trip.
			decoded, err := DecodeProof(fp.Encode())
			if err != nil {
				t.Fatalf("crl %d: decode forest proof: %v", i, err)
			}
			if rev, err := decoded.Verify(q, forest.Root(), forest.Count()); err != nil || rev != fOK {
				t.Fatalf("crl %d: decoded forest proof: revoked=%v err=%v", i, rev, err)
			}
		}
	}
	if tested == 0 {
		t.Fatal("corpus provided no CRLs in the tested size band")
	}
}

// TestForestProofTampering drives the forest-specific forgery vectors: a
// bucket-range violation (absence claimed from the wrong bucket), spine
// tampering, and count lies.
func TestForestProofTampering(t *testing.T) {
	tree := forestTree()
	gen := serial.NewGenerator(0x7A3, nil)
	if err := tree.InsertBatch(gen.NextN(1000)); err != nil {
		t.Fatal(err)
	}
	root, n := tree.Root(), tree.Count()
	f := tree.commit.(*forestLayout)
	if len(f.buckets) < 3 {
		t.Fatalf("need ≥3 buckets, got %d", len(f.buckets))
	}

	// A revoked serial from the middle of bucket 2.
	b2 := runLeaves(f.buckets[2].tree)
	victim := b2[len(b2)/2].Serial

	// The genuine presence proof of bucket 1's last leaf carries exactly the
	// right-boundary absence machinery of that bucket: its last leaf with
	// its audit path, and the bucket's spine segment.
	b1 := runLeaves(f.buckets[1].tree)
	boundary := tree.Prove(b1[len(b1)-1].Serial)

	t.Run("absence from another bucket rejected by range", func(t *testing.T) {
		// Replayed as an absence claim for the victim (which lives in
		// bucket 2): the committed range check must catch it.
		forged := &Proof{Kind: ProofAbsence, Left: boundary.Left, Spine: boundary.Spine}
		if _, err := forged.Verify(victim, root, n); !errors.Is(err, ErrBadProof) {
			t.Errorf("cross-bucket absence accepted: err = %v", err)
		}
	})

	t.Run("widened bucket range rejected by spine", func(t *testing.T) {
		// Same forgery but lying about the bucket's range so the range check
		// passes: the bucket commitment hash then differs, so the spine walk
		// cannot reach the signed root.
		spine := *boundary.Spine
		spine.Hi = serial.Number{} // lie: pretend unbounded above
		forged := &Proof{Kind: ProofAbsence, Left: boundary.Left, Spine: &spine}
		if _, err := forged.Verify(victim, root, n); !errors.Is(err, ErrBadProof) {
			t.Errorf("range-widened absence accepted: err = %v", err)
		}
	})

	t.Run("tampered spine path", func(t *testing.T) {
		p := tree.Prove(victim)
		if len(p.Spine.Path) == 0 {
			t.Skip("single-bucket spine")
		}
		p.Spine.Path[0][0] ^= 1
		if _, err := p.Verify(victim, root, n); !errors.Is(err, ErrBadProof) {
			t.Errorf("tampered spine accepted: err = %v", err)
		}
	})

	t.Run("wrong bucket index", func(t *testing.T) {
		p := tree.Prove(victim)
		p.Spine.BucketIndex ^= 1
		if _, err := p.Verify(victim, root, n); !errors.Is(err, ErrBadProof) {
			t.Errorf("relocated bucket accepted: err = %v", err)
		}
	})

	t.Run("wrong bucket count", func(t *testing.T) {
		p := tree.Prove(victim)
		p.Spine.NumBuckets++
		if _, err := p.Verify(victim, root, n); !errors.Is(err, ErrBadProof) {
			t.Errorf("bucket-count lie accepted: err = %v", err)
		}
	})

	t.Run("wrong leaf count", func(t *testing.T) {
		p := tree.Prove(victim)
		p.Spine.LeafCount++
		if _, err := p.Verify(victim, root, n); !errors.Is(err, ErrBadProof) {
			t.Errorf("leaf-count lie accepted: err = %v", err)
		}
	})

	t.Run("spine on empty-tree proof", func(t *testing.T) {
		p := &Proof{Kind: ProofAbsenceEmpty, Spine: &SpineSegment{NumBuckets: 1, LeafCount: 1}}
		if _, err := p.Verify(victim, root, n); !errors.Is(err, ErrBadProof) {
			t.Errorf("spined empty proof accepted: err = %v", err)
		}
	})
}

// TestForestAuthorityReplicaEndToEnd runs the Fig 2 loop on the forest
// layout: authority inserts, replica replays and matches the signed root,
// statuses check under the CA key.
func TestForestAuthorityReplicaEndToEnd(t *testing.T) {
	a := newTestAuthorityWithLayout(t, 7, LayoutForest)
	r := NewReplicaWithLayout(a.CA(), a.PublicKey(), LayoutForest)
	if r.Layout() != LayoutForest {
		t.Fatal("replica lost its layout")
	}
	gen := serial.NewGenerator(99, nil)
	var revoked []serial.Number
	for i := 0; i < 8; i++ {
		batch := gen.NextN(150)
		revoked = append(revoked, batch...)
		msg, err := a.Insert(batch, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Update(msg); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	now := int64(9)
	for _, s := range []serial.Number{revoked[0], revoked[len(revoked)-1], gen.Next()} {
		st, err := r.Prove(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Check(s, a.PublicKey(), now)
		if err != nil {
			t.Fatalf("Check(%v): %v", s, err)
		}
		_, isRevoked := r.Snapshot().view.Revoked(s)
		if isRevoked && res != CheckRevoked || !isRevoked && res != CheckValid {
			t.Fatalf("Check(%v) = %v, revoked=%v", s, res, isRevoked)
		}
	}
}

// TestForestReplicaRollback feeds a forest replica an issuance message whose
// signed root lies about the content: the update must be rejected and the
// replica left exactly at its previous (published) state — the
// checkpoint/rollback path that replaced the full log replay.
func TestForestReplicaRollback(t *testing.T) {
	for _, kind := range Layouts() {
		t.Run(kind.String(), func(t *testing.T) {
			a := newTestAuthorityWithLayout(t, 3, kind)
			r := NewReplicaWithLayout(a.CA(), a.PublicKey(), kind)
			gen := serial.NewGenerator(17, nil)
			msg, err := a.Insert(gen.NextN(600), 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Update(msg); err != nil {
				t.Fatal(err)
			}
			before := r.Snapshot()
			rootBefore, genBefore := before.RootHash(), before.Generation()

			// A validly signed root over DIFFERENT content: replaying the
			// message's serials cannot reproduce it.
			evil, err := a.Insert(gen.NextN(5), 2)
			if err != nil {
				t.Fatal(err)
			}
			forged := &IssuanceMessage{Serials: gen.NextN(5), Root: evil.Root}
			if err := r.Update(forged); !errors.Is(err, ErrRootMismatch) {
				t.Fatalf("forged update: err = %v, want ErrRootMismatch", err)
			}
			after := r.Snapshot()
			if after.Generation() != genBefore {
				t.Error("rejected update published a snapshot")
			}
			if !after.RootHash().Equal(rootBefore) {
				t.Error("rollback did not restore the tree root")
			}
			for _, s := range forged.Serials {
				if r.Revoked(s) {
					t.Errorf("serial %v from the rejected batch is present", s)
				}
			}
			// The replica must accept the honest continuation: state,
			// serial index, and log all rewound correctly.
			if err := r.Update(evil); err != nil {
				t.Fatalf("honest update after rollback: %v", err)
			}
			if !r.Snapshot().RootHash().Equal(evil.Root.Root) {
				t.Error("post-rollback update did not converge to the signed root")
			}
		})
	}
}

// TestForestUniformInsertHashingAdvantage pins the tentpole claim at the
// paper's largest-CRL size: uniform-serial ∆ batches must cost the forest
// layout at least 10× fewer hash computations per cycle than the sorted
// layout (which rehashes O(n) per uniform batch).
func TestForestUniformInsertHashingAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("339k-entry corpus build in -short mode")
	}
	const n = 339_557 // workload.LargestCRLEntries
	const cycles, batch = 4, 64
	gen := serial.NewGenerator(0xBEEF, nil)
	corpus := gen.NextN(n)
	perCycle := make(map[LayoutKind]uint64)
	for _, kind := range Layouts() {
		tree := NewTreeWithLayout(kind)
		if err := tree.InsertBatch(corpus); err != nil {
			t.Fatal(err)
		}
		start := tree.HashedNodes()
		for c := 0; c < cycles; c++ {
			if err := tree.InsertBatch(gen.NextN(batch)); err != nil {
				t.Fatal(err)
			}
		}
		perCycle[kind] = (tree.HashedNodes() - start) / cycles
	}
	t.Logf("hashed nodes per uniform %d-insert cycle at n=%d: sorted=%d forest=%d (%.1fx)",
		batch, n, perCycle[LayoutSorted], perCycle[LayoutForest],
		float64(perCycle[LayoutSorted])/float64(perCycle[LayoutForest]))
	if perCycle[LayoutForest]*10 > perCycle[LayoutSorted] {
		t.Errorf("forest advantage below 10x: sorted=%d forest=%d",
			perCycle[LayoutSorted], perCycle[LayoutForest])
	}
}

// TestUniformBatchHashedNodes pins what a ∆ rebuild hashes — a count, exact
// and repeatable, not a time — on a published replica (every update is
// copy-on-write): a uniform batch of k into n sorted leaves moves every node
// but rehashes only those whose alignment the shift breaks, about two thirds
// of n+k where the dense rebuild hashed all of them; a right-edge batch
// still costs O(k·log n); and the forest, whose buckets and spine run
// through the same kernel, hashes no more than it did before the kernel
// copied shift-aligned subtrees.
func TestUniformBatchHashedNodes(t *testing.T) {
	const n, k = 100_000, 1_000
	// What the forest hashed for the same three batches under the dense
	// level builders (PR 19).
	const forestUniformBefore, forestEdgeBefore = 59_314, 2_172
	for _, kind := range Layouts() {
		gen := serial.NewGenerator(0x0B5E55ED, nil)
		a := newTestAuthorityWithLayout(t, 1, kind)
		r := NewReplicaWithLayout(a.CA(), a.PublicKey(), kind)
		feed := func(serials []serial.Number) uint64 {
			t.Helper()
			msg, err := a.Insert(serials, 1)
			if err != nil {
				t.Fatal(err)
			}
			before := r.tree.HashedNodes()
			if err := r.Update(msg); err != nil {
				t.Fatal(err)
			}
			return r.tree.HashedNodes() - before
		}
		feed(gen.NextN(n))
		uniform := feed(gen.NextN(k))
		rightEdge := make([]serial.Number, k)
		for i := range rightEdge {
			raw := binary.BigEndian.AppendUint64(bytes.Repeat([]byte{0xff}, 12), uint64(i))
			rightEdge[i] = viewSerial(raw)
		}
		edge := feed(rightEdge)
		t.Logf("%v: %d hashes for a uniform batch of %d into %d, %d for a right-edge batch", kind, uniform, k, n, edge)
		if kind == LayoutSorted {
			if lo, hi := uint64(0.6*(n+k)), uint64(0.75*(n+k)); uniform <= lo || uniform > hi {
				t.Errorf("sorted: uniform batch hashed %d nodes, want in (%d, %d]", uniform, lo, hi)
			}
			if limit := uint64(k * (bits.Len(n) + 2)); edge > limit {
				t.Errorf("sorted: right-edge batch hashed %d nodes, want ≤ %d", edge, limit)
			}
		} else if uniform > forestUniformBefore || edge > forestEdgeBefore {
			t.Errorf("forest: hashed %d (uniform) / %d (right edge), was %d / %d", uniform, edge, forestUniformBefore, forestEdgeBefore)
		}
	}
}
