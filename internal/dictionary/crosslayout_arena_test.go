package dictionary

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
	"ritm/internal/workload"
)

// This file pins the arena rebuild (in-place merge, level reuse) against the pre-arena semantics two ways: a pure-function
// check of the merge/build kernels against element-wise reference
// implementations, and a whole-tree replay where one tree keeps its arrays
// private between batches (in-place paths) while its twin is exposed after
// every batch (forcing the fresh copy-on-write paths the code used before
// the arena existed). Roots, proof bytes, and checkpoint/rollback behavior
// must be indistinguishable. The tests run in CI's dictionary property
// suite (-race -count=2).

// refRec is the reference encoding of one leaf record: num u64 LE, serial
// length, three zero pad bytes, the serial zero-padded to 20 bytes.
func refRec(lf Leaf) []byte {
	rec := make([]byte, v2LeafRecSize)
	binary.LittleEndian.PutUint64(rec, lf.Num)
	rec[8] = byte(lf.Serial.Len())
	copy(rec[12:], lf.Serial.Raw())
	return rec
}

// refMergeLeaves is the pre-arena element-wise merge over records: compare
// every old record, append one record and one leaf hash at a time into fresh
// arrays. It is the semantic reference for mergeLeaves; at[j] is the merged
// index batch[j] landed on.
func refMergeLeaves(oldRecs, oldHashes []byte, batch []Leaf) (recs, hashes []byte, at []int) {
	const size = cryptoutil.HashSize
	i, n := 0, len(oldHashes)/size
	for _, b := range batch {
		for i < n && compareRaw(recSerial(oldRecs, i), b.Serial.Raw()) < 0 {
			recs = append(recs, oldRecs[i*v2LeafRecSize:(i+1)*v2LeafRecSize]...)
			hashes = append(hashes, oldHashes[i*size:(i+1)*size]...)
			i++
		}
		at = append(at, len(recs)/v2LeafRecSize)
		h := b.hash()
		recs = append(recs, refRec(b)...)
		hashes = append(hashes, h[:]...)
	}
	recs = append(recs, oldRecs[i*v2LeafRecSize:]...)
	hashes = append(hashes, oldHashes[i*size:]...)
	return recs, hashes, at
}

// refBuildLevels is the pre-arena full rebuild: every interior node
// recomputed from scratch, no reuse of any kind.
func refBuildLevels(leafHashes []byte) [][]byte {
	if len(leafHashes) == 0 {
		return nil
	}
	levels := [][]byte{leafHashes}
	for cur := hashLevel(leafHashes); len(cur) > 1; {
		next := make([]cryptoutil.Hash, (len(cur)+1)/2)
		for k := range next {
			if 2*k+1 < len(cur) {
				next[k] = cryptoutil.HashNode(cur[2*k], cur[2*k+1])
			} else {
				next[k] = cur[len(cur)-1]
			}
		}
		var level []byte
		for _, h := range next {
			level = append(level, h[:]...)
		}
		levels = append(levels, level)
		cur = next
	}
	return levels
}

// hashLevel copies one level of a run out as hashes.
func hashLevel(level []byte) []cryptoutil.Hash {
	out := make([]cryptoutil.Hash, len(level)/cryptoutil.HashSize)
	for i := range out {
		out[i] = *nodeAt(level, i)
	}
	return out
}

// runLeaves copies a run's records out as leaves.
func runLeaves(r run) []Leaf {
	out := make([]Leaf, r.count())
	for i := range out {
		out[i] = Leaf{Serial: viewSerial(bytes.Clone(r.serial(i))), Num: recNum(r.recs, i)}
	}
	return out
}

func leavesFrom(serials []serial.Number, startNum uint64) []Leaf {
	out := make([]Leaf, len(serials))
	for i, s := range serials {
		out[i] = Leaf{Serial: s, Num: startNum + uint64(i)}
	}
	sortLeaves(out)
	return out
}

func levelsEqual(t *testing.T, tag string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d levels, want %d", tag, len(got), len(want))
	}
	for lvl := range want {
		if len(got[lvl]) != len(want[lvl]) {
			t.Fatalf("%s: level %d has %d bytes, want %d", tag, lvl, len(got[lvl]), len(want[lvl]))
		}
		if !bytes.Equal(got[lvl], want[lvl]) {
			t.Fatalf("%s: level %d differs from reference", tag, lvl)
		}
	}
}

// insertedAt inverts mergeLeaves' spans: the merged indices no span of old
// leaves covers are where the batch landed. It also checks that the spans
// are non-empty, ordered, disjoint and shifted by the number of batch leaves
// before them.
func insertedAt(t *testing.T, keep []span, total int) []int {
	t.Helper()
	var at []int
	next := 0
	for _, s := range keep {
		if s.lo < next || s.hi <= s.lo {
			t.Fatalf("span %+v after index %d", s, next)
		}
		for ; next < s.lo; next++ {
			at = append(at, next)
		}
		if s.shift != len(at) {
			t.Fatalf("span %+v follows %d inserted leaves", s, len(at))
		}
		next = s.hi
	}
	for ; next < total; next++ {
		at = append(at, next)
	}
	return at
}

// TestLayoutMergeBuildMatchesReference checks the two rebuild kernels — one
// merge, one level build, each taking its destination and writing leaf
// records and hash levels in the checkpoint's byte layout — against the
// element-wise references, for batches of every shape the span rule
// distinguishes (uniform, all left of the tree, all right of it, one dense
// cluster inside one gap, larger than the tree, into an empty tree), on the
// copy-on-write path, on the in-place path, and through repeated in-place
// merges into one arena that outgrow its headroom level by level. The records
// — padding included — and every level must equal the references byte for
// byte, the insertion positions the reference merge's, and a view taken
// before the inserts must still prove against its old root after them: the
// right-to-left moves write only private arrays.
func TestLayoutMergeBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xA2E7A, 0xB0B))
	const lowest, highest = 1 << 20, 1 << 40 // old leaves and uniform batches draw from [lowest, highest)
	for _, shape := range []string{"uniform", "leftedge", "rightedge", "cluster", "larger", "empty"} {
		for trial := 0; trial < 12; trial++ {
			n := rng.IntN(601)
			if shape == "empty" {
				n = 0
			}
			used := make(map[uint64]bool)
			draw := func(lo, hi uint64) uint64 {
				for {
					if v := lo + rng.Uint64N(hi-lo); !used[v] {
						used[v] = true
						return v
					}
				}
			}
			numbers := func(k int, lo, hi uint64) []serial.Number {
				out := make([]serial.Number, k)
				for i := range out {
					out[i] = serial.FromUint64(draw(lo, hi))
				}
				return out
			}
			oldSerials := numbers(n, lowest, highest)
			// nextBatch draws a batch of the trial's shape; every trial merges
			// three, the second and third into the first's private arena, each
			// edge batch beyond the one before.
			edge := 0
			nextBatch := func(have int) []serial.Number {
				k := 1 + rng.IntN(have+50)
				edge++
				switch shape {
				case "leftedge":
					return numbers(k, lowest>>edge, lowest>>(edge-1))
				case "rightedge":
					return numbers(k, highest<<(edge-1), highest<<edge)
				case "cluster":
					at := draw(lowest, highest)
					return numbers(k, at, at+uint64(2*k))
				case "larger":
					return numbers(have+1+rng.IntN(50), lowest, highest)
				}
				return numbers(k, lowest, highest)
			}

			tree := NewTree()
			if err := tree.InsertBatch(oldSerials); err != nil {
				t.Fatal(err)
			}
			before, rootBefore, nBefore := tree.view(), tree.Root(), tree.Count() // exposes: the next insert is copy-on-write
			wantRecs, wantHashes := tree.commit.recs, []byte(nil)
			if n > 0 {
				wantHashes = tree.commit.levels[0]
			}
			levelsEqual(t, shape+": initial build", tree.commit.levels, refBuildLevels(wantHashes))
			if want, _, _ := refMergeLeaves(nil, nil, leavesFrom(oldSerials, 1)); !bytes.Equal(wantRecs, want) {
				t.Fatalf("%s trial %d: initial records differ from the reference encoding", shape, trial)
			}

			for round, path := range []string{"copy-on-write", "in place", "in place again"} {
				tag := fmt.Sprintf("%s trial %d, %s", shape, trial, path)
				serials := nextBatch(len(wantRecs) / v2LeafRecSize)
				batch := leavesFrom(serials, tree.Count()+1)
				old, oldHashes := tree.commit, wantHashes
				var wantAt []int
				wantRecs, wantHashes, wantAt = refMergeLeaves(old.recs, oldHashes, batch)

				// The merge kernel alone, into fresh arrays and into a private
				// copy of the old ones: same records, same insertion positions.
				for _, inPlace := range []bool{false, true} {
					var rb rebuilder
					var dst run
					src := old
					if inPlace {
						src = run{
							recs:   slices.Grow(slices.Clone(old.recs), len(batch)*v2LeafRecSize),
							levels: [][]byte{slices.Grow(slices.Clone(oldHashes), len(batch)*cryptoutil.HashSize)},
						}
						dst = src
					}
					gotRecs, gotHashes, keep := rb.mergeLeaves(dst, src, batch)
					if !slices.Equal(insertedAt(t, keep, len(gotHashes)/cryptoutil.HashSize), wantAt) {
						t.Fatalf("%s (merge in place %v): insertion positions differ from the reference merge", tag, inPlace)
					}
					if !bytes.Equal(gotHashes, wantHashes) || !bytes.Equal(gotRecs, wantRecs) {
						t.Fatalf("%s (merge in place %v): merged records differ from the reference merge", tag, inPlace)
					}
					if rb.hashed != uint64(len(batch)) {
						t.Fatalf("%s: merge counted %d hashes for %d new leaves", tag, rb.hashed, len(batch))
					}
				}

				// The tree's own insert: copy-on-write right after the view,
				// in place (where the arena's headroom lasts) afterwards.
				if tree.owned != (round > 0) {
					t.Fatalf("%s: tree.owned = %v", tag, tree.owned)
				}
				if err := tree.InsertBatch(serials); err != nil {
					t.Fatal(err)
				}
				levelsEqual(t, tag, tree.commit.levels, refBuildLevels(wantHashes))
				if !bytes.Equal(tree.commit.recs, wantRecs) {
					t.Fatalf("%s: records differ from the reference merge", tag)
				}
			}

			// The view from before the three inserts is untouched.
			if !before.root().Equal(rootBefore) {
				t.Fatalf("%s trial %d: the old view's root changed", shape, trial)
			}
			probes := append(numbers(8, 1, highest<<3), oldSerials[:min(n, 8)]...)
			for _, s := range probes {
				_, present := before.revoked(s)
				if revoked, err := before.prove(s).Verify(s, rootBefore, nBefore); err != nil || revoked != present {
					t.Fatalf("%s trial %d: old view's proof for %v: revoked=%v err=%v", shape, trial, s, revoked, err)
				}
			}
		}
	}
}

// TestCrossLayoutArenaVsExposedReplay replays identical random batch
// sequences into two trees: one inserted back-to-back (arrays
// stay private, so every batch after the first takes the in-place arena
// paths) and one exposed via view() after every batch (every insert takes
// the fresh copy-on-write path — the pre-arena behavior). Roots must agree
// after every batch and proof encodings must be byte-identical at the end;
// a checkpoint/rollback/re-apply cycle on the arena tree must change
// nothing.
func TestCrossLayoutArenaVsExposedReplay(t *testing.T) {
	corpus := workload.NewCorpus(0xC0FFEE)
	t.Run("sorted", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(77, 0))
		tested := 0
		for i := 0; i < corpus.Len() && tested < 2; i++ {
			if corpus.Size(i) > 3000 || corpus.Size(i) < 100 {
				continue
			}
			tested++
			log := corpus.Serials(i)
			arenaTree := NewTree()
			exposed := NewTree()

			var cp treeCheckpoint
			var cpAt int
			var batches [][]serial.Number
			for start := 0; start < len(log); {
				end := min(start+1+rng.IntN(250), len(log))
				batches = append(batches, log[start:end])
				start = end
			}
			cpBatch := len(batches) / 2
			for b, batch := range batches {
				if b == cpBatch {
					cp = arenaTree.checkpoint()
					cpAt = b
				}
				if err := arenaTree.InsertBatch(batch); err != nil {
					t.Fatal(err)
				}
				if err := exposed.InsertBatch(batch); err != nil {
					t.Fatal(err)
				}
				_ = exposed.view() // expose: next insert takes the fresh path
				if !arenaTree.Root().Equal(exposed.Root()) {
					t.Fatalf("crl %d: roots diverge after batch %d", i, b)
				}
			}

			// Rollback to the mid-sequence checkpoint and re-apply the
			// same tail: restore must drop the private arena so the
			// replay reconverges bit-for-bit.
			finalRoot := arenaTree.Root()
			arenaTree.rollback(cp)
			for _, batch := range batches[cpAt:] {
				if err := arenaTree.InsertBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			if !arenaTree.Root().Equal(finalRoot) {
				t.Fatalf("crl %d: root differs after rollback/re-apply", i)
			}

			queries := make([]serial.Number, 0, 96)
			for j := 0; j < 64; j++ {
				queries = append(queries, log[rng.IntN(len(log))])
			}
			queries = append(queries, corpus.SampleAbsent(i, 32)...)
			for _, q := range queries {
				ap, ep := arenaTree.Prove(q), exposed.Prove(q)
				if !bytes.Equal(ap.Encode(), ep.Encode()) {
					t.Fatalf("crl %d: proof bytes for %v differ between arena and exposed trees", i, q)
				}
				rev, err := ap.Verify(q, exposed.Root(), exposed.Count())
				if err != nil {
					t.Fatalf("crl %d: arena proof for %v: %v", i, q, err)
				}
				_, wantRev := exposed.Revoked(q)
				if rev != wantRev {
					t.Fatalf("crl %d: arena proof for %v: revoked=%v want %v", i, q, rev, wantRev)
				}
			}
		}
		if tested == 0 {
			t.Fatal("corpus provided no CRLs in the tested size band")
		}
	})
}
