package dictionary

import (
	"slices"
	"sort"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// The bucket capacity bounds the leaves per bucket; a bucket that outgrows
// it is split. The default of 256 (DefaultForestBucketCap) keeps the
// in-bucket rehash of one insert (≤ ~2·cap hashes, the leaves to the right
// re-pair) two to three orders of magnitude below the whole-dictionary
// rehash the sorted layout pays for the same insert, while the proof
// (in-bucket path + spine path) stays within a hash or two of the sorted
// layout's single path: log₂(cap) + log₂(n/cap) ≈ log₂(n). The capacity is
// configurable per deployment (LayoutForestWithCap) and committed to by
// the layout descriptor — it decides where bucket boundaries fall, so two
// forests of different capacity disagree on roots even over equal content.

// forestBucket is one serial-range partition of the dictionary: a small
// sorted hash tree over the leaves whose serials fall in [lo, hi), plus the
// memoized bucket commitment hashed into the spine. A zero lo or hi means
// the range is unbounded on that side; buckets tile the entire serial space
// contiguously (buckets[i].hi == buckets[i+1].lo), so every serial — present
// or absent — belongs to exactly one bucket, which is what makes absence
// proofs local to a single bucket. Buckets are immutable once built: inserts
// replace the bucket, never mutate it. The tree and bounds of a bucket no
// insert has touched since the layout was opened over a checkpoint are that
// checkpoint's bytes.
type forestBucket struct {
	lo, hi serial.Number // [lo, hi); zero = unbounded
	tree   run
	node   cryptoutil.Hash // HashBucket(lo, hi, count, tree root)
	// private marks the bucket as scratch: built since the last
	// view/checkpoint with backing arrays shared by no other bucket, so a
	// later insert of the same private window may extend them in place.
	// Buckets cut by chunkBuckets are never private (their record arrays are
	// sub-slices of one shared run), nor are ones read off a checkpoint (its
	// bytes are read-only). expose clears the flag.
	private bool
}

// forestLayout is the bucketed commitment structure: an ordered slice of
// buckets and a spine tree over their commitments, with the dictionary root
// binding the bucket count to the spine root. An insert rehashes only the
// buckets it lands in plus the dirty spine paths above them — O(k·log n)
// per k-insert batch for any serial distribution, versus the sorted
// layout's O(n) for uniform batches. Copy-on-write throughout: buckets are
// replaced, spine levels freshly allocated, so published views stay valid.
type forestLayout struct {
	rebuilder
	desc    LayoutKind // full descriptor, capacity included
	cap     int        // bucket capacity (split threshold)
	target  int        // post-split fill: ¾ of cap, so fresh buckets have headroom
	buckets []*forestBucket
	spine   [][]byte        // node i of spine[0] is buckets[i].node
	root    cryptoutil.Hash // memoized forest root; EmptyRoot when empty
	// spineOwned marks the spine arrays as private scratch (rebuilt since
	// the last view/checkpoint). It doubles as the did-anything-mutate flag
	// for expose: inserts always rebuild the spine, so spineOwned == false
	// implies no private bucket exists either.
	spineOwned bool
	// base is the non-empty checkpoint the layout was opened over, until
	// materialize lists its buckets: a layout that is only read costs no heap
	// per bucket. buckets and spine are empty while base is set.
	base *MappedState
}

// expose marks every array a view or checkpoint hands out as shared:
// spine levels and bucket trees lose their in-place merge right until the
// next insert rebuilds them fresh.
func (f *forestLayout) expose() {
	if !f.spineOwned {
		return
	}
	f.spineOwned = false
	for _, b := range f.buckets {
		b.private = false
	}
}

// newForestLayout builds an empty forest with the descriptor's capacity.
func newForestLayout(desc LayoutKind) *forestLayout {
	cap := desc.ForestCap()
	if cap == 0 {
		cap = DefaultForestBucketCap
	}
	return &forestLayout{desc: desc, cap: cap, target: cap * 3 / 4}
}

func (f *forestLayout) kind() LayoutKind { return f.desc }

// materialize lists the base checkpoint's buckets — O(#buckets), no hashing
// and no copying: every bucket, and the spine, keep reading the checkpoint
// until an insert rebuilds them.
func (f *forestLayout) materialize() {
	st := f.base
	if st == nil {
		return
	}
	f.base = nil
	f.buckets = make([]*forestBucket, st.nb)
	for bi := range f.buckets {
		b := st.bucket(bi, nil)
		f.buckets[bi] = &b
	}
	f.spine = st.spineRun().levels
}

func (f *forestLayout) insert(batch []Leaf) {
	if len(batch) == 0 {
		return
	}
	f.materialize()
	oldSpine, oldLen := f.spine, len(f.buckets)
	structFrom := -1 // first index where the bucket list changed shape (split)
	var dirty []int  // indices of value-changed (merged, unsplit) buckets
	var next []*forestBucket
	if oldLen == 0 {
		recs, hashes, _ := f.mergeLeaves(run{}, run{}, batch)
		next = f.chunkBuckets(serial.Number{}, serial.Number{}, recs, hashes)
		structFrom = 0
	} else {
		next = make([]*forestBucket, 0, oldLen+1)
		j := 0 // cursor into the sorted batch
		for _, b := range f.buckets {
			start := j
			for j < len(batch) && (b.hi.IsZero() || batch[j].Serial.Compare(b.hi) < 0) {
				j++
			}
			if start == j {
				next = append(next, b) // untouched: shared with the old version
				continue
			}
			sub := batch[start:j]
			old := b.tree
			if old.count()+len(sub) > f.cap {
				if structFrom < 0 {
					structFrom = len(next)
				}
				recs, hashes, _ := f.mergeLeaves(run{}, old, sub)
				next = append(next, f.chunkBuckets(b.lo, b.hi, recs, hashes)...)
				continue
			}
			if structFrom < 0 {
				dirty = append(dirty, len(next))
			}
			// A private bucket is scratch of this window: the sub-batch merges
			// into its arrays and the bucket object itself is reused. Anything
			// else is replaced by a fresh private bucket.
			nb := b
			if !b.private {
				nb = &forestBucket{lo: b.lo, hi: b.hi, private: true}
			}
			nb.tree = f.rebuild(old, sub, b.private)
			f.commitBucket(nb)
			next = append(next, nb)
		}
	}
	f.buckets = next
	f.rebuildSpine(oldSpine, oldLen, structFrom, dirty)
	f.spineOwned = true
}

// commitBucket memoizes the commitment of a bucket whose tree was rebuilt.
func (f *forestLayout) commitBucket(b *forestBucket) {
	b.node = cryptoutil.HashBucket(b.lo.Raw(), b.hi.Raw(), uint64(b.tree.count()), b.tree.root())
	f.hashed++
}

// chunkBuckets splits an oversized merged run covering [lo, hi) into evenly
// sized buckets of about f.target leaves, each built from scratch. Chunk
// boundaries become the new bucket bounds, preserving the tiling invariant;
// they alias the records, which no later insert writes (chunked buckets are
// never private).
func (f *forestLayout) chunkBuckets(lo, hi serial.Number, recs, hashes []byte) []*forestBucket {
	n := len(hashes) / cryptoutil.HashSize
	chunks := (n + f.target - 1) / f.target
	size := (n + chunks - 1) / chunks
	out := make([]*forestBucket, 0, chunks)
	for start := 0; start < n; start += size {
		end := min(start+size, n)
		b := &forestBucket{lo: lo, hi: hi}
		if start > 0 {
			b.lo = viewSerial(recSerial(recs, start))
		}
		if end < n {
			b.hi = viewSerial(recSerial(recs, end))
		}
		b.tree = run{
			recs:   recs[start*v2LeafRecSize : end*v2LeafRecSize],
			levels: f.buildLevels(nil, nil, hashes[start*cryptoutil.HashSize:end*cryptoutil.HashSize], nil),
		}
		f.commitBucket(b)
		out = append(out, b)
	}
	return out
}

// rebuildSpine recomputes the spine over the current buckets and memoizes
// the forest root. When the bucket list kept its shape, only the paths above
// the dirty buckets are rehashed (O(k·log #buckets)) — in the spine arrays
// themselves while they are still private scratch of this window, in copies
// of them otherwise; a split rebuilds the levels, keeping what lies left of
// the first changed index.
func (f *forestLayout) rebuildSpine(oldSpine [][]byte, oldLen, structFrom int, dirty []int) {
	if structFrom >= 0 || len(f.buckets) != oldLen {
		spine0 := make([]byte, len(f.buckets)*cryptoutil.HashSize)
		for i, b := range f.buckets {
			*nodeAt(spine0, i) = b.node
		}
		first := structFrom
		if len(dirty) > 0 && dirty[0] < first {
			first = dirty[0]
		}
		f.spine = f.buildLevels(nil, oldSpine, spine0, []span{{0, first, 0}})
	} else {
		if !f.spineOwned {
			f.spine = make([][]byte, len(oldSpine))
			for lvl, old := range oldSpine {
				f.spine[lvl] = slices.Clone(old)
			}
		}
		for _, idx := range dirty {
			*nodeAt(f.spine[0], idx) = f.buckets[idx].node
		}
		f.rehashSpinePaths(dirty)
	}
	f.root = cryptoutil.HashForestRoot(uint64(len(f.buckets)), *nodeAt(f.spine[len(f.spine)-1], 0))
	f.hashed++
}

// rehashSpinePaths rewrites, in f.spine, the nodes above the dirty level-0
// indices (sorted ascending). The parent work-list reuses the dirty slice's
// backing array (parent writes trail the reads: k-th append consumes ≥ k+1
// elements), so the walk allocates nothing.
func (f *forestLayout) rehashSpinePaths(dirty []int) {
	for lvl := 1; lvl < len(f.spine); lvl++ {
		parents := dirty[:0]
		for _, idx := range dirty {
			if k := idx / 2; len(parents) == 0 || parents[len(parents)-1] != k {
				f.hashPairs(f.spine[lvl], f.spine[lvl-1], k, k+1)
				parents = append(parents, k)
			}
		}
		dirty = parents
	}
}

func (f *forestLayout) view() LayoutView {
	if f.base != nil {
		return f.base.view()
	}
	f.expose()
	return &forestView{buckets: f.buckets, spine: run{levels: f.spine}, root: f.root}
}

func (f *forestLayout) rootHash() cryptoutil.Hash {
	if len(f.buckets) == 0 && f.base == nil {
		return EmptyRoot
	}
	return f.root
}

func (f *forestLayout) revoked(s serial.Number) (uint64, bool) {
	v := forestView{buckets: f.buckets, dir: f.base}
	return v.Revoked(s)
}

func (f *forestLayout) hashedNodes() uint64 { return f.hashed }

func (f *forestLayout) memoryFootprint() int {
	const bucketOverhead = 96 // two bounds, tree header, node, pointer
	total := 0
	for _, b := range f.buckets {
		total += bucketOverhead + len(b.tree.recs)
		for _, lvl := range b.tree.levels {
			total += len(lvl)
		}
	}
	for _, lvl := range f.spine {
		total += len(lvl)
	}
	return total
}

// forestState is the O(1) checkpoint of a forest layout: buckets are
// immutable and spine levels copy-on-write, so the slice headers pin one
// version forever.
type forestState struct {
	buckets []*forestBucket
	spine   [][]byte
	root    cryptoutil.Hash
	base    *MappedState
}

func (f *forestLayout) checkpoint() layoutState {
	// The captured bucket pointers and spine headers may be held until an
	// arbitrarily later restore: expose them so no in-place merge rewrites
	// what the checkpoint pinned.
	f.expose()
	return forestState{buckets: f.buckets, spine: f.spine, root: f.root, base: f.base}
}

func (f *forestLayout) restore(st layoutState) {
	s := st.(forestState)
	f.buckets, f.spine, f.root, f.base = s.buckets, s.spine, s.root, s.base
	// The reinstated state is the checkpointed (exposed) version; the
	// private scratch a failed replay built is dropped for the collector.
	f.spineOwned = false
}

// forestView is one immutable version of the forest's proving state: a
// bucket directory, a run per bucket and the spine over the bucket
// commitments. The directory is either a bucket list (heap layouts, and
// overlays whose untouched buckets still read the checkpoint) or, for a
// checkpoint served as is, the mapped directory section itself, which costs
// no heap at all.
type forestView struct {
	buckets []*forestBucket
	dir     *MappedState // the directory when buckets is nil
	spine   run
	root    cryptoutil.Hash
}

func (v *forestView) numBuckets() int {
	if v.dir != nil {
		return v.dir.nb
	}
	return len(v.buckets)
}

// maxBucketDepth is the depth of a tree over maxForestCap leaves: room for
// the level slice headers of any bucket, on the caller's stack.
const maxBucketDepth = 25

// bucket returns bucket i, decoding a mapped directory entry with its level
// slice headers appended to levels.
func (v *forestView) bucket(i int, levels [][]byte) forestBucket {
	if v.dir == nil {
		return *v.buckets[i]
	}
	return v.dir.bucket(i, levels)
}

func (v *forestView) Root() cryptoutil.Hash {
	if v.numBuckets() == 0 {
		return EmptyRoot
	}
	return v.root
}

// bucketFor returns the index of the bucket whose range contains s; the
// tiling invariant guarantees exactly one does.
func (v *forestView) bucketFor(s serial.Number) int {
	raw := s.Raw()
	return sort.Search(v.numBuckets(), func(i int) bool {
		var lo []byte
		if v.dir != nil {
			lo = v.dir.bucketLo(i)
		} else {
			lo = v.buckets[i].lo.Raw()
		}
		return len(lo) != 0 && compareRaw(lo, raw) > 0
	}) - 1
}

func (v *forestView) Revoked(s serial.Number) (uint64, bool) {
	if v.numBuckets() == 0 {
		return 0, false
	}
	var levels [maxBucketDepth][]byte
	b := v.bucket(v.bucketFor(s), levels[:0])
	return b.tree.revoked(s)
}

// Prove produces a presence or absence proof local to the bucket whose
// range contains s, plus the spine segment authenticating that bucket.
// Absence never crosses buckets: the committed range [lo, hi) proves that
// no other bucket could hold s, so the in-bucket neighbors (or boundary
// leaves) suffice.
func (v *forestView) Prove(s serial.Number) *Proof {
	if v.numBuckets() == 0 {
		return &Proof{Kind: ProofAbsenceEmpty}
	}
	bi := v.bucketFor(s)
	var levels [maxBucketDepth][]byte
	b := v.bucket(bi, levels[:0])
	sp := SpineSegment{
		BucketIndex: uint64(bi),
		NumBuckets:  uint64(v.numBuckets()),
		LeafCount:   uint64(b.tree.count()),
		Lo:          b.lo,
		Hi:          b.hi,
	}
	return prove(&b.tree, s, &sp, &v.spine, bi)
}
