package dictionary

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// LayoutKind is a layout descriptor: the commitment structure behind a
// dictionary tree, plus the structure's shape parameters (today: the
// forest's bucket capacity). It is a single comparable value so that every
// configuration surface that already carried "which layout" — authority
// configs, replica constructors, -layout flags, persisted checkpoints —
// carries the full proof-shape contract with no extra plumbing.
//
// The descriptor changes the root hash a dictionary commits to — authority
// and replica MUST be configured with the same descriptor or every
// replayed update fails with ErrRootMismatch (the signed-root match
// contract of Fig 2 is per-layout, and bucketization depends on the cap).
// The issuance log, the dissemination wire formats, and the sync protocol
// are layout-agnostic: only roots and proofs differ.
//
// Encoding: the low 8 bits are the structure kind; the bits above carry
// the forest bucket capacity (0 = the 256-leaf default). LayoutForest ==
// LayoutForestWithCap(DefaultForestBucketCap), so code comparing against
// the named constants keeps working for default-capacity deployments.
type LayoutKind uint32

// Supported layouts.
const (
	// LayoutSorted is one flat sorted hash tree over all leaves. Inserts at
	// the right edge of the serial space cost O(k·log n); inserts anywhere
	// else shift every leaf to their right and cost up to O(n) rehashing.
	// Proofs are the classic single audit path.
	LayoutSorted LayoutKind = iota
	// LayoutForest partitions the leaves by serial range into bounded
	// buckets (split on overflow), each a small sorted hash tree, with a
	// spine tree over the bucket commitments. An insert rehashes only its
	// bucket plus a spine path, so a k-insert batch costs O(k·log n)
	// amortized for ANY serial distribution — the uniform (random-serial)
	// case that costs the sorted layout O(n) per batch. Proofs carry an
	// extra SpineSegment. Buckets hold at most DefaultForestBucketCap
	// leaves; LayoutForestWithCap tunes the bound.
	LayoutForest
)

// DefaultForestBucketCap is the forest bucket capacity selected by plain
// LayoutForest. 256 keeps the in-bucket rehash of one insert two to three
// orders of magnitude below the whole-dictionary rehash the sorted layout
// pays, while the proof (in-bucket path + spine path) stays within a hash
// or two of the sorted layout's single path: log₂(cap) + log₂(n/cap) ≈
// log₂(n).
const DefaultForestBucketCap = 256

// Forest bucket capacity bounds. The minimum keeps the ¾-fill split
// target at least one leaf; the maximum is what fits in the descriptor.
const (
	minForestCap = 4
	maxForestCap = 1<<24 - 1
)

// layoutKindMask extracts the structure kind from a descriptor.
const layoutKindMask LayoutKind = 0xff

// LayoutForestWithCap returns the forest layout descriptor with buckets of
// at most cap leaves — the tuning knob for corpora whose batch sizes or
// proof-size budgets differ from the default's sweet spot (larger caps:
// fewer, taller buckets, smaller spine; smaller caps: cheaper inserts,
// more spine). cap is clamped to [4, 2²⁴−1]; cap 0 or
// DefaultForestBucketCap normalizes to plain LayoutForest, so descriptor
// equality means proof-shape equality. The capacity is part of the root
// commitment contract: every replica, and every persisted checkpoint,
// carries it.
func LayoutForestWithCap(cap int) LayoutKind {
	switch {
	case cap <= 0 || cap == DefaultForestBucketCap:
		return LayoutForest
	case cap < minForestCap:
		cap = minForestCap
	case cap > maxForestCap:
		cap = maxForestCap
	}
	return LayoutForest | LayoutKind(cap)<<8
}

// base returns the structure kind without shape parameters.
func (k LayoutKind) base() LayoutKind { return k & layoutKindMask }

// ForestCap returns the forest bucket capacity the descriptor selects
// (DefaultForestBucketCap for plain LayoutForest), or 0 for non-forest
// layouts.
func (k LayoutKind) ForestCap() int {
	if k.base() != LayoutForest {
		return 0
	}
	if cap := int(k >> 8); cap != 0 {
		return cap
	}
	return DefaultForestBucketCap
}

// String returns the layout's flag/config name.
func (k LayoutKind) String() string {
	switch k.base() {
	case LayoutSorted:
		return "sorted"
	case LayoutForest:
		if cap := int(k >> 8); cap != 0 {
			return fmt.Sprintf("forest:%d", cap)
		}
		return "forest"
	default:
		return fmt.Sprintf("LayoutKind(%d)", uint32(k))
	}
}

// ParseLayout maps a flag/config name to its LayoutKind. The forest's
// bucket capacity may be given inline as "forest:512".
func ParseLayout(s string) (LayoutKind, error) {
	switch s {
	case "sorted", "":
		return LayoutSorted, nil
	case "forest":
		return LayoutForest, nil
	}
	if rest, ok := strings.CutPrefix(s, "forest:"); ok {
		cap, err := strconv.Atoi(rest)
		if err != nil || cap < minForestCap || cap > maxForestCap {
			return 0, fmt.Errorf("dictionary: forest bucket capacity %q (want %d–%d)", rest, minForestCap, maxForestCap)
		}
		return LayoutForestWithCap(cap), nil
	}
	return 0, fmt.Errorf("dictionary: unknown layout %q (want sorted, forest, or forest:<cap>)", s)
}

// Layouts lists every supported layout; benches and CLIs iterate it.
func Layouts() []LayoutKind { return []LayoutKind{LayoutSorted, LayoutForest} }

// Layout is the pluggable commitment structure behind a Tree: it owns the
// hashed representation (leaves, interior nodes, roots) while the Tree keeps
// the layout-independent state (issuance log, batch bounds, validation).
// Implementations live in this package and are selected by LayoutKind; all
// of them follow the same copy-on-write discipline as the original sorted
// tree — insert never writes into arrays reachable from a previously
// returned view, so published Snapshots stay immutable forever.
//
// Scratch-arena discipline: copy-on-write only requires fresh arrays for
// state that somebody outside the layout can still reach. Each layout
// therefore tracks exposure explicitly — arrays built by insert are
// *private* until view or checkpoint hands a reference out, and a second
// insert in the same private window (a multi-sub-batch replay between one
// Replica checkpoint and the next publish) merges into them in place with
// zero reallocation. The accounting is exact, not heuristic: at most two
// versions are ever live per tree — the last exposed one (pinned by
// whatever snapshot or checkpoint observed it) and the private pending one
// — and only the private buffer is ever written. Exposure is one-way per
// array generation; restore after a rejected update reinstates exposed
// arrays and drops the private scratch.
type Layout interface {
	// kind identifies the layout.
	kind() LayoutKind
	// insert merges a batch of pre-validated leaves, sorted by serial and
	// carrying their final revocation numbers, into the structure.
	insert(batch []Leaf)
	// view returns the current immutable version and marks the arrays
	// behind it exposed: no later insert may write them in place.
	view() LayoutView
	// rootHash returns the current root (EmptyRoot when empty) WITHOUT
	// exposing the arrays — the replica's post-replay root check must not
	// end the private window a multi-batch replay is still inside.
	rootHash() cryptoutil.Hash
	// revoked reports whether s is a leaf, and its revocation number, like
	// rootHash without exposing the arrays: it is the duplicate check of
	// every insert, sub-batches of one replay included.
	revoked(s serial.Number) (uint64, bool)
	// hashedNodes returns the cumulative number of hash computations (leaf,
	// interior, bucket, and root hashes) performed by inserts — the cost
	// metric BenchmarkUniformInsert compares across layouts.
	hashedNodes() uint64
	// memoryFootprint estimates resident bytes of the hashed structure.
	memoryFootprint() int
	// checkpoint captures the current version's state; restore rewinds to
	// it. Both are O(1) thanks to copy-on-write: a checkpoint is just the
	// slice headers of the current version.
	checkpoint() layoutState
	// restore rewinds the layout to a state captured by checkpoint.
	restore(layoutState)
}

// LayoutView is one immutable version of a layout's proving state. All
// methods are read-only and safe for unsynchronized concurrent use.
type LayoutView interface {
	// Root returns the version's root hash (EmptyRoot when empty).
	Root() cryptoutil.Hash
	// Revoked reports whether s is a leaf, and its revocation number.
	Revoked(s serial.Number) (uint64, bool)
	// Prove produces a presence or absence proof for s that verifies
	// against Root() (and, for the sorted layout, the leaf count).
	Prove(s serial.Number) *Proof
}

// layoutState is an opaque checkpoint; each layout returns its own type.
type layoutState interface{}

// newLayout constructs an empty layout of the given descriptor.
func newLayout(kind LayoutKind) Layout {
	switch kind.base() {
	case LayoutForest:
		return newForestLayout(kind)
	default:
		return &sortedLayout{}
	}
}

// run is the one read-only accessor every proof is built through: a sorted
// leaf run plus the hash levels over it. It is backed either by heap slices
// (a layout's arrays; levels[0] is the leaf-hash array) or by the bytes of a
// v2 checkpoint (32-byte leaf records, the level-0 hash array, and levels
// ≥ 1 concatenated — see ckptv2.go), so the sorted layout is one run and a
// forest is a bucket directory, a run per bucket and a leafless run for the
// spine, whatever mix of heap and mapped storage holds them. Both forms have
// the same shape — level l holds ⌈n/2ˡ⌉ nodes up to the single root, the
// contract buildLevels and the checkpoint writer share — and answer with
// the same bytes, which is what makes heap, mapped and overlay proofs
// identical. A run is immutable once handed to a view.
type run struct {
	leaves []Leaf
	levels [][]cryptoutil.Hash

	recs   []byte // mapped leaf records; nil for a spine
	level0 []byte // mapped level 0; non-nil selects the mapped form
	upper  []byte // mapped levels ≥ 1, level 1 first
}

func (r *run) mapped() bool { return r.level0 != nil }

// count returns the width of level 0: the number of leaves (of bucket
// commitments, for a spine).
func (r *run) count() int {
	switch {
	case r.mapped():
		return len(r.level0) / cryptoutil.HashSize
	case len(r.levels) == 0:
		return 0
	}
	return len(r.levels[0])
}

// depth returns the number of levels, root level included (0 when empty).
func (r *run) depth() int {
	if n := r.count(); r.mapped() && n > 0 {
		return bits.Len(uint(n-1)) + 1
	}
	return len(r.levels)
}

// upperOffset returns how many nodes levels 1..lvl-1 of a tree over n ≥ 1
// leaves hold, i.e. where level lvl ≥ 1 starts inside the concatenated
// upper levels. Level j holds ⌈n/2ʲ⌉ = ((n-1)>>j)+1 nodes, and for any m,
// Σ_{j≥1} m>>j = m − popcount(m); cutting that sum off after k = lvl−1
// terms subtracts the same identity applied to m>>k.
func upperOffset(n, lvl int) int {
	m, k := uint(n-1), lvl-1
	return k + int(m) - bits.OnesCount(m) - int(m>>k) + bits.OnesCount(m>>k)
}

// node returns node idx of level lvl. (The mapped arm is split off, and
// serial below kept to slicing, so that both inline into the walker's
// loops: the heap path pays for the accessor with a predictable branch.)
func (r *run) node(lvl, idx int) cryptoutil.Hash {
	if !r.mapped() {
		return r.levels[lvl][idx]
	}
	return r.mappedNode(lvl, idx)
}

func (r *run) mappedNode(lvl, idx int) (h cryptoutil.Hash) {
	if lvl == 0 {
		copy(h[:], r.level0[idx*cryptoutil.HashSize:])
	} else {
		copy(h[:], r.upper[(upperOffset(r.count(), lvl)+idx)*cryptoutil.HashSize:])
	}
	return h
}

// root returns the run's root; callers guarantee at least one leaf.
func (r *run) root() cryptoutil.Hash { return r.node(r.depth()-1, 0) }

// serial returns leaf i's canonical serial bytes for comparison with
// compareRaw, without copying: a mapped leaf's alias the checkpoint.
func (r *run) serial(i int) []byte {
	if !r.mapped() {
		return r.leaves[i].Serial.Raw()
	}
	rec := r.recs[i*v2LeafRecSize : (i+1)*v2LeafRecSize]
	return rec[12 : 12+rec[8]]
}

// leaf copies leaf i out. Nothing in the result aliases checkpoint bytes:
// a mapping may be released while a cached Status still holds the proof.
func (r *run) leaf(i int) Leaf {
	if !r.mapped() {
		return r.leaves[i]
	}
	return Leaf{Serial: mustNumber(r.serial(i)), Num: binary.LittleEndian.Uint64(r.recs[i*v2LeafRecSize:])}
}

// search returns the index of the first leaf with serial ≥ s.
func (r *run) search(s serial.Number) int {
	raw := s.Raw()
	lo, hi := 0, r.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if compareRaw(r.serial(mid), raw) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// revoked reports whether s is a leaf, and its revocation number.
func (r *run) revoked(s serial.Number) (uint64, bool) {
	if lo := r.search(s); lo < r.count() && bytes.Equal(r.serial(lo), s.Raw()) {
		return r.leaf(lo).Num, true
	}
	return 0, false
}

// heap returns the run as heap slices: r itself when it already is, else a
// copy of every leaf and node off the checkpoint — no hashing, and nothing
// in the result aliases the checkpoint bytes.
func (r *run) heap() run {
	if !r.mapped() {
		return *r
	}
	out := run{levels: make([][]cryptoutil.Hash, r.depth())}
	if r.recs != nil {
		out.leaves = make([]Leaf, r.count())
		for i := range out.leaves {
			out.leaves[i] = r.leaf(i)
		}
	}
	for lvl, width := 0, r.count(); lvl < len(out.levels); lvl, width = lvl+1, (width+1)/2 {
		out.levels[lvl] = make([]cryptoutil.Hash, width)
		for i := range out.levels[lvl] {
			out.levels[lvl][i] = r.node(lvl, i)
		}
	}
	return out
}

// compareRaw orders two canonical serial encodings the way serial.Number
// does: by length, then lexicographically — numeric order for minimal
// big-endian encodings.
func compareRaw(a, b []byte) int {
	if d := len(a) - len(b); d != 0 {
		if d < 0 {
			return -1
		}
		return 1
	}
	return bytes.Compare(a, b)
}

// mustNumber copies canonical serial bytes (empty = an unbounded bucket
// bound) into a serial.Number. Heap serials were validated on insert and
// OpenMappedState validated every mapped one, so failure is a bug.
func mustNumber(raw []byte) serial.Number {
	if len(raw) == 0 {
		return serial.Number{}
	}
	s, err := serial.New(raw)
	if err != nil {
		panic(err)
	}
	return s
}

// proofArena bundles a Proof with its leaf structs, spine segment, and a
// single shared backing array for every audit path in the proof. Status
// proving is the RA's hot path — each proof used to cost one heap object
// per struct plus one slice per path (7+ allocations for a forest
// absence); the arena packs all of it into two (the arena itself and the
// path array), sized exactly up front so append never reallocates.
type proofArena struct {
	proof  Proof
	leaves [2]ProofLeaf
	spine  SpineSegment
	nleaf  int
	paths  []cryptoutil.Hash
}

// appendPath appends the audit path for position idx of r's level 0 — a
// dictionary leaf, or a bucket's position in a spine — to the shared array
// and returns the capped segment holding it: the siblings on levels
// [0, top) except level skip; top is at most r.depth()-1, the root having
// none.
func (a *proofArena) appendPath(r *run, idx, skip, top int) []cryptoutil.Hash {
	start, last := len(a.paths), r.count()-1
	for lvl := 0; lvl < top; lvl++ {
		if sib := idx>>lvl ^ 1; sib <= last>>lvl && lvl != skip {
			a.paths = append(a.paths, r.node(lvl, sib))
		}
		// Odd rightmost node has no sibling: promoted, no path element.
	}
	return a.paths[start:len(a.paths):len(a.paths)]
}

// fillLeaf populates the arena's next inline ProofLeaf from leaf idx of r,
// skip and top selecting its Path as in appendPath.
func (a *proofArena) fillLeaf(r *run, idx, skip, top int) *ProofLeaf {
	pl := &a.leaves[a.nleaf]
	a.nleaf++
	lf := r.leaf(idx)
	pl.Serial, pl.Num, pl.Index = lf.Serial, lf.Num, uint64(idx)
	pl.Path = a.appendPath(r, idx, skip, top)
	return pl
}

// prove runs the presence/absence switch for s over the leaves of r,
// building the whole proof in one arena. sp, when non-nil, is the spine
// segment metadata of the forest bucket r is (Path unset), and position
// spineIdx of spine is that bucket. Callers guarantee at least one leaf.
func prove(r *run, s serial.Number, sp *SpineSegment, spine *run, spineIdx int) *Proof {
	n := r.count()
	lo := r.search(s)
	kind := ProofAbsence
	li, ri := -1, -1
	switch {
	case lo < n && bytes.Equal(r.serial(lo), s.Raw()):
		kind, li = ProofPresence, lo
	case lo == 0:
		// s precedes every leaf: the first leaf bounds it from above.
		ri = 0
	case lo == n:
		// s follows every leaf: the last leaf bounds it from below.
		li = n - 1
	default:
		// s falls strictly between two adjacent leaves.
		li, ri = lo-1, lo
	}
	// A lone leaf carries its whole audit path. Two bracketing leaves share
	// one (see pairRoot): their climbs meet above level fork — one level per
	// trailing 1 bit of li — where the two are each other's sibling, so that
	// level is left out; Right carries only its siblings below it, Left its
	// own below it and the common path above.
	top := r.depth() - 1
	fork, pathCap := top, top
	if li >= 0 && ri >= 0 {
		fork = bits.TrailingZeros(^uint(li))
		pathCap += fork - 1
	}
	if sp != nil {
		pathCap += spine.depth() - 1
	}
	a := &proofArena{}
	a.proof.Kind = kind
	if pathCap > 0 {
		a.paths = make([]cryptoutil.Hash, 0, pathCap)
	}
	if li >= 0 {
		a.proof.Left = a.fillLeaf(r, li, fork, top)
	}
	if ri >= 0 {
		a.proof.Right = a.fillLeaf(r, ri, fork, fork)
	}
	if sp != nil {
		a.spine = *sp
		a.spine.Path = a.appendPath(spine, spineIdx, -1, spine.depth()-1)
		a.proof.Spine = &a.spine
	}
	return &a.proof
}

// arenaHeadroom returns the extra capacity a fresh rebuild array carries
// beyond its content so that follow-up merges within the same private
// window (before the next view/checkpoint exposes the arrays) can extend
// it in place instead of reallocating.
func arenaHeadroom(n int) int { return n/8 + 4 }

// mergeLeaves merges a sorted batch of new leaves into the sorted existing
// run, hashing the new leaves as it goes. It writes into fresh arrays
// (copy-on-write): the previous version's arrays — possibly aliased by a
// published view — are never touched. Unchanged runs between insertion
// points are copied whole (one memmove per run, not one append per leaf),
// and the arrays carry arenaHeadroom slack so the in-place variant below
// can extend them on the next merge of the same private window. It returns
// the merged arrays, the merged index of the first new leaf (-1 for an
// empty batch), and the number of leaf hashes computed.
func mergeLeaves(oldLeaves []Leaf, oldHashes []cryptoutil.Hash, batch []Leaf) (merged []Leaf, mergedHashes []cryptoutil.Hash, firstChanged int, hashOps uint64) {
	total := len(oldLeaves) + len(batch)
	merged = make([]Leaf, 0, total+arenaHeadroom(total))
	mergedHashes = make([]cryptoutil.Hash, 0, cap(merged))
	firstChanged = -1
	i := 0
	for j := 0; j < len(batch); j++ {
		run := i
		for run < len(oldLeaves) && oldLeaves[run].Serial.Compare(batch[j].Serial) < 0 {
			run++
		}
		if run > i {
			merged = append(merged, oldLeaves[i:run]...)
			mergedHashes = append(mergedHashes, oldHashes[i:run]...)
			i = run
		}
		if firstChanged < 0 {
			firstChanged = len(merged)
		}
		merged = append(merged, batch[j])
		mergedHashes = append(mergedHashes, batch[j].hash())
		hashOps++
	}
	merged = append(merged, oldLeaves[i:]...)
	mergedHashes = append(mergedHashes, oldHashes[i:]...)
	return merged, mergedHashes, firstChanged, hashOps
}

// mergeLeavesInPlace is mergeLeaves for arrays the caller owns privately
// (built since the last view/checkpoint, so no snapshot can reach them):
// the batch is merged backward into the existing backing arrays with zero
// allocation. The caller guarantees cap(leaves) and cap(hashes) hold
// len(leaves)+len(batch). Results are identical to mergeLeaves.
func mergeLeavesInPlace(leaves []Leaf, hashes []cryptoutil.Hash, batch []Leaf) (merged []Leaf, mergedHashes []cryptoutil.Hash, firstChanged int, hashOps uint64) {
	n, k := len(leaves), len(batch)
	leaves = leaves[:n+k]
	hashes = hashes[:n+k]
	firstChanged = -1
	// Backward merge: the write cursor w stays strictly ahead of the old
	// read cursor i until the batch is exhausted, so no unread old leaf is
	// ever overwritten; the untouched old prefix is already in place.
	i, w := n-1, n+k-1
	for j := k - 1; j >= 0; w-- {
		if i >= 0 && leaves[i].Serial.Compare(batch[j].Serial) > 0 {
			leaves[w] = leaves[i]
			hashes[w] = hashes[i]
			i--
		} else {
			leaves[w] = batch[j]
			hashes[w] = batch[j].hash()
			hashOps++
			firstChanged = w
			j--
		}
	}
	return leaves, hashes, firstChanged, hashOps
}

// buildLevels recomputes the interior levels over leafHashes, reusing every
// node left of leaf index firstChanged from oldLevels: those nodes cover
// only unchanged, unshifted leaves, so their values — including the
// odd-promotion rule, which depends only on indices below them — are
// identical. Fresh arrays are allocated for every level, never written
// through oldLevels, preserving snapshot immutability. It returns the new
// levels (levels[0] aliases leafHashes) and the number of interior hashes
// computed.
//
// A negative firstChanged (no leaf changed) still rebuilds everything, as
// does 0; callers pass the merge position of the first inserted leaf.
func buildLevels(leafHashes []cryptoutil.Hash, oldLevels [][]cryptoutil.Hash, firstChanged int) ([][]cryptoutil.Hash, uint64) {
	if len(leafHashes) == 0 {
		return nil, 0
	}
	if firstChanged < 0 {
		firstChanged = 0
	}
	var hashOps uint64
	levels := make([][]cryptoutil.Hash, 1, 2+bitsLen(len(leafHashes)))
	levels[0] = leafHashes
	cur := leafHashes
	dirty := firstChanged // first index of cur that differs from oldLevels
	for lvl := 0; len(cur) > 1; lvl++ {
		parents := (len(cur) + 1) / 2
		next := make([]cryptoutil.Hash, parents, parents+arenaHeadroom(parents))
		// A parent k is unchanged iff both children are below dirty, i.e.
		// 2k+1 < dirty — and the old level must actually hold it.
		keep := dirty / 2
		if lvl+1 < len(oldLevels) {
			if n := len(oldLevels[lvl+1]); keep > n {
				keep = n
			}
			copy(next[:keep], oldLevels[lvl+1])
		} else {
			keep = 0
		}
		for k := keep; k < parents; k++ {
			if 2*k+1 < len(cur) {
				next[k] = cryptoutil.HashNode(cur[2*k], cur[2*k+1])
				hashOps++
			} else {
				// Odd rightmost node: promoted unchanged; the verifier
				// reproduces the same rule from (index, size) alone.
				next[k] = cur[len(cur)-1]
			}
		}
		levels = append(levels, next)
		cur = next
		dirty = keep
	}
	return levels, hashOps
}

// buildLevelsInPlace is buildLevels for a level structure the caller owns
// privately: the prefix of each level left of the dirty frontier is already
// correct in place (same arrays, nothing shifted below firstChanged), so
// only the dirty suffixes are recomputed, into the same backing arrays
// where capacity allows. levels[0] must be (a possibly extended slice of)
// the structure's leaf-hash array, passed as leafHashes with its new
// length. Results are identical to buildLevels over the same leaf hashes.
func buildLevelsInPlace(levels [][]cryptoutil.Hash, leafHashes []cryptoutil.Hash, firstChanged int) ([][]cryptoutil.Hash, uint64) {
	if len(leafHashes) == 0 {
		return nil, 0
	}
	if firstChanged < 0 {
		firstChanged = 0
	}
	var hashOps uint64
	out := levels[:1]
	out[0] = leafHashes
	cur := leafHashes
	dirty := firstChanged
	for lvl := 1; len(cur) > 1; lvl++ {
		parents := (len(cur) + 1) / 2
		keep := dirty / 2
		var next []cryptoutil.Hash
		if lvl < len(levels) {
			old := levels[lvl]
			if keep > len(old) {
				keep = len(old)
			}
			if cap(old) >= parents {
				next = old[:parents]
			} else {
				next = make([]cryptoutil.Hash, parents, parents+arenaHeadroom(parents))
				copy(next[:keep], old[:keep])
			}
		} else {
			next = make([]cryptoutil.Hash, parents, parents+arenaHeadroom(parents))
			keep = 0
		}
		for k := keep; k < parents; k++ {
			if 2*k+1 < len(cur) {
				next[k] = cryptoutil.HashNode(cur[2*k], cur[2*k+1])
				hashOps++
			} else {
				next[k] = cur[len(cur)-1]
			}
		}
		out = append(out, next)
		cur = next
		dirty = keep
	}
	return out, hashOps
}

// bitsLen returns ⌈log₂(n)⌉-ish capacity hint for the level slice.
func bitsLen(n int) int {
	b := 0
	for n > 1 {
		n = (n + 1) / 2
		b++
	}
	return b
}
