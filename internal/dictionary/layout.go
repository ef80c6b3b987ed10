package dictionary

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
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
// in the result aliases the checkpoint bytes. Levels are read the way the
// checkpoint writer lays them out, one after the other, not node by node
// through node's per-call offset arithmetic: this is the restart path and
// the first insert after a map.
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
	src := r.level0
	for lvl, width := 0, r.count(); lvl < len(out.levels); lvl, width = lvl+1, (width+1)/2 {
		level := make([]cryptoutil.Hash, width)
		for i := range level {
			copy(level[i][:], src[i*cryptoutil.HashSize:])
		}
		out.levels[lvl] = level
		if src = src[width*cryptoutil.HashSize:]; lvl == 0 {
			src = r.upper
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

// grow returns s resized to n: in place when its capacity allows — a private
// arena being extended — and otherwise, always for the nil destination of a
// copy-on-write rebuild, a fresh array with arenaHeadroom slack.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n, n+arenaHeadroom(n))
}

// moveRight copies the non-empty src[lo:hi] to dst[lo+shift:hi+shift], except where that
// is the identity: shift 0 inside src's own array, the untouched prefix of an
// in-place rebuild, which a right-edge batch must not pay O(n) to rewrite.
func moveRight[T any](dst, src []T, lo, hi, shift int) {
	if shift != 0 || &dst[lo] != &src[lo] {
		copy(dst[lo+shift:hi+shift], src[lo:hi])
	}
}

// span says that nodes [lo, hi) of a rebuilt level are byte-identical to
// nodes [lo-shift, hi-shift) of the level they replace. On level 0 the spans
// are the merge's runs: between two insertion points the old leaves move
// right by the number of batch leaves before them.
type span struct{ lo, hi, shift int }

// rebuilder is the hashing state a layout rebuilds through: one reused
// digest, and the cumulative count of hashes computed with it.
type rebuilder struct {
	h      cryptoutil.TreeHasher
	hashed uint64
}

// rebuild merges a sorted batch into the heap run old and returns the run
// over the result. inPlace says old's arrays are private scratch (built
// since the last view/checkpoint, so no snapshot can reach them): they are
// then extended where their capacity allows; otherwise every array written
// is fresh and old — possibly aliased by a published view — is only read.
func (rb *rebuilder) rebuild(old run, batch []Leaf, inPlace bool) run {
	var dst run
	if inPlace {
		dst = old
	}
	leaves, hashes, keep := rb.mergeLeaves(dst, old, batch)
	return run{leaves: leaves, levels: rb.buildLevels(dst.levels, old.levels, hashes, keep)}
}

// mergeLeaves merges a sorted batch of new leaves, carrying their final
// revocation numbers, into the sorted leaves of old, hashing the new leaves.
// It writes into dst's leaf and level-0 arrays where they have the capacity
// (dst is old itself for an in-place merge) and into fresh ones where not,
// and returns the merged arrays and, per non-empty run of old leaves between
// two insertion points, the span it now occupies. Insertion points are searched,
// not scanned for, and whole runs move with one memmove each — rightmost
// first, so that in place no run lands on one not yet moved.
func (rb *rebuilder) mergeLeaves(dst, old run, batch []Leaf) ([]Leaf, []cryptoutil.Hash, []span) {
	var oldHashes, dstHashes []cryptoutil.Hash
	if len(old.levels) > 0 {
		oldHashes = old.levels[0]
	}
	if len(dst.levels) > 0 {
		dstHashes = dst.levels[0]
	}
	total := len(old.leaves) + len(batch)
	leaves, hashes := grow(dst.leaves, total), grow(dstHashes, total)
	keep := make([]span, 0, min(len(batch), len(old.leaves))+1)
	carry := func(at, end, shift int) { // old leaves [at, end) move right by shift
		if at < end {
			moveRight(leaves, old.leaves, at, end, shift)
			moveRight(hashes, oldHashes, at, end, shift)
			keep = append(keep, span{at + shift, end + shift, shift})
		}
	}
	end := len(old.leaves)
	for j := len(batch); j > 0; j-- {
		lf := batch[j-1]
		at := gallopLeft(old.leaves, end, lf.Serial)
		carry(at, end, j)
		leaves[at+j-1], hashes[at+j-1] = lf, rb.h.LeafSerial(lf.Serial.Raw(), lf.Num)
		rb.hashed++
		end = at
	}
	carry(0, end, 0)
	slices.Reverse(keep)
	return leaves, hashes, keep
}

// gallopLeft returns how many of sorted[:end] order below s, probing at
// doubling distances left of end before bisecting: the cost is logarithmic
// in the length of the run skipped, so a sparse batch never looks at most
// leaves and a dense one costs no more than a linear merge.
func gallopLeft(sorted []Leaf, end int, s serial.Number) int {
	lo, hi := 0, end
	for step := 1; step <= hi; step *= 2 {
		if sorted[hi-step].Serial.Compare(s) < 0 {
			lo = hi - step + 1
			break
		}
		hi -= step
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return sorted[lo+i].Serial.Compare(s) >= 0 })
}

// buildLevels computes the interior levels over level0, hashing only what
// keep — the spans of level0 carried over from old[0] — does not settle.
// A parent whose two children both lie in one span is the old parent
// shift/2 slots to its left when shift is even: the same two children hash
// to the same node. So each level halves the spans below it, drops the
// odd-shifted ones, moves what is left out of the old level (rightmost
// first, as in mergeLeaves) and hashes the gaps between. Span 0 (shift 0) is
// the classic "everything left of the first changed leaf is unchanged";
// for a uniform batch about a third of the interior nodes are moves. dst
// offers arrays to extend in place (the caller's private scratch; old
// itself for an in-place rebuild); with a nil dst every level is fresh and
// old is only read. keep is consumed. levels[0] aliases level0.
func (rb *rebuilder) buildLevels(dst, old [][]cryptoutil.Hash, level0 []cryptoutil.Hash, keep []span) [][]cryptoutil.Hash {
	if len(level0) == 0 {
		return nil
	}
	if dst == nil {
		dst = make([][]cryptoutil.Hash, 0, bits.Len(uint(len(level0)-1))+1)
	}
	levels := append(dst[:0], level0)
	for cur := level0; len(cur) > 1; cur = levels[len(levels)-1] {
		lvl, width := len(levels), (len(cur)+1)/2
		var prev, next []cryptoutil.Hash
		if lvl < len(old) {
			prev = old[lvl]
		}
		if lvl < len(dst) {
			next = dst[lvl]
		}
		next = grow(next, width)
		up := keep[:0]
		for _, s := range keep {
			if p := (span{(s.lo + 1) / 2, s.hi / 2, s.shift / 2}); s.shift%2 == 0 && p.lo < p.hi {
				up = append(up, p)
			}
		}
		keep = up
		for i := len(keep) - 1; i >= 0; i-- {
			s := keep[i]
			moveRight(next, prev, s.lo-s.shift, s.hi-s.shift, s.shift)
		}
		at := 0
		for _, s := range keep {
			rb.hashPairs(next, cur, at, s.lo)
			at = s.hi
		}
		rb.hashPairs(next, cur, at, width)
		levels = append(levels, next)
	}
	return levels
}

// hashPairs fills next[lo:hi] from the level below: node k hashes cur[2k]
// and cur[2k+1], and the odd rightmost node is promoted unchanged — the
// verifier reproduces the same rule from (index, size) alone.
func (rb *rebuilder) hashPairs(next, cur []cryptoutil.Hash, lo, hi int) {
	for k := lo; k < hi; k++ {
		if 2*k+1 < len(cur) {
			next[k] = rb.h.Node(&cur[2*k], &cur[2*k+1])
			rb.hashed++
		} else {
			next[k] = cur[2*k]
		}
	}
}
