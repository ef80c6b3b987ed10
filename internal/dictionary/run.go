package dictionary

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// run is the one representation of the dictionary's sorted leaves and the
// hash levels over them, on the heap and mapped alike: its bytes are laid out
// as the v2 checkpoint lays them out (see ckptv2.go) — 32-byte leaf records
// {num u64 LE, len u8, pad[3], serial[20]} and one array of 20-byte nodes per
// level, level 0 holding the leaf hashes — so a rebuild writes the arrays a
// checkpoint copies section by section, and a replica opened over a
// checkpoint reads its sections in place. Level l holds ⌈n/2ˡ⌉ nodes up to
// the single root, the contract buildLevels and the checkpoint writer share.
// A run is immutable once handed to a view; a Snapshot proves from one.
type run struct {
	recs   []byte   // count() leaf records of v2LeafRecSize bytes
	levels [][]byte // levels[l] holds ⌈n/2ˡ⌉ nodes of cryptoutil.HashSize bytes
}

// nodeAt returns node i of a level, in place.
func nodeAt(level []byte, i int) *cryptoutil.Hash {
	return (*cryptoutil.Hash)(level[i*cryptoutil.HashSize:])
}

// recSerial returns record i's canonical serial bytes, in place.
func recSerial(recs []byte, i int) []byte {
	rec := recs[i*v2LeafRecSize : (i+1)*v2LeafRecSize]
	return rec[12 : 12+rec[8]]
}

// recNum returns record i's revocation number.
func recNum(recs []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(recs[i*v2LeafRecSize:])
}

// putRec writes lf as the 32-byte record rec, padding included: an in-place
// merge reuses arena bytes, and the checkpoint copies records as they are.
func putRec(rec []byte, lf Leaf) {
	raw := lf.Serial.Raw()
	binary.LittleEndian.PutUint64(rec, lf.Num)
	clear(rec[8:v2LeafRecSize])
	rec[8] = byte(len(raw))
	copy(rec[12:], raw)
}

// searchRecs returns the first index in [lo, hi) whose serial orders at or
// above s, or hi.
func searchRecs(recs []byte, lo, hi int, s []byte) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareRaw(recSerial(recs, mid), s) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// count returns the width of level 0: the number of leaves.
func (r *run) count() int {
	if len(r.levels) == 0 {
		return 0
	}
	return len(r.levels[0]) / cryptoutil.HashSize
}

// depth returns the number of levels, root level included (0 when empty).
func (r *run) depth() int { return len(r.levels) }

// node returns node idx of level lvl.
func (r *run) node(lvl, idx int) cryptoutil.Hash { return *nodeAt(r.levels[lvl], idx) }

// root returns the run's root, EmptyRoot when it has no leaves.
func (r *run) root() cryptoutil.Hash {
	if r.count() == 0 {
		return EmptyRoot
	}
	return r.node(r.depth()-1, 0)
}

// serial returns leaf i's canonical serial bytes for comparison with
// compareRaw, without copying.
func (r *run) serial(i int) []byte { return recSerial(r.recs, i) }

// search returns the index of the first leaf with serial ≥ s.
func (r *run) search(s serial.Number) int { return searchRecs(r.recs, 0, r.count(), s.Raw()) }

// revoked reports whether s is a leaf, and its revocation number.
func (r *run) revoked(s serial.Number) (uint64, bool) {
	if lo := r.search(s); lo < r.count() && bytes.Equal(r.serial(lo), s.Raw()) {
		return recNum(r.recs, lo), true
	}
	return 0, false
}

// footprint returns the bytes the run's arrays hold.
func (r *run) footprint() int {
	total := len(r.recs)
	for _, lvl := range r.levels {
		total += len(lvl)
	}
	return total
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

// viewSerial returns canonical serial bytes as a serial.Number aliasing
// them. It is only handed serials out of a run, which insert or
// OpenMappedState validated, so failure is a bug.
func viewSerial(raw []byte) serial.Number {
	s, err := serial.View(raw)
	if err != nil {
		panic(err)
	}
	return s
}

// proofArena bundles a Proof with its leaf structs, the bytes of their
// serials and a single shared backing array for both audit paths. Status
// proving is the RA's hot path — each proof used to cost one heap object per
// struct plus one slice per path and serial; the arena packs all of it into
// two (the arena itself and the path array), sized exactly up front so
// append never reallocates. Holding its own serial bytes, a proof aliases no
// run: a mapping may be released while a cached Status still holds the
// proof.
type proofArena struct {
	proof   Proof
	leaves  [2]ProofLeaf
	nleaf   int
	paths   []cryptoutil.Hash
	serials [2][serial.MaxLen]byte
}

// appendPath appends the audit path for leaf idx of r to the shared array
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
	raw := r.serial(idx)
	pl.Serial = viewSerial(a.serials[a.nleaf][:copy(a.serials[a.nleaf][:], raw)])
	a.nleaf++
	pl.Num, pl.Index = recNum(r.recs, idx), uint64(idx)
	pl.Path = a.appendPath(r, idx, skip, top)
	return pl
}

// prove produces a presence or absence proof for s that verifies against
// r.root() and the leaf count, building the whole proof in one arena.
func (r *run) prove(s serial.Number) *Proof {
	n := r.count()
	if n == 0 {
		return &Proof{Kind: ProofAbsenceEmpty}
	}
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
	return &a.proof
}

// arenaHeadroom returns the extra bytes a fresh rebuild array carries beyond
// its content so that follow-up merges within the same private window
// (before the next view/checkpoint exposes the arrays) can extend it in
// place instead of reallocating.
func arenaHeadroom(n int) int { return n/8 + 4*v2LeafRecSize }

// grow returns s resized to n bytes: in place when its capacity allows — a
// private arena being extended — and otherwise, always for the nil
// destination of a copy-on-write rebuild, a fresh array with arenaHeadroom
// slack.
func grow(s []byte, n int) []byte {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]byte, n, n+arenaHeadroom(n))
}

// moveRight copies the elements [lo, hi) of size bytes each, a non-empty
// range, from src to dst shift elements further right, except where that is
// the identity: shift 0 inside src's own array, the untouched prefix of an
// in-place rebuild, which a right-edge batch must not pay O(n) to rewrite.
func moveRight(dst, src []byte, lo, hi, shift, size int) {
	if shift != 0 || &dst[lo*size] != &src[lo*size] {
		copy(dst[(lo+shift)*size:(hi+shift)*size], src[lo*size:hi*size])
	}
}

// span says that nodes [lo, hi) of a rebuilt level are byte-identical to
// nodes [lo-shift, hi-shift) of the level they replace. On level 0 the spans
// are the merge's runs: between two insertion points the old leaves move
// right by the number of batch leaves before them.
type span struct{ lo, hi, shift int }

// rebuilder is the hashing state a tree rebuilds through: one reused
// digest, and the cumulative count of hashes computed with it.
type rebuilder struct {
	h      cryptoutil.TreeHasher
	hashed uint64
}

// rebuild merges a sorted batch into the run old and returns the run over
// the result. inPlace says old's arrays are private scratch (built since the
// last view/checkpoint, so no snapshot can reach them): they are then
// extended where their capacity allows; otherwise every array written is
// fresh and old — possibly aliased by a published view, or the checkpoint
// the tree was opened over — is only read.
func (rb *rebuilder) rebuild(old run, batch []Leaf, inPlace bool) run {
	var dst run
	if inPlace {
		dst = old
	}
	recs, hashes, keep := rb.mergeLeaves(dst, old, batch)
	return run{recs: recs, levels: rb.buildLevels(dst.levels, old.levels, hashes, keep)}
}

// mergeLeaves merges a sorted batch of new leaves, carrying their final
// revocation numbers, into the sorted leaves of old, hashing the new leaves.
// It writes into dst's record and level-0 arrays where they have the
// capacity (dst is old itself for an in-place merge) and into fresh ones
// where not, and returns the merged arrays and, per non-empty run of old
// leaves between two insertion points, the span it now occupies. Insertion
// points are searched, not scanned for, and whole runs move with one memmove
// each — rightmost first, so that in place no run lands on one not yet moved.
func (rb *rebuilder) mergeLeaves(dst, old run, batch []Leaf) (recs, hashes []byte, keep []span) {
	var oldHashes, dstHashes []byte
	if len(old.levels) > 0 {
		oldHashes = old.levels[0]
	}
	if len(dst.levels) > 0 {
		dstHashes = dst.levels[0]
	}
	n := old.count()
	total := n + len(batch)
	recs, hashes = grow(dst.recs, total*v2LeafRecSize), grow(dstHashes, total*cryptoutil.HashSize)
	keep = make([]span, 0, min(len(batch), n)+1)
	carry := func(at, end, shift int) { // old leaves [at, end) move right by shift
		if at < end {
			moveRight(recs, old.recs, at, end, shift, v2LeafRecSize)
			moveRight(hashes, oldHashes, at, end, shift, cryptoutil.HashSize)
			keep = append(keep, span{at + shift, end + shift, shift})
		}
	}
	end := n
	for j := len(batch); j > 0; j-- {
		lf := batch[j-1]
		at := gallopLeft(old.recs, end, lf.Serial.Raw())
		carry(at, end, j)
		i := at + j - 1
		putRec(recs[i*v2LeafRecSize:], lf)
		*nodeAt(hashes, i) = rb.h.LeafSerial(lf.Serial.Raw(), lf.Num)
		rb.hashed++
		end = at
	}
	carry(0, end, 0)
	slices.Reverse(keep)
	return recs, hashes, keep
}

// gallopLeft returns how many of the records [0, end) order below s,
// probing at doubling distances left of end before bisecting: the cost is
// logarithmic in the length of the run skipped, so a sparse batch never looks
// at most leaves and a dense one costs no more than a linear merge.
func gallopLeft(recs []byte, end int, s []byte) int {
	lo, hi := 0, end
	for step := 1; step <= hi; step *= 2 {
		if compareRaw(recSerial(recs, hi-step), s) < 0 {
			lo = hi - step + 1
			break
		}
		hi -= step
	}
	return searchRecs(recs, lo, hi, s)
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
func (rb *rebuilder) buildLevels(dst, old [][]byte, level0 []byte, keep []span) [][]byte {
	const size = cryptoutil.HashSize
	if len(level0) == 0 {
		return nil
	}
	if dst == nil {
		dst = make([][]byte, 0, bits.Len(uint(len(level0)/size-1))+1)
	}
	levels := append(dst[:0], level0)
	for cur := level0; len(cur) > size; cur = levels[len(levels)-1] {
		lvl, width := len(levels), (len(cur)/size+1)/2
		var prev, next []byte
		if lvl < len(old) {
			prev = old[lvl]
		}
		if lvl < len(dst) {
			next = dst[lvl]
		}
		next = grow(next, width*size)
		up := keep[:0]
		for _, s := range keep {
			if p := (span{(s.lo + 1) / 2, s.hi / 2, s.shift / 2}); s.shift%2 == 0 && p.lo < p.hi {
				up = append(up, p)
			}
		}
		keep = up
		for i := len(keep) - 1; i >= 0; i-- {
			s := keep[i]
			moveRight(next, prev, s.lo-s.shift, s.hi-s.shift, s.shift, size)
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

// hashPairs fills nodes [lo, hi) of next from the level below: node k hashes
// nodes 2k and 2k+1 of cur, and the odd rightmost node is promoted unchanged
// — the verifier reproduces the same rule from (index, size) alone.
func (rb *rebuilder) hashPairs(next, cur []byte, lo, hi int) {
	n := len(cur) / cryptoutil.HashSize
	for k := lo; k < hi; k++ {
		if 2*k+1 < n {
			*nodeAt(next, k) = rb.h.Node(nodeAt(cur, 2*k), nodeAt(cur, 2*k+1))
			rb.hashed++
		} else {
			*nodeAt(next, k) = *nodeAt(cur, 2*k)
		}
	}
}
