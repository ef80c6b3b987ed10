package dictionary

import (
	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// sortedLayout is the original commitment structure: one flat sorted hash
// tree over all leaves, with every interior level kept so audit paths are
// produced in O(log n) without recomputation. A batch insert merges the new
// leaves into the sorted order and recomputes interior levels incrementally:
// every node left of the first changed leaf position is copied from the
// previous version, and only nodes at or right of it are rehashed. A batch
// landing at the right edge of the serial space therefore costs O(k·log n);
// a batch landing at position p costs O(n−p) (positions shift, so everything
// to the right re-pairs), with the full O(n) of the paper's "insert sₓ,n
// into the tree and rebuild it" as the worst case.
type sortedLayout struct {
	leaves     []Leaf            // sorted by serial
	leafHashes []cryptoutil.Hash // parallel to leaves; == levels[0]
	levels     [][]cryptoutil.Hash
	hashed     uint64
	// owned marks the arrays above as private scratch: (re)built since the
	// last view/checkpoint, so no published snapshot or captured checkpoint
	// can reach them and insert may extend them in place (the zero-realloc
	// arena path). view and checkpoint expose the arrays and clear it.
	owned bool
}

func (l *sortedLayout) kind() LayoutKind { return LayoutSorted }

func (l *sortedLayout) insert(batch []Leaf) {
	total := len(l.leaves) + len(batch)
	if l.owned && cap(l.leaves) >= total && cap(l.leafHashes) >= total {
		merged, mergedHashes, firstChanged, leafOps := mergeLeavesInPlace(l.leaves, l.leafHashes, batch)
		levels, nodeOps := buildLevelsInPlace(l.levels, mergedHashes, firstChanged)
		l.leaves = merged
		l.leafHashes = mergedHashes
		l.levels = levels
		l.hashed += leafOps + nodeOps
		return
	}
	merged, mergedHashes, firstChanged, leafOps := mergeLeaves(l.leaves, l.leafHashes, batch)
	levels, nodeOps := buildLevels(mergedHashes, l.levels, firstChanged)
	l.leaves = merged
	l.leafHashes = mergedHashes
	l.levels = levels
	l.hashed += leafOps + nodeOps
	l.owned = true
}

func (l *sortedLayout) view() LayoutView {
	l.owned = false
	return &sortedView{run{leaves: l.leaves, levels: l.levels}}
}

func (l *sortedLayout) rootHash() cryptoutil.Hash {
	if len(l.leaves) == 0 {
		return EmptyRoot
	}
	return l.levels[len(l.levels)-1][0]
}

func (l *sortedLayout) hashedNodes() uint64 { return l.hashed }

func (l *sortedLayout) memoryFootprint() int {
	const (
		hashBytes    = cryptoutil.HashSize
		leafOverhead = 24 + 8 // slice header of serial + num
	)
	total := 0
	for _, lvl := range l.levels {
		total += len(lvl) * hashBytes
	}
	for _, lf := range l.leaves {
		total += leafOverhead + lf.Serial.Len()
	}
	return total
}

// sortedState is the O(1) checkpoint of a sorted layout: because every
// insert is copy-on-write, the slice headers of one version pin it forever.
type sortedState struct {
	leaves     []Leaf
	leafHashes []cryptoutil.Hash
	levels     [][]cryptoutil.Hash
}

func (l *sortedLayout) checkpoint() layoutState {
	// The captured slice headers may be held until an arbitrarily later
	// restore: expose the arrays so no in-place merge rewrites them.
	l.owned = false
	return sortedState{leaves: l.leaves, leafHashes: l.leafHashes, levels: l.levels}
}

func (l *sortedLayout) restore(st layoutState) {
	s := st.(sortedState)
	l.leaves, l.leafHashes, l.levels = s.leaves, s.leafHashes, s.levels
	// The reinstated arrays are the checkpointed (exposed) version; the
	// private scratch a failed replay built is dropped for the collector.
	l.owned = false
}

// sortedView is one immutable version of the sorted layout's proving
// state: the whole dictionary as one run, heap or mapped.
type sortedView struct {
	run
}

func (v *sortedView) Root() cryptoutil.Hash {
	if v.count() == 0 {
		return EmptyRoot
	}
	return v.run.root()
}

func (v *sortedView) Revoked(s serial.Number) (uint64, bool) {
	return v.revoked(s)
}

// Prove produces a presence or absence proof for s. The proof verifies
// against Root() and the leaf count.
func (v *sortedView) Prove(s serial.Number) *Proof {
	if v.count() == 0 {
		return &Proof{Kind: ProofAbsenceEmpty}
	}
	return prove(&v.run, s, nil, nil, 0)
}
