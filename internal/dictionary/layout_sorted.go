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
	// tree is the whole dictionary as one run: heap arrays, or the bytes of
	// the checkpoint the layout was opened over until the first insert
	// copies them out (an insert rewrites everything right of the insertion
	// point, so there is no smaller unit to copy).
	tree   run
	hashed uint64
	// owned marks the arrays above as private scratch: (re)built since the
	// last view/checkpoint, so no published snapshot or captured checkpoint
	// can reach them and insert may extend them in place (the zero-realloc
	// arena path). view and checkpoint expose the arrays and clear it.
	owned bool
}

func (l *sortedLayout) kind() LayoutKind { return LayoutSorted }

func (l *sortedLayout) insert(batch []Leaf) {
	total := l.tree.count() + len(batch)
	if l.owned && cap(l.tree.leaves) >= total && cap(l.tree.levels[0]) >= total {
		merged, mergedHashes, firstChanged, leafOps := mergeLeavesInPlace(l.tree.leaves, l.tree.levels[0], batch)
		levels, nodeOps := buildLevelsInPlace(l.tree.levels, mergedHashes, firstChanged)
		l.tree = run{leaves: merged, levels: levels}
		l.hashed += leafOps + nodeOps
		return
	}
	old := l.tree.heap() // copies a mapped base out
	var oldHashes []cryptoutil.Hash
	if len(old.levels) > 0 {
		oldHashes = old.levels[0]
	}
	merged, mergedHashes, firstChanged, leafOps := mergeLeaves(old.leaves, oldHashes, batch)
	levels, nodeOps := buildLevels(mergedHashes, old.levels, firstChanged)
	l.tree = run{leaves: merged, levels: levels}
	l.hashed += leafOps + nodeOps
	l.owned = true
}

func (l *sortedLayout) view() LayoutView {
	l.owned = false
	return &sortedView{l.tree}
}

func (l *sortedLayout) rootHash() cryptoutil.Hash {
	if l.tree.count() == 0 {
		return EmptyRoot
	}
	return l.tree.root()
}

func (l *sortedLayout) revoked(s serial.Number) (uint64, bool) { return l.tree.revoked(s) }

func (l *sortedLayout) hashedNodes() uint64 { return l.hashed }

func (l *sortedLayout) memoryFootprint() int {
	const (
		hashBytes    = cryptoutil.HashSize
		leafOverhead = 24 + 8 // slice header of serial + num
	)
	total := 0
	for _, lvl := range l.tree.levels {
		total += len(lvl) * hashBytes
	}
	for _, lf := range l.tree.leaves {
		total += leafOverhead + lf.Serial.Len()
	}
	return total
}

// checkpoint is O(1): because every insert is copy-on-write, the slice
// headers of one version (the run, by value) pin it forever.
func (l *sortedLayout) checkpoint() layoutState {
	// The captured slice headers may be held until an arbitrarily later
	// restore: expose the arrays so no in-place merge rewrites them.
	l.owned = false
	return l.tree
}

func (l *sortedLayout) restore(st layoutState) {
	l.tree = st.(run)
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
