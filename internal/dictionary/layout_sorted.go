package dictionary

import (
	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// sortedLayout is the original commitment structure: one flat sorted hash
// tree over all leaves, with every interior level kept so audit paths are
// produced in O(log n) without recomputation. A batch insert merges the new
// leaves into the sorted order and rebuilds the interior levels around them
// (rebuilder.buildLevels): every leaf right of an insertion point shifts, so
// every array is rewritten from the first insertion point on — O(n) moved
// bytes for a batch anywhere but the right edge, the paper's "insert sₓ,n
// into the tree and rebuild it" — but a node is only rehashed where the shift
// breaks its alignment. A batch landing at the right edge of the serial
// space costs O(k·log n) hashes and moves; a uniform batch moves everything
// and hashes about two thirds of the interior nodes.
type sortedLayout struct {
	rebuilder
	// tree is the whole dictionary as one run: arrays an insert built, or
	// the sections of the checkpoint the layout was opened over, which the
	// first insert reads as its copy-on-write source like any exposed run.
	tree run
	// owned marks the arrays above as private scratch: (re)built since the
	// last view/checkpoint, so no published snapshot or captured checkpoint
	// can reach them and insert may extend them in place (the zero-realloc
	// arena path). view and checkpoint expose the arrays and clear it.
	owned bool
}

func (l *sortedLayout) kind() LayoutKind { return LayoutSorted }

func (l *sortedLayout) insert(batch []Leaf) {
	l.tree = l.rebuild(l.tree, batch, l.owned)
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
	total := len(l.tree.recs)
	for _, lvl := range l.tree.levels {
		total += len(lvl)
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
// state: the whole dictionary as one run.
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
