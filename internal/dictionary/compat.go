package dictionary

import (
	"crypto/ed25519"
	"fmt"
)

// LayoutKind names a dictionary commitment layout.
//
// Deprecated: the flat sorted hash tree is the only commitment. LayoutKind,
// LayoutSorted, ParseLayout, NewReplicaWithLayout and UpdateWithBounds exist
// only so that the frozen benchmark harness (bench/) keeps compiling.
type LayoutKind uint32

// LayoutSorted is the flat sorted hash tree, the only layout.
//
// Deprecated: see LayoutKind.
const LayoutSorted LayoutKind = 0

// String returns the layout's flag name.
func (k LayoutKind) String() string {
	if k == LayoutSorted {
		return "sorted"
	}
	return fmt.Sprintf("LayoutKind(%d)", uint32(k))
}

// ParseLayout accepts "sorted" (or nothing) and refuses every other name.
//
// Deprecated: see LayoutKind.
func ParseLayout(s string) (LayoutKind, error) {
	if s != "sorted" && s != "" {
		return 0, fmt.Errorf("dictionary: layout %q is not supported: the sorted hash tree is the only commitment", s)
	}
	return LayoutSorted, nil
}

// NewReplicaWithLayout is NewReplica; the layout is ignored.
//
// Deprecated: see LayoutKind. Use NewReplica.
func NewReplicaWithLayout(ca CAID, pub ed25519.PublicKey, _ LayoutKind) *Replica {
	return NewReplica(ca, pub)
}

// UpdateWithBounds is Update; the batch bounds are ignored. They told a
// replica how to split a coalesced catch-up so that a forest reproduced the
// origin's buckets; a sorted root depends on content alone.
//
// Deprecated: see LayoutKind. Use Update.
func (r *Replica) UpdateWithBounds(msg *IssuanceMessage, _ []uint64) error {
	return r.Update(msg)
}
