package dictionary

// Hooks for the external tests of this directory (package
// dictionary_test), which drive the dictionary through ca.CA and so cannot
// be compiled into the package.

// ReplicaHashedNodes returns the nodes r has hashed replaying updates.
func ReplicaHashedNodes(r *Replica) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tree.HashedNodes()
}

// OffersBuiltRun reports whether msg carries an authority's offer of its
// rebuilt tree.
func OffersBuiltRun(msg *IssuanceMessage) bool { return msg.built != nil }
