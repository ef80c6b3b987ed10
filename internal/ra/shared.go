package ra

import (
	"crypto/ed25519"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ritm/internal/dictionary"
	"ritm/internal/storage"
)

// This file is the reader half of the shared replica store: N co-located
// RA processes point at ONE writer's data directory. The writer is a
// normal RA (Storage configured, fetcher running) that pulls from the
// dissemination network, verifies, WAL-appends, and checkpoints; readers
// (StoreOptions.SharedData) never open the logs for writing — they open
// a replica over the current checkpoint's mapping (physical pages shared
// across processes via mmap), apply the WAL suffix to it as a small heap
// delta, and poll a cheap stamp to learn when the writer moved. The
// paper's RA is an untrusted prover (§V), so a reader trusts its mapping
// no more than the writer trusted the network: every signed root is
// re-verified on map, and corruption can only cost availability, never
// forge a status.

// sharedState is one published (snapshot, generation) pair together with
// the checkpoint mapping the snapshot reads. Publishing them together keeps
// the status cache sound: a cached entry's generation always labels the
// snapshot it was actually computed from.
//
// The mapping lives exactly as long as something can still prove against
// it: refs holds one reference for being the published state plus one per
// acquire not yet released, and whoever drops the last one unmaps. A
// serving goroutine descheduled across any number of re-maps therefore
// keeps its pages (a count of retained generations, the previous rule, did
// not: five re-maps later it faulted).
type sharedState struct {
	snap *dictionary.Snapshot
	gen  uint64
	mc   *storage.MappedCheckpoint
	refs atomic.Int64
}

// release drops one reference, unmapping the checkpoint with the last. On
// the nil state — what an owned replica's snapshot, all heap, is held
// through — it does nothing.
func (st *sharedState) release() error {
	if st != nil && st.refs.Add(-1) == 0 {
		return st.mc.Close()
	}
	return nil
}

// sharedDict serves one CA's dictionary from another process's durable
// log, read-only. It is the shared-mode analog of a replica: the store
// routes Status/Prove/LatestRoot through it, and the sync loop calls
// refresh instead of pulling from an origin.
type sharedDict struct {
	ca     dictionary.CAID
	pub    ed25519.PublicKey
	mapper storage.Mapper
	name   string
	now    func() time.Time

	state atomic.Pointer[sharedState] // nil once closed

	mu        sync.Mutex // serializes refresh and close
	stamp     storage.Stamp
	haveStamp bool
	closed    bool
}

// newSharedDict builds the reader for one CA and performs the initial
// map, so a freshly added CA serves immediately when the writer already
// has state.
func newSharedDict(ca dictionary.CAID, pub ed25519.PublicKey, mapper storage.Mapper, now func() time.Time) (*sharedDict, error) {
	d := &sharedDict{ca: ca, pub: pub, mapper: mapper, name: string(ca), now: now}
	if err := d.refresh(); err != nil {
		return nil, err
	}
	return d, nil
}

// CurrentGeneration implements cacheSource.
func (d *sharedDict) CurrentGeneration() uint64 {
	if st := d.state.Load(); st != nil {
		return st.gen
	}
	return 0
}

// acquire returns the current state with a reference held — the caller
// must release it once done proving — or nil when the dictionary is closed.
func (d *sharedDict) acquire() *sharedState {
	for {
		st := d.state.Load()
		if st == nil {
			return nil
		}
		// Zero references means st was superseded and fully released
		// between the load and here; its successor is already published.
		if n := st.refs.Load(); n > 0 && st.refs.CompareAndSwap(n, n+1) {
			return st
		}
	}
}

// refresh re-maps the writer's durable state if its stamp moved,
// publishing a new snapshot generation. It is cheap when nothing changed
// (two stats on the file backend) and safe to call concurrently. A writer
// that has not checkpointed yet is served from its WAL alone.
func (d *sharedDict) refresh() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("ra: shared dictionary %s is closed", d.ca)
	}
	stamp, err := d.mapper.MapStamp(d.name)
	if err != nil {
		return fmt.Errorf("ra: stamp shared %s: %w", d.ca, err)
	}
	if d.haveStamp && stamp == d.stamp {
		return nil
	}
	mc, err := d.mapper.Map(d.name)
	if err != nil {
		return fmt.Errorf("ra: map shared %s: %w", d.ca, err)
	}
	// The replica lives for this one snapshot: the next re-map opens a new
	// one over the next mapping.
	replica, err := dictionary.OpenMappedReplica(d.ca, d.pub, mc.State, mc.WAL, d.now().Unix())
	if err != nil {
		mc.Close()
		return fmt.Errorf("ra: open shared %s: %w", d.ca, err)
	}
	next := &sharedState{snap: replica.Snapshot(), gen: d.CurrentGeneration() + 1, mc: mc}
	next.refs.Store(1)
	if prev := d.state.Swap(next); prev != nil {
		// A munmap failure on a superseded mapping leaks address space,
		// nothing a refresh could act on.
		_ = prev.release()
	}
	d.stamp, d.haveStamp = mc.Stamp, true
	return nil
}

// mappedBytes reports the size of the currently mapped checkpoint (0 while
// the writer has none); benchmarks use it to attribute file-backed
// residency separately from heap.
func (d *sharedDict) mappedBytes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st := d.state.Load(); st != nil {
		return len(st.mc.State)
	}
	return 0
}

// close unpublishes the state and drops its reference; the mapping goes
// with it unless a Prove is still in flight, which then releases it.
func (d *sharedDict) close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.state.Swap(nil).release()
}
