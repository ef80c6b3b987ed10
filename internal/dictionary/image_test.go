package dictionary

import (
	"bytes"
	"crypto/sha256"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ritm/internal/serial"
	"ritm/internal/storage"
)

// replayed strips the authority's offer of its rebuilt tree from msg, so
// that a replica replays the batch as it would one off the network.
func replayed(msg *IssuanceMessage) *IssuanceMessage {
	return &IssuanceMessage{Serials: msg.Serials, Root: msg.Root}
}

// leavesSection returns the leaves section of a checkpoint payload, in place.
func leavesSection(t *testing.T, payload []byte) []byte {
	t.Helper()
	secs, err := sectionTable(payload)
	if err != nil {
		t.Fatal(err)
	}
	return secs[v2SecLeaves]
}

// TestCheckpointImageMatchesCopy: the image a replica's rebuild lays its run
// out in, once checkpointed, is byte for byte the payload a copying encoder
// makes of the same snapshot, for trees of every shape — empty, one leaf,
// two, either side of a power of two, and a random size — built in up to
// three replayed batches. The image is handed out itself (its leaves are
// the snapshot's records), and so are later checkpoints of it, until the
// root section would differ: a root-only update is copied, and leaves the
// image as it was.
func TestCheckpointImageMatchesCopy(t *testing.T) {
	sizes := []int{0, 1, 2, 31, 33, 1023, 1025, 10_000 + rand.New(rand.NewPCG(0x1A6E, 0)).IntN(90_001)}
	for _, n := range sizes {
		a := newTestAuthority(t, 1)
		r := NewReplica(a.CA(), a.PublicKey())
		if err := r.Update(&IssuanceMessage{Root: a.SignedRoot()}); err != nil {
			t.Fatal(err)
		}
		gen := serial.NewGenerator(uint64(n)+1, nil)
		for _, k := range []int{n / 2, n / 3, n - n/2 - n/3} {
			if k == 0 {
				continue
			}
			if err := r.Update(replayed(mustInsert(t, a, gen.NextN(k)))); err != nil {
				t.Fatal(err)
			}
		}
		snap := r.Snapshot()
		copied := snap.view
		copied.img = nil
		want := encodeStateV2(copied, snap.bounds, snap.root, snap.freshness, nil)
		got := r.PersistentStateV2()
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: the checkpointed image differs from the copied encoding", n)
		}
		if n == 0 {
			continue
		}
		if leaves := leavesSection(t, got); &leaves[0] != &snap.view.recs[0] {
			t.Fatalf("n=%d: the checkpoint is a copy, not the replica's image", n)
		}
		if again := r.PersistentStateV2(); &again[0] != &got[0] {
			t.Fatalf("n=%d: a second checkpoint of the same snapshot is a copy", n)
		}

		sum := sha256.Sum256(got)
		next, err := a.Refresh(int64(testDelta.Seconds()) * 20) // past the chain: a new root over the same tree
		if err != nil || next.NewRoot == nil {
			t.Fatalf("n=%d: refresh past the chain gave no new root (%v)", n, err)
		}
		if err := r.Update(&IssuanceMessage{Root: next.NewRoot}); err != nil {
			t.Fatal(err)
		}
		snap = r.Snapshot()
		copied = snap.view
		copied.img = nil
		rerooted := r.PersistentStateV2()
		if !bytes.Equal(rerooted, encodeStateV2(copied, snap.bounds, snap.root, snap.freshness, nil)) {
			t.Fatalf("n=%d: the checkpoint under a new root differs from the copied encoding", n)
		}
		if &rerooted[0] == &got[0] {
			t.Fatalf("n=%d: the checkpoint under a new root reused the handed-over image", n)
		}
		if sha256.Sum256(got) != sum {
			t.Fatalf("n=%d: a checkpoint under a new root wrote the handed-over image", n)
		}
	}
}

// TestReplicaCheckpointImageAllocs pins what one ∆ costs a writer replica
// journaled to storage.Memory with a checkpoint after every batch: the
// rebuild and the checkpoint are one allocation of the image, not a
// rebuild into arrays plus a copy of them — so the heap holds the
// dictionary once, shared by the tree, its snapshot and the backend.
func TestReplicaCheckpointImageAllocs(t *testing.T) {
	const n, k = 100_000, 1_000
	gen := serial.NewGenerator(0x1A6E, nil)
	a := newTestAuthority(t, 1)
	mem := storage.NewMemory()
	lg, err := mem.Open(string(a.CA()))
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(NewReplica(a.CA(), a.PublicKey()), lg, 1)
	apply := func(msg *IssuanceMessage) {
		t.Helper()
		err := j.Apply(func(r *Replica) (Record, error) { return &UpdateRecord{Msg: msg}, r.Update(msg) })
		if err != nil {
			t.Fatal(err)
		}
	}
	apply(replayed(mustInsert(t, a, gen.NextN(n))))
	msg := replayed(mustInsert(t, a, gen.NextN(k)))
	r := j.State()
	// The log's amortized growth is not the ∆: give it room up front.
	r.tree.log = slices.Grow(r.tree.log, k)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	apply(msg)
	runtime.ReadMemStats(&after)

	ckpt, _, err := lg.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(float64(len(ckpt))*1.15); got > limit {
		t.Errorf("one ∆ of %d on %d allocated %d bytes, want ≤ %d (1.15 × the %d-byte image)", k, n, got, limit, len(ckpt))
	}
	if leaves := leavesSection(t, ckpt); &leaves[0] != &r.Snapshot().view.recs[0] {
		t.Error("the backend's checkpoint is a copy, not the snapshot's image")
	}
}

// TestSharedImageUnderConcurrency drives a writer replica journaled to
// storage.Memory with a checkpoint after every batch — the image it hands
// over is its tree — while a co-located reader re-maps the backend and
// four goroutines prove from the writer's snapshots. Every status must
// verify, repeated checkpoints of one snapshot must be byte-identical, and
// no image may change after hand-over: its hash taken then must still hold
// after later batches, freshness statements and checkpoints.
func TestSharedImageUnderConcurrency(t *testing.T) {
	const base, batches, k = 2_000, 16, 150
	delta := int64(testDelta.Seconds())
	clock := int64(1_000)
	a := newTestAuthority(t, clock)
	mem := storage.NewMemory()
	lg, err := mem.Open(string(a.CA()))
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(NewReplica(a.CA(), a.PublicKey()), lg, 1)
	gen := serial.NewGenerator(0x5EA1, nil)
	probes := gen.NextN(base + batches*k)
	probes = append(probes, gen.NextN(64)...) // never revoked

	var now atomic.Int64
	now.Store(clock)
	var failed atomic.Value
	fail := func(format string, err error) {
		failed.CompareAndSwap(nil, format+": "+err.Error())
	}
	check := func(snap *Snapshot, s serial.Number) {
		st, err := snap.Prove(s)
		if err != nil {
			return // no signed root yet
		}
		// The statement is for period 0 or 1 of its root; period 1 accepts both.
		if _, err := st.Check(s, a.PublicKey(), st.Root.Time+delta); err != nil {
			fail("status does not verify", err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(5)
	go func() { // the co-located reader
		defer wg.Done()
		rng := rand.New(rand.NewPCG(1, 0))
		for {
			select {
			case <-stop:
				return
			default:
			}
			mc, err := mem.Map(string(a.CA()))
			if err != nil {
				fail("map", err)
				return
			}
			reader, err := OpenMappedReplica(a.CA(), a.PublicKey(), mc.State, mc.WAL, now.Load())
			if err != nil {
				fail("open mapped replica", err)
				return
			}
			for range 16 {
				check(reader.Snapshot(), probes[rng.IntN(len(probes))])
			}
		}
	}()
	for g := range 4 { // the writer's provers
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g)+2, 0))
			for {
				select {
				case <-stop:
					return
				default:
				}
				check(j.State().Snapshot(), probes[rng.IntN(len(probes))])
			}
		}()
	}

	type handover struct {
		image []byte
		sum   [32]byte
	}
	var handed []handover // every payload the backend was handed, at hand-over
	record := func() {
		ckpt, _, err := lg.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(handed) == 0 || &handed[len(handed)-1].image[0] != &ckpt[0] {
			handed = append(handed, handover{ckpt, sha256.Sum256(ckpt)})
		}
	}
	samePayloads := func() []byte {
		r := j.State()
		first := r.PersistentStateV2()
		for range 2 {
			if !bytes.Equal(r.PersistentStateV2(), first) {
				t.Fatal("repeated checkpoints of one snapshot differ")
			}
		}
		return first
	}
	for i := 0; i <= batches; i++ {
		clock += 2 * delta
		now.Store(clock)
		lo, hi := base+(i-1)*k, base+i*k
		if i == 0 {
			lo = 0
		}
		msg, err := a.Insert(probes[lo:hi], clock)
		if err != nil {
			t.Fatal(err)
		}
		msg = replayed(msg)
		err = j.Apply(func(r *Replica) (Record, error) { return &UpdateRecord{Msg: msg}, r.Update(msg) })
		if err != nil {
			t.Fatal(err)
		}
		record()
		ckpt, _, _ := lg.Load()
		if leaves := leavesSection(t, ckpt); &leaves[0] != &j.State().Snapshot().view.recs[0] {
			t.Fatalf("batch %d: the backend's checkpoint is a copy, not the snapshot's image", i)
		}
		if !bytes.Equal(samePayloads(), ckpt) {
			t.Fatalf("batch %d: a checkpoint of the snapshot differs from the one handed over", i)
		}

		stmt, err := a.Statement(clock + delta)
		if err != nil {
			t.Fatal(err)
		}
		now.Store(clock + delta)
		err = j.Apply(func(r *Replica) (Record, error) {
			return &FreshnessRecord{Value: stmt.Value}, r.ApplyFreshness(stmt, clock+delta)
		})
		if err != nil {
			t.Fatal(err)
		}
		samePayloads()
		if i%4 == 3 { // a checkpoint of the refreshed snapshot is a copy
			if err := j.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			record()
		}
	}
	close(stop)
	wg.Wait()
	if msg := failed.Load(); msg != nil {
		t.Fatal(msg)
	}
	for i, h := range handed {
		if sha256.Sum256(h.image) != h.sum {
			t.Fatalf("payload %d of %d changed after it was handed over", i+1, len(handed))
		}
	}
}
