package dictionary

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

func newPersistAuthority(t *testing.T) *Authority {
	t.Helper()
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAuthority(AuthorityConfig{
		CA:     "CA1",
		Signer: signer,
		Delta:  10 * time.Second,
	}, time.Now().Unix())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestReplicaPersistRoundTrip(t *testing.T) {
	t.Run("sorted", func(t *testing.T) {
		a := newPersistAuthority(t)
		replica := NewReplica("CA1", a.PublicKey())
		gen := serial.NewGenerator(7, nil)
		now := time.Now().Unix()
		for i := 0; i < 5; i++ {
			msg, err := a.Insert(gen.NextN(20), now)
			if err != nil {
				t.Fatal(err)
			}
			if err := replica.Update(msg); err != nil {
				t.Fatal(err)
			}
		}

		st, err := DecodePersistentState(replica.PersistentStateV2())
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreReplica("CA1", a.PublicKey(), st, now)
		if err != nil {
			t.Fatal(err)
		}
		if restored.Count() != replica.Count() {
			t.Fatalf("restored count %d, want %d", restored.Count(), replica.Count())
		}
		if !restored.Root().Equal(replica.Root()) {
			t.Fatal("restored signed root differs")
		}
		// The restored replica proves statuses that verify against the
		// trust anchor, for present and absent serials alike.
		for _, s := range []serial.Number{replica.Log()[3], serial.NewGenerator(99, nil).Next()} {
			status, err := restored.Prove(s)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := status.Check(s, a.PublicKey(), now); err != nil {
				t.Fatalf("restored status for %v does not verify: %v", s, err)
			}
		}
	})
}

func TestRestoreReplicaRejectsTamperedState(t *testing.T) {
	a := newPersistAuthority(t)
	replica := NewReplica("CA1", a.PublicKey())
	now := time.Now().Unix()
	msg, err := a.Insert(serial.NewGenerator(3, nil).NextN(10), now)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Update(msg); err != nil {
		t.Fatal(err)
	}

	// A swapped serial (bit rot past the storage CRCs, or tampering) must
	// fail the root-match check on restore.
	st := replica.PersistentState()
	st.Log[4] = serial.NewGenerator(0xBAD, nil).Next()
	if _, err := RestoreReplica("CA1", a.PublicKey(), st, now); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("tampered log restored: err = %v, want ErrRootMismatch", err)
	}

	// A checkpoint re-signed by a different key fails the trust-anchor
	// check.
	other, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	st2 := replica.PersistentState()
	if _, err := RestoreReplica("CA1", other.Public(), st2, now); err == nil {
		t.Fatal("restore accepted a root signed by an untrusted key")
	}

	// A truncated log (fewer serials than the root commits) must not
	// produce a replica either.
	st3 := replica.PersistentState()
	st3.Log = st3.Log[:5]
	if _, err := RestoreReplica("CA1", a.PublicKey(), st3, now); err == nil {
		t.Fatal("restore accepted a log shorter than the signed count")
	}
}

// TestRejectedUpdateKeepsRelistedSerials pins the rollback scoping: a
// hostile message pairing the genuine latest signed root with a fabricated
// suffix that re-lists an already-revoked serial is rejected — and the
// rejection must leave that serial revoked (it was never inserted by the
// failed update, so undoing the update must not take it out).
func TestRejectedUpdateKeepsRelistedSerials(t *testing.T) {
	a := newPersistAuthority(t)
	gen := serial.NewGenerator(31, nil)
	now := time.Now().Unix()
	first := gen.NextN(4)
	msg1, err := a.Insert(first, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Insert(gen.NextN(4), now); err != nil {
		t.Fatal(err)
	}

	// A replica synced through the first batch only — it is behind by 4.
	r := NewReplica("CA1", a.PublicKey())
	if err := r.Update(msg1); err != nil {
		t.Fatal(err)
	}

	// Hostile catch-up: the genuine latest signed root (n=8) paired with a
	// fabricated suffix that re-lists victim, a serial revoked in batch 1.
	victim := first[0]
	hostile := &IssuanceMessage{
		Serials: append([]serial.Number{victim}, gen.NextN(3)...),
		Root:    a.SignedRoot(),
	}
	for attempt := 0; attempt < 2; attempt++ {
		if err := r.Update(hostile); !errors.Is(err, ErrDuplicateSerial) {
			t.Fatalf("attempt %d: err = %v, want ErrDuplicateSerial", attempt, err)
		}
		if !r.Revoked(victim) {
			t.Fatal("rejected update evicted a pre-existing serial")
		}
		if _, ok := r.tree.Revoked(victim); !ok {
			t.Fatal("rejected update evicted the serial from the live tree")
		}
		if got := r.Count(); got != 4 {
			t.Fatalf("attempt %d: count = %d, want 4", attempt, got)
		}
	}
	// The honest suffix still applies afterwards.
	sfx, err := a.LogSuffix(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(&IssuanceMessage{Serials: sfx, Root: a.SignedRoot()}); err != nil {
		t.Fatalf("honest suffix after hostile attempts: %v", err)
	}
}

func TestAuthorityPersistRoundTrip(t *testing.T) {
	t.Run("sorted", func(t *testing.T) {
		a := newPersistAuthority(t)
		gen := serial.NewGenerator(11, nil)
		now := time.Now().Unix()

		// Checkpoint mid-history, then more WAL'd inserts.
		var records []*UpdateRecord
		if _, err := a.Insert(gen.NextN(30), now); err != nil {
			t.Fatal(err)
		}
		ckpt := a.PersistentStateV2()
		for i := 0; i < 3; i++ {
			msg, err := a.Insert(gen.NextN(10), now)
			if err != nil {
				t.Fatal(err)
			}
			seed := a.ChainSeed()
			records = append(records, &UpdateRecord{Msg: msg, Seed: &seed})
		}

		// Encode/decode everything, as the storage tier would.
		st2, err := DecodePersistentState(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]*UpdateRecord, len(records))
		for i, r := range records {
			if recs[i], err = DecodeUpdateRecord(r.Encode()); err != nil {
				t.Fatal(err)
			}
		}

		restored, err := RestoreAuthority(AuthorityConfig{
			CA:     "CA1",
			Signer: a.cfg.Signer,
			Delta:  10 * time.Second,
		}, st2, recs)
		if err != nil {
			t.Fatal(err)
		}
		if restored.Count() != a.Count() {
			t.Fatalf("restored count %d, want %d", restored.Count(), a.Count())
		}
		if !restored.SignedRoot().Equal(a.SignedRoot()) {
			t.Fatal("restored authority signs a different root")
		}
		// The exact chain survives: freshness statements for the same
		// period are identical, which is what keeps already-delivered
		// statuses verifiable across the restart.
		later := now + 25
		want, err := a.Statement(later)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Statement(later)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Value.Equal(got.Value) {
			t.Fatal("restored chain produces different freshness statements")
		}
		// And it keeps operating: the next insert verifies on a replica
		// synced across the restart boundary.
		replica := NewReplica("CA1", a.PublicKey())
		fullLog, err := restored.LogSuffix(0, restored.Count())
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.Update(&IssuanceMessage{Serials: fullLog, Root: restored.SignedRoot()}); err != nil {
			t.Fatal(err)
		}
		msg, err := restored.Insert(gen.NextN(5), later)
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.Update(msg); err != nil {
			t.Fatalf("post-restore insert rejected by replica: %v", err)
		}
	})
}

func TestRestoreAuthorityRejectsMismatch(t *testing.T) {
	a := newPersistAuthority(t)
	now := time.Now().Unix()
	if _, err := a.Insert(serial.NewGenerator(2, nil).NextN(10), now); err != nil {
		t.Fatal(err)
	}
	st := a.PersistentState()
	cfg := AuthorityConfig{CA: "CA1", Signer: a.cfg.Signer, Delta: 10 * time.Second}

	// A tampered chain seed no longer reproduces the signed anchor.
	bad := *st.ChainSeed
	bad[0] ^= 1
	st.ChainSeed = &bad
	if _, err := RestoreAuthority(cfg, st, nil); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("tampered chain seed: err = %v, want ErrRootMismatch", err)
	}

	// A different signing key fails signature verification.
	st2 := a.PersistentState()
	other, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Signer = other
	if _, err := RestoreAuthority(cfg, st2, nil); err == nil {
		t.Fatal("restore accepted a root under the wrong signer")
	}
}

// TestPersistCrashConsistencyProperty is the dictionary half of the
// crash-consistency story: random corruption of checkpoint or WAL bytes
// either fails decode/restore loudly or — when the corruption happens to
// leave valid framing — restores a state whose signed root verifies
// against the trust anchor and whose log is one of the honest history's
// prefixes. It can never fabricate a state the CA did not sign.
func TestPersistCrashConsistencyProperty(t *testing.T) {
	a := newPersistAuthority(t)
	replica := NewReplica("CA1", a.PublicKey())
	gen := serial.NewGenerator(21, nil)
	now := time.Now().Unix()
	honestRoots := map[cryptoutil.Hash]uint64{} // root hash → count
	for i := 0; i < 8; i++ {
		msg, err := a.Insert(gen.NextN(16), now)
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.Update(msg); err != nil {
			t.Fatal(err)
		}
		honestRoots[msg.Root.Root] = msg.Root.N
	}
	clean := replica.PersistentStateV2()

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		buf := append([]byte(nil), clean...)
		switch trial % 3 {
		case 0: // single bit flip
			buf[rng.Intn(len(buf))] ^= byte(1) << rng.Intn(8)
		case 1: // truncation
			buf = buf[:rng.Intn(len(buf))]
		default: // a flipped bit AND a truncation
			buf = buf[:1+rng.Intn(len(buf)-1)]
			buf[rng.Intn(len(buf))] ^= byte(1) << rng.Intn(8)
		}
		st, err := DecodePersistentState(buf)
		if err != nil {
			continue // loud decode failure: acceptable
		}
		restored, err := RestoreReplica("CA1", a.PublicKey(), st, now)
		if err != nil {
			continue // loud verification failure: acceptable
		}
		// Whatever restored must be an honest, signed state.
		root := restored.Root()
		if root == nil {
			if restored.Count() != 0 {
				t.Fatalf("trial %d: rootless replica with %d revocations", trial, restored.Count())
			}
			continue
		}
		if err := root.VerifySignature(a.PublicKey()); err != nil {
			t.Fatalf("trial %d: restored an unverifiable root: %v", trial, err)
		}
		if n, ok := honestRoots[root.Root]; !ok || n != restored.Count() {
			t.Fatalf("trial %d: restored a root the CA never signed (n=%d)", trial, restored.Count())
		}
	}
}

// resealCRCs recomputes, in place, the CRC of every section a checkpoint's
// table points at within data, as a hostile writer would, and returns data.
func resealCRCs(data []byte) []byte {
	if IsStateV2(data) && len(data) >= v2HeaderLen {
		le := binary.LittleEndian
		for i := 0; i < int(le.Uint32(data[8:])) && v2HeaderLen+(i+1)*v2TableEntry <= len(data); i++ {
			e := data[v2HeaderLen+i*v2TableEntry:]
			if off, n := le.Uint64(e[8:]), le.Uint64(e[16:]); off <= uint64(len(data)) && n <= uint64(len(data))-off {
				le.PutUint32(e[4:], crc32.ChecksumIEEE(data[off:off+n]))
			}
		}
	}
	return data
}

// forestImage returns a copy of a checkpoint whose header names the retired
// forest layout (descriptor 1), its CRCs resealed.
func forestImage(state []byte) []byte {
	out := append([]byte(nil), state...)
	le := binary.LittleEndian
	for i := 0; i < int(le.Uint32(out[8:])); i++ {
		if e := out[v2HeaderLen+i*v2TableEntry:]; le.Uint32(e) == v2SecHeader {
			le.PutUint32(out[le.Uint64(e[8:]):], 1)
		}
	}
	return resealCRCs(out)
}

// FuzzOpenMappedState feeds hostile bytes to everything that reads a
// checkpoint in place (mmap'd bytes from a co-tenant writer are an attack
// surface): rejected input must be ErrBadCheckpoint, and accepted input
// must answer Prove and Revoked — pure-mapped, overlaid and materialized —
// without faulting, whatever its section table points at. The seeds include
// byte forms that must be refused: a forest-layout header and the retired v1
// encoding.
func FuzzOpenMappedState(f *testing.F) {
	signer := mustSigner(f)
	probes := serial.NewGenerator(1, nil).NextN(40)
	a, err := NewAuthority(AuthorityConfig{CA: "CA1", Signer: signer, Delta: 10 * time.Second}, 1000)
	if err != nil {
		f.Fatal(err)
	}
	r := NewReplica("CA1", a.PublicKey())
	f.Add(r.PersistentStateV2()) // empty, replica side
	msg, err := a.Insert(probes[:30], 1000)
	if err != nil {
		f.Fatal(err)
	}
	if err := r.Update(msg); err != nil {
		f.Fatal(err)
	}
	f.Add(r.PersistentStateV2())
	f.Add(a.PersistentStateV2()) // authority side: carries the chain seed
	f.Add(forestImage(r.PersistentStateV2()))
	f.Add(forestImage(a.PersistentStateV2()))
	f.Add(forestImage(NewReplica("CA1", a.PublicKey()).PersistentStateV2()))
	f.Add(v1ShapedPayload)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The section CRCs would stop nearly every mutation at the door;
		// re-seal them so the structural validation behind is what gets
		// fuzzed (a hostile writer computes correct CRCs too).
		st, err := OpenMappedState(resealCRCs(append([]byte(nil), data...)))
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("rejected with %v, want ErrBadCheckpoint", err)
			}
			return
		}
		var rb rebuilder
		overlay := rb.rebuild(st.run(), []Leaf{{Serial: probes[35], Num: st.Count() + 1}}, false)
		for _, v := range []run{st.run(), overlay} {
			v.root()
			for _, s := range probes[25:] {
				v.revoked(s)
				v.prove(s)
			}
		}
		if _, err := st.materializeLog(); err != nil && !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("materializeLog: %v, want ErrBadCheckpoint", err)
		}
	})
}

// FuzzApplyLogRecord feeds hostile bytes to the one entry point WAL replay,
// a reader's re-map and follower replication share. A frame is applied to a
// heap replica and to a replica over the mapped checkpoint, both opened from
// the same state: neither may panic, they must agree, and the committed
// state may move only under a root the trust anchor signed.
func FuzzApplyLogRecord(f *testing.F) {
	signer := mustSigner(f)
	const now = 1000
	const honestNext = 65 // count after the honest record that follows the checkpoint
	a, err := NewAuthority(AuthorityConfig{CA: "CA1", Signer: signer, Delta: 10 * time.Second, ChainLength: 16}, now)
	if err != nil {
		f.Fatal(err)
	}
	r := NewReplica("CA1", a.PublicKey())
	var state []byte
	var frames [][]byte
	gen := serial.NewGenerator(7, nil)
	for _, n := range []int{40, honestNext - 40, 9} {
		msg, err := a.Insert(gen.NextN(n), now)
		if err != nil {
			f.Fatal(err)
		}
		if state == nil {
			if err := r.Update(msg); err != nil {
				f.Fatal(err)
			}
			state = r.PersistentStateV2()
		}
		// The first is covered by the checkpoint, the second extends it, the
		// third leaves a gap; and each once more in the form older builds
		// wrote, under a bound no batch ended at, which is dropped — and
		// under more bounds than serials, which is refused — and as the
		// authority's record, carrying its chain seed.
		seed := a.ChainSeed()
		frames = append(frames, updateFrame(msg), boundedFrame(msg, msg.Root.N-3),
			boundedFrame(msg, make([]uint64, n+1)...), (&UpdateRecord{Msg: msg, Seed: &seed}).Encode())
	}
	for _, p := range []int64{10, 30} { // this period's statement and a future one
		stmt, err := a.Statement(now + p)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, (&FreshnessRecord{Value: stmt.Value}).Encode())
	}
	next := frames[4] // the honest record after the checkpoint
	for _, frame := range frames {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(frame[:len(frame)-1])
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		var replicas [2]*Replica
		var after [2]*Snapshot
		var errs [2]error
		agree := func(step string) {
			t.Helper()
			if (errs[0] == nil) != (errs[1] == nil) || after[0].Count() != after[1].Count() ||
				!after[0].RootHash().Equal(after[1].RootHash()) || !after[0].Freshness().Equal(after[1].Freshness()) {
				t.Fatalf("%s: heap replica (n=%d, %v) and mapped-base replica (n=%d, %v) disagree",
					step, after[0].Count(), errs[0], after[1].Count(), errs[1])
			}
		}
		for j, mapped := range []bool{false, true} {
			r, err := openReplica("CA1", signer.Public(), state, nil, now, mapped)
			if err != nil {
				t.Fatal(err)
			}
			replicas[j] = r
			before := r.Snapshot()
			errs[j] = ApplyLogRecord(r, frame, now+10)
			after[j] = r.Snapshot()
			if after[j].Count() == before.Count() && after[j].RootHash().Equal(before.RootHash()) && after[j].Root().Equal(before.Root()) {
				continue
			}
			rec, err := DecodeUpdateRecord(frame)
			if errs[j] != nil || err != nil || rec.Msg.Root.VerifySignature(signer.Public()) != nil || !after[j].Root().Equal(rec.Msg.Root) {
				t.Fatalf("mapped=%v: state moved to n=%d without a verified root (apply: %v, decode: %v)",
					mapped, after[j].Count(), errs[j], err)
			}
		}
		agree("the frame")
		// Whatever the frame did, rejected or applied, the honest history
		// still goes on from there, on both.
		for j := range replicas {
			errs[j] = ApplyLogRecord(replicas[j], next, now+10)
			after[j] = replicas[j].Snapshot()
		}
		agree("the honest record after it")
		if after[0].Count() < honestNext {
			t.Fatalf("honest record after the frame left n=%d (%v)", after[0].Count(), errs[0])
		}
	})
}

func mustSigner(f *testing.F) *cryptoutil.Signer {
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		f.Fatal(err)
	}
	return signer
}
