package dictionary

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/bits"
	"reflect"
	"testing"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// mappedFixture builds an authority and a fully caught-up heap replica,
// inserting batches in order and returning the per-batch issuance messages
// (the same messages a WAL would carry).
func mappedFixture(t *testing.T, batches [][]serial.Number, now int64) (*Authority, *Replica, []*IssuanceMessage) {
	t.Helper()
	a := newTestAuthority(t, now)
	r := NewReplica(a.CA(), a.PublicKey())
	msgs := make([]*IssuanceMessage, 0, len(batches))
	for _, b := range batches {
		msg, err := a.Insert(b, now)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Update(msg); err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, msg)
	}
	return a, r, msgs
}

// fixtureBatches deals out serials in uneven batches.
func fixtureBatches(seed uint64, sizes []int) [][]serial.Number {
	gen := serial.NewGenerator(seed, nil)
	out := make([][]serial.Number, len(sizes))
	for i, n := range sizes {
		out[i] = gen.NextN(n)
	}
	return out
}

// requireSameStatus asserts that the heap and mapped paths produce
// byte-identical Status messages for s — same proof shape, same root,
// same freshness — which is the zero-copy tier's core contract.
func requireSameStatus(t *testing.T, heap, mapped *Snapshot, s serial.Number) {
	t.Helper()
	hs, herr := heap.Prove(s)
	ms, merr := mapped.Prove(s)
	if (herr == nil) != (merr == nil) {
		t.Fatalf("Prove(%v): heap err %v, mapped err %v", s, herr, merr)
	}
	if herr != nil {
		return
	}
	if !bytes.Equal(hs.Encode(), ms.Encode()) {
		t.Fatalf("Prove(%v): heap and mapped statuses differ", s)
	}
}

// openMapped is the co-located reader's path: a replica over the checkpoint
// bytes plus the WAL suffix, frozen as the snapshot it serves.
func openMapped(t *testing.T, a *Authority, state []byte, wal [][]byte, now int64) *Snapshot {
	t.Helper()
	r, err := OpenMappedReplica(a.CA(), a.PublicKey(), state, wal, now)
	if err != nil {
		t.Fatal(err)
	}
	return r.Snapshot()
}

// pureMapped reports whether a snapshot proves off checkpoint bytes alone,
// nothing of the dictionary rebuilt onto the heap: a run whose records run
// straight into its level 0, as the leaf and level sections of a checkpoint
// image do (MappedState.run leaves the records' capacity uncapped; arrays a
// rebuild allocates are never adjacent).
func pureMapped(s *Snapshot) bool {
	recs := s.view.recs
	return s.view.count() > 0 && len(recs) < cap(recs) && &recs[:len(recs)+1][len(recs)] == &s.view.levels[0][0]
}

func TestMappedReplicaAgreement(t *testing.T) {
	now := int64(1_700_000_000)
	sizes := []int{3, 190, 71, 256, 44, 130, 9, 280}
	t.Run("sorted", func(t *testing.T) {
		batches := fixtureBatches(0xD1C7, sizes)
		a, r, _ := mappedFixture(t, batches, now)

		// Advance two periods and adopt a freshness statement so the
		// checkpoint carries a non-anchor value the mapped opener must
		// re-verify and keep.
		later := now + 2*int64(testDelta.Seconds())
		stmt, err := a.Statement(later)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ApplyFreshness(stmt, later); err != nil {
			t.Fatal(err)
		}

		heap := r.Snapshot()
		ms := openMapped(t, a, r.PersistentStateV2(), nil, later)
		if ms.Count() != heap.Count() {
			t.Fatalf("mapped count %d, heap %d", ms.Count(), heap.Count())
		}
		if !ms.RootHash().Equal(heap.RootHash()) {
			t.Fatal("mapped root hash differs from heap")
		}
		if !ms.Freshness().Equal(heap.Freshness()) || ms.FreshnessPeriod() != heap.FreshnessPeriod() {
			t.Fatalf("mapped freshness (%v, %d), heap (%v, %d)",
				ms.Freshness(), ms.FreshnessPeriod(), heap.Freshness(), heap.FreshnessPeriod())
		}
		if !pureMapped(ms) {
			t.Fatal("a re-map with an empty WAL suffix copied dictionary state onto the heap")
		}

		var qs []serial.Number
		for _, b := range batches {
			qs = append(qs, b[0], b[len(b)-1], b[len(b)/2])
		}
		qs = append(qs, serial.NewGenerator(0xAB5E17, nil).NextN(64)...)
		for _, s := range qs {
			requireSameStatus(t, heap, ms, s)
			if ms.Revoked(s) != heap.Revoked(s) {
				t.Fatalf("Revoked(%v) disagrees", s)
			}
			st, err := ms.Prove(s)
			if err != nil {
				t.Fatal(err)
			}
			res, err := st.Check(s, a.PublicKey(), later)
			if err != nil {
				t.Fatalf("Check(%v): %v", s, err)
			}
			if (res == CheckRevoked) != heap.Revoked(s) {
				t.Fatalf("Check(%v) = %v, heap revoked %v", s, res, heap.Revoked(s))
			}
		}
	})
}

// replayHistory is the honest history the conformance cases cut their WALs
// from: one issuance message per batch, the statement of the period the
// replay is evaluated in, one period older and three periods newer.
type replayHistory struct {
	msgs                  []*IssuanceMessage
	now                   int64
	stmt, stale, tooEarly *FreshnessStatement
}

func updateFrame(msg *IssuanceMessage) []byte {
	return (&UpdateRecord{Msg: msg}).Encode()
}

// boundedFrame is the update record older builds wrote for a coalesced
// catch-up: UpdateRecord's encoding with its trailing bound list (a count,
// then ascending deltas) non-empty, where writers now always end it in a
// zero count.
func boundedFrame(msg *IssuanceMessage, bounds ...uint64) []byte {
	frame := updateFrame(msg)
	frame = binary.AppendUvarint(frame[:len(frame)-1], uint64(len(bounds)))
	prev := uint64(0)
	for _, b := range bounds {
		frame = binary.AppendUvarint(frame, b-prev)
		prev = b
	}
	return frame
}

func freshFrame(st *FreshnessStatement) []byte {
	return (&FreshnessRecord{Value: st.Value}).Encode()
}

// suffix frames the honest messages from batch i on, one record each.
func (h *replayHistory) suffix(i int) [][]byte {
	var wal [][]byte
	for _, msg := range h.msgs[i:] {
		wal = append(wal, updateFrame(msg))
	}
	return wal
}

// coalesced is one catch-up record covering batches i..j: their serials,
// the root of the last, and — in the form older builds wrote — the bounds
// at which the batches in between ended.
func (h *replayHistory) coalesced(i, j int) []byte {
	var serials []serial.Number
	var bounds []uint64
	for k := i; k <= j; k++ {
		serials = append(serials, h.msgs[k].Serials...)
		if k < j {
			bounds = append(bounds, h.msgs[k].Root.N)
		}
	}
	return boundedFrame(&IssuanceMessage{Serials: serials, Root: h.msgs[j].Root}, bounds...)
}

// tampered frames batch i's genuine signed root over a rewritten batch.
func (h *replayHistory) tampered(i int, rewrite func(serials []serial.Number)) []byte {
	serials := append([]serial.Number(nil), h.msgs[i].Serials...)
	rewrite(serials)
	return updateFrame(&IssuanceMessage{Serials: serials, Root: h.msgs[i].Root})
}

// TestReplayConformance runs one table of WAL histories through the three
// places a record is replayed — a live heap replica fed frame by frame (a
// follower origin), RecoverReplicaLog (a restart) and OpenMappedReplica (a
// co-located reader's re-map): every engine must reach the
// same verdict with the same error class, and an accepted history — each
// ends in the full honest history with h.stmt adopted — must yield statuses
// byte-identical among the three and to the reference replica's, which
// applied every message and the statement directly. ErrCount has no row: overlap with
// held state is trimmed before a frame is applied, so only a message straight
// off the network can overshoot (TestReplicaRejectsReplayedOldMessage).
func TestReplayConformance(t *testing.T) {
	cases := []struct {
		name string
		ckpt int // honest batches already in the checkpoint; 0 = no checkpoint yet
		wal  func(h *replayHistory) [][]byte
		want error // class every engine must report; nil = accepted
		// coalesces marks a WAL whose records are not one per batch.
		coalesces bool
	}{
		{name: "WAL only, re-delivered root", ckpt: 0, wal: func(h *replayHistory) [][]byte {
			return append(h.suffix(0), updateFrame(h.msgs[6]), freshFrame(h.stmt))
		}},
		{name: "checkpoint plus suffix, re-delivered root", ckpt: 3, wal: func(h *replayHistory) [][]byte {
			return append(h.suffix(3), updateFrame(h.msgs[6]), freshFrame(h.stmt))
		}},
		{name: "re-delivered root keeps the adopted statement", ckpt: 7, wal: func(h *replayHistory) [][]byte {
			return [][]byte{freshFrame(h.stmt), updateFrame(&IssuanceMessage{Root: h.msgs[6].Root})}
		}},
		{name: "records covered by the checkpoint", ckpt: 3, wal: func(h *replayHistory) [][]byte {
			return append(append([][]byte{updateFrame(h.msgs[0]), updateFrame(h.msgs[2])}, h.suffix(3)...), freshFrame(h.stmt))
		}},
		{name: "partially covered record", ckpt: 3, coalesces: true, wal: func(h *replayHistory) [][]byte {
			return append([][]byte{h.coalesced(1, 4)}, append(h.suffix(5), freshFrame(h.stmt))...)
		}},
		{name: "coalesced catch-up with bounds", ckpt: 1, coalesces: true, wal: func(h *replayHistory) [][]byte {
			return [][]byte{h.coalesced(1, 6), freshFrame(h.stmt)}
		}},
		{name: "stale and future freshness records", ckpt: 5, wal: func(h *replayHistory) [][]byte {
			return append(h.suffix(5), freshFrame(h.tooEarly), freshFrame(h.stmt), freshFrame(h.stale))
		}},
		{name: "forged signature", ckpt: 3, want: cryptoutil.ErrBadSignature, wal: func(h *replayHistory) [][]byte {
			root := *h.msgs[3].Root
			root.Time++
			return [][]byte{updateFrame(&IssuanceMessage{Serials: h.msgs[3].Serials, Root: &root})}
		}},
		{name: "root over other serials", ckpt: 3, want: ErrRootMismatch, wal: func(h *replayHistory) [][]byte {
			return [][]byte{h.tampered(3, func(s []serial.Number) { s[3] = serial.NewGenerator(0xEE, nil).Next() })}
		}},
		{name: "genuine root, re-listed historic serial", ckpt: 3, want: ErrDuplicateSerial, wal: func(h *replayHistory) [][]byte {
			return [][]byte{h.tampered(3, func(s []serial.Number) { s[0] = h.msgs[1].Serials[17] })}
		}},
		{name: "in-batch duplicate", ckpt: 3, want: ErrDuplicateSerial, wal: func(h *replayHistory) [][]byte {
			return [][]byte{h.tampered(3, func(s []serial.Number) { s[9] = s[200] })}
		}},
		{name: "gap", ckpt: 3, want: ErrDesynchronized, wal: func(h *replayHistory) [][]byte {
			return h.suffix(4)
		}},
		{name: "gap before any checkpoint", ckpt: 0, want: ErrDesynchronized, wal: func(h *replayHistory) [][]byte {
			return h.suffix(1)
		}},
	}

	now := int64(1_700_000_000)
	t.Run("sorted", func(t *testing.T) {
		batches := fixtureBatches(0xC0FFEE, []int{120, 256, 31, 300, 5, 77, 190})
		a, full, msgs := mappedFixture(t, batches, now)
		statement := func(period int64) *FreshnessStatement {
			st, err := a.Statement(now + period*int64(testDelta.Seconds()))
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		h := &replayHistory{msgs: msgs, now: now + 2*int64(testDelta.Seconds()),
			stale: statement(1), stmt: statement(2), tooEarly: statement(5)}
		if err := full.ApplyFreshness(h.stmt, h.now); err != nil {
			t.Fatal(err)
		}
		reference := full.Snapshot()
		var probes []serial.Number
		for _, b := range batches {
			probes = append(probes, b[0], b[len(b)-1], b[len(b)/2])
		}
		probes = append(probes, serial.NewGenerator(0xFACE, nil).NextN(48)...)

		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				wal := tc.wal(h)
				// The checkpoint is a second replica stopped after tc.ckpt
				// batches; the live engine carries on from a copy of it.
				var state []byte
				live := NewReplica(a.CA(), a.PublicKey())
				lg, err := storage.NewMemory().Open("d")
				if err != nil {
					t.Fatal(err)
				}
				if tc.ckpt > 0 {
					for _, msg := range msgs[:tc.ckpt] {
						if err := live.Update(msg); err != nil {
							t.Fatal(err)
						}
					}
					state = live.PersistentStateV2()
					if err := lg.Checkpoint(state); err != nil {
						t.Fatal(err)
					}
				}
				for _, raw := range wal {
					if err := lg.Append(raw); err != nil {
						t.Fatal(err)
					}
				}

				var liveErr error
				for _, raw := range wal {
					if liveErr = ApplyLogRecord(live, raw, h.now); liveErr != nil {
						break
					}
				}
				recovered, recoverErr := RecoverReplicaLog(lg, a.CA(), a.PublicKey(), h.now)
				mapped, mappedErr := OpenMappedReplica(a.CA(), a.PublicKey(), state, wal, h.now)
				for engine, err := range map[string]error{"live": liveErr, "recover": recoverErr, "mapped": mappedErr} {
					if tc.want == nil && err != nil {
						t.Fatalf("%s: %v", engine, err)
					}
					if tc.want != nil && !errors.Is(err, tc.want) {
						t.Fatalf("%s: err = %v, want %v", engine, err, tc.want)
					}
				}
				if tc.want != nil {
					return
				}

				if got := live.Snapshot(); got.Count() != reference.Count() || !got.RootHash().Equal(reference.RootHash()) ||
					!got.Freshness().Equal(h.stmt.Value) {
					t.Fatalf("replayed to n=%d, freshness period %d; want the full history with the statement adopted",
						got.Count(), got.FreshnessPeriod())
				}
				for engine, snap := range map[string]*Snapshot{"recover": recovered.Snapshot(), "mapped": mapped.Snapshot(), "reference": reference} {
					for _, s := range probes {
						hs, err := live.Snapshot().Prove(s)
						if err != nil {
							t.Fatal(err)
						}
						es, err := snap.Prove(s)
						if err != nil {
							t.Fatalf("%s: Prove(%v): %v", engine, s, err)
						}
						if !bytes.Equal(hs.Encode(), es.Encode()) {
							t.Fatalf("%s: status for %v differs from the live replica's", engine, s)
						}
					}
				}
				// Only the batches past the checkpoint are overlaid on the
				// mapped base, and with none the reader stays pure-mapped.
				overlaid := len(msgs) - tc.ckpt
				if got := len(mapped.Snapshot().bounds); !tc.coalesces && got != overlaid {
					t.Fatalf("%d batches overlaid on the mapped base, want %d", got, overlaid)
				}
				if tc.ckpt > 0 && pureMapped(mapped.Snapshot()) != (overlaid == 0) {
					t.Fatalf("pure-mapped = %v with %d batches to overlay", !(overlaid == 0), overlaid)
				}
			})
		}
	})
}

func TestPersistentStateV2RoundTrip(t *testing.T) {
	now := int64(1_700_000_000)
	t.Run("sorted", func(t *testing.T) {
		batches := fixtureBatches(0x5EED, []int{90, 210, 40})
		a, r, _ := mappedFixture(t, batches, now)

		// Replica state: decoding the checkpoint must reproduce the
		// in-memory PersistentState exactly.
		st, err := DecodePersistentState(r.PersistentStateV2())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, r.PersistentState()) {
			t.Fatal("v2 round trip differs from PersistentState for replica")
		}

		// Authority state: same, including the chain seed.
		ast, err := DecodePersistentState(a.PersistentStateV2())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ast, a.PersistentState()) {
			t.Fatal("v2 round trip differs from PersistentState for authority")
		}
		if ast.ChainSeed == nil {
			t.Fatal("authority v2 state dropped the chain seed")
		}

		// Empty state round-trips too.
		empty := NewReplica(a.CA(), a.PublicKey())
		est, err := DecodePersistentState(empty.PersistentStateV2())
		if err != nil {
			t.Fatal(err)
		}
		if len(est.Log) != 0 || est.Root != nil {
			t.Fatal("v2 round trip differs for empty replica")
		}
	})
}

// seededReplica is a replica whose every byte is fixed: signing key, chain
// seed, clock and serials, five uneven batches.
func seededReplica(t *testing.T) *Replica {
	t.Helper()
	_, r := seededFixture(t)
	return r
}

// seededBatches are the batches seededFixture inserts.
func seededBatches() [][]serial.Number { return fixtureBatches(0x601D, []int{700, 31, 1200, 1, 400}) }

// seededFixture is seededReplica with the authority that fed it, whose next
// Insert is as deterministic as the replica.
func seededFixture(t *testing.T) (*Authority, *Replica) {
	t.Helper()
	const now = int64(1_700_000_000)
	a, err := NewAuthority(AuthorityConfig{
		CA:          "GoldenCA",
		Signer:      cryptoutil.NewSignerFromSeed([32]byte{0x60, 0x1d}),
		Delta:       testDelta,
		ChainLength: 16,
		Rand:        bytes.NewReader(bytes.Repeat([]byte{0xC4}, 8*cryptoutil.HashSize)),
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica(a.CA(), a.PublicKey())
	for i, b := range seededBatches() {
		msg, err := a.Insert(b, now+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Update(msg); err != nil {
			t.Fatal(err)
		}
	}
	return a, r
}

// TestLayoutRunIsCheckpointImage pins that a run is its checkpoint image: a
// replica restarted over checkpoint X re-encodes to X byte
// for byte; every probe proves byte-identically off the heap-built run and
// off X mapped from a file; one insert on the replica restarted over X and on
// the mapped reader gives the same root and proofs as on the heap replica,
// and the restarted one the same next checkpoint; and a snapshot taken
// before the insert still proves against its old root, byte for byte as
// before it.
func TestLayoutRunIsCheckpointImage(t *testing.T) {
	const now = int64(1_700_000_010)
	t.Run("sorted", func(t *testing.T) {
		a, heap := seededFixture(t)
		image := heap.PersistentStateV2()

		lg, err := storage.NewMemory().Open("d")
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.Checkpoint(image); err != nil {
			t.Fatal(err)
		}
		restarted, err := RecoverReplicaLog(lg, a.CA(), a.PublicKey(), now)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(restarted.PersistentStateV2(), image) {
			t.Fatal("the replica restarted over a checkpoint re-encodes to other bytes")
		}

		files := storage.NewFileBackend(t.TempDir(), false)
		flg, err := files.Open("d")
		if err != nil {
			t.Fatal(err)
		}
		if err := flg.Checkpoint(image); err != nil {
			t.Fatal(err)
		}
		mc, err := files.Map("d")
		if err != nil {
			t.Fatal(err)
		}
		defer mc.Close()
		mapped, err := OpenMappedReplica(a.CA(), a.PublicKey(), mc.State, nil, now)
		if err != nil {
			t.Fatal(err)
		}

		next := fixtureBatches(0x601D, []int{700, 31, 1200, 1, 400, 300})[5] // the seeded batches' stream, continued
		probes := append(serial.NewGenerator(0xFACE, nil).NextN(48), next[0], next[299])
		for _, b := range seededBatches() {
			probes = append(probes, b[0], b[len(b)/2], b[len(b)-1])
		}
		replicas := map[string]*Replica{"restarted": restarted, "mapped": mapped}
		for _, s := range probes {
			for _, r := range replicas {
				requireSameStatus(t, heap.Snapshot(), r.Snapshot(), s)
			}
		}

		before := restarted.Snapshot()
		beforeProofs := make([][]byte, len(probes))
		for i, s := range probes {
			beforeProofs[i] = before.view.prove(s).Encode()
		}
		msg, err := a.Insert(next, now)
		if err != nil {
			t.Fatal(err)
		}
		if err := heap.Update(msg); err != nil {
			t.Fatal(err)
		}
		for name, r := range replicas {
			if err := r.Update(msg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !r.Snapshot().RootHash().Equal(heap.Snapshot().RootHash()) {
				t.Fatalf("%s: root after the insert differs from the heap replica's", name)
			}
			for _, s := range probes {
				requireSameStatus(t, heap.Snapshot(), r.Snapshot(), s)
			}
		}
		if !bytes.Equal(restarted.PersistentStateV2(), heap.PersistentStateV2()) {
			t.Fatal("the next checkpoint of the restarted replica differs from the heap replica's")
		}

		oldRoot, oldCount := before.RootHash(), before.Count()
		for i, s := range probes {
			p := before.view.prove(s)
			if !bytes.Equal(p.Encode(), beforeProofs[i]) {
				t.Fatalf("the snapshot taken before the insert proves %v differently after it", s)
			}
			if _, err := p.Verify(s, oldRoot, oldCount); err != nil {
				t.Fatalf("the snapshot taken before the insert: proof for %v: %v", s, err)
			}
		}
	})
}

// TestGoldenCheckpointV2Digests pins the checkpoint encoding, and with it
// every root and interior node, across rewrites of the encoder and of the
// rebuild kernels: the digests were produced by the encoder that staged each
// section in its own buffer (PR 19's), over trees built by the dense level
// builders.
func TestGoldenCheckpointV2Digests(t *testing.T) {
	const want = "7805b25653a168e71d443201770c6146e117342bb669976692f2ecf7c394724a"
	sum := sha256.Sum256(seededReplica(t).PersistentStateV2())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("checkpoint sha256 = %s, want %s", got, want)
	}
}

// v1ShapedPayload is what the retired wire-style checkpoint encoding looked
// like for an empty sorted dictionary: version byte 0x01, layout u32, zero
// log entries, zero batches, no root, a zero freshness value, no seed.
var v1ShapedPayload = append([]byte{0x01, 0, 0, 0, 0, 0, 0, 0}, make([]byte, cryptoutil.HashSize+1)...)

// TestRecoverReplicaLog: checkpoint + WAL suffix (updates and an adopted
// freshness statement) recover to the heap reference without touching the
// log; a log with no checkpoint yet recovers from its WAL alone; and a
// checkpoint that is not format v2 is refused, never read as empty.
func TestRecoverReplicaLog(t *testing.T) {
	now := int64(1_700_000_000)
	t.Run("sorted", func(t *testing.T) {
		batches := fixtureBatches(0x91, []int{100, 260, 55, 140})
		a, full, msgs := mappedFixture(t, batches, now)
		heap := full.Snapshot()
		later := now + int64(testDelta.Seconds())
		stmt, err := a.Statement(later)
		if err != nil {
			t.Fatal(err)
		}

		for _, ckptAfter := range []int{0, 2} {
			lg, err := storage.NewMemory().Open("d")
			if err != nil {
				t.Fatal(err)
			}
			if ckptAfter > 0 {
				part := NewReplica(a.CA(), a.PublicKey())
				for _, msg := range msgs[:ckptAfter] {
					if err := part.Update(msg); err != nil {
						t.Fatal(err)
					}
				}
				if err := lg.Checkpoint(part.PersistentStateV2()); err != nil {
					t.Fatal(err)
				}
			}
			for _, msg := range msgs[ckptAfter:] {
				if err := lg.Append((&UpdateRecord{Msg: msg}).Encode()); err != nil {
					t.Fatal(err)
				}
			}
			if err := lg.Append((&FreshnessRecord{Value: stmt.Value}).Encode()); err != nil {
				t.Fatal(err)
			}
			ckpt, wal, err := lg.Load()
			if err != nil {
				t.Fatal(err)
			}

			r, err := RecoverReplicaLog(lg, a.CA(), a.PublicKey(), later)
			if err != nil {
				t.Fatal(err)
			}
			snap := r.Snapshot()
			if snap.Count() != heap.Count() || !snap.RootHash().Equal(heap.RootHash()) {
				t.Fatalf("checkpoint after %d batches: recovered replica differs from heap reference", ckptAfter)
			}
			if !snap.Freshness().Equal(stmt.Value) {
				t.Fatal("recovered replica dropped the WAL freshness record")
			}
			ckpt2, wal2, err := lg.Load()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ckpt, ckpt2) || len(wal2) != len(wal) {
				t.Fatal("recovery rewrote the log")
			}
		}

		lg, err := storage.NewMemory().Open("d")
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.Checkpoint(v1ShapedPayload); err != nil {
			t.Fatal(err)
		}
		if _, err := RecoverReplicaLog(lg, a.CA(), a.PublicKey(), later); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("v1-shaped checkpoint: err = %v, want ErrBadCheckpoint", err)
		}
	})
}

// TestBoundedUpdateRecordDecodes: an update record in the form older builds
// wrote for a coalesced catch-up — a non-empty trailing bound list — decodes
// to its message alone and re-encodes in the form writers emit now, while a
// bound count above the serial count is still refused.
func TestBoundedUpdateRecordDecodes(t *testing.T) {
	_, _, msgs := mappedFixture(t, fixtureBatches(0xB0, []int{30, 12}), 1_700_000_000)
	rec, err := DecodeUpdateRecord(boundedFrame(msgs[1], 33, 36, 40))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Encode(), updateFrame(msgs[1])) {
		t.Fatal("a bounded record does not re-encode to the unbounded form")
	}
	if _, err := DecodeUpdateRecord(boundedFrame(msgs[1], make([]uint64, 13)...)); err == nil {
		t.Fatal("13 bounds for 12 serials decoded")
	}
}

func TestOpenMappedStateRejectsCorruption(t *testing.T) {
	now := int64(1_700_000_000)
	t.Run("sorted", func(t *testing.T) {
		batches := fixtureBatches(0xDA7A, []int{140, 256, 90})
		_, r, _ := mappedFixture(t, batches, now)
		state := r.PersistentStateV2()
		if _, err := OpenMappedState(state); err != nil {
			t.Fatal(err)
		}

		// Walk the section table to locate payload bytes and the last
		// payload end (the buffer may carry trailing alignment padding,
		// which is legitimately ignorable).
		le := binary.LittleEndian
		n := int(le.Uint32(state[8:]))
		flips := []int{8, 16, 16 + 4, 16 + 8} // table count + first entry fields
		lastEnd := 0
		for i := 0; i < n; i++ {
			e := state[16+i*24:]
			off, length := le.Uint64(e[8:]), le.Uint64(e[16:])
			if length > 0 {
				flips = append(flips, int(off), int(off+length/2), int(off+length-1))
			}
			if end := int(off + length); end > lastEnd {
				lastEnd = end
			}
		}

		// Truncations at every structural boundary, including one byte
		// into the last section's payload.
		for _, cut := range []int{0, 4, 8, 15, 16, len(state) / 3, lastEnd - 1} {
			if _, err := OpenMappedState(state[:cut]); !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("truncated to %d bytes: err = %v, want ErrBadCheckpoint", cut, err)
			}
		}
		for _, pos := range flips {
			mut := append([]byte(nil), state...)
			mut[pos] ^= 0xFF
			if _, err := OpenMappedState(mut); err == nil {
				t.Fatalf("flip at %d accepted", pos)
			}
		}

		// Magic corruption must fail the cheap IsStateV2 probe, so the
		// v1 decoder never sees the payload.
		mut := append([]byte(nil), state...)
		mut[0] ^= 0xFF
		if IsStateV2(mut) {
			t.Fatal("IsStateV2 accepted corrupted magic")
		}
	})
}

// TestOpenMappedStateRejectsSwappedRoot pins the O(1) structural-root
// check: splicing a correctly-signed root from a different state into an
// otherwise valid checkpoint is caught without rehashing the interior.
func TestOpenMappedStateRejectsSwappedRoot(t *testing.T) {
	now := int64(1_700_000_000)
	a, r1, _ := mappedFixture(t, fixtureBatches(0x01, []int{64, 90}), now)
	snap := r1.Snapshot()
	// A validly signed root for a LATER state than the one we will encode.
	msg, err := a.Insert(serial.NewGenerator(0x02, nil).NextN(30), now)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode the earlier structure with the newer signed root spliced
	// in: the signature verifies, but the stored tree root no longer
	// matches the signed root's hash, so opening must fail.
	spliced := encodeStateV2(snap.view, snap.bounds, msg.Root, snap.freshness, nil)
	if _, err := OpenMappedState(spliced); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("spliced root: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestFreshnessAdoptionToleratesLag pins the shared-reader liveness rule:
// a freshness statement is adopted whenever it is genuinely newer than
// the one already held, even when it is several periods old by the time
// it is (re-)verified. A mapped reader and a recovery replay both
// evaluate the writer's records long after the writer adopted them; the
// old {p, p−1} window silently dropped every record and froze freshness
// at the checkpoint's period, so a shared reader went stale as soon as
// the writer was more than one ∆ ahead of its last revocation.
func TestFreshnessAdoptionToleratesLag(t *testing.T) {
	now := int64(1_700_000_000)
	a, r, _ := mappedFixture(t, fixtureBatches(0x1A6, []int{40, 25}), now)
	period := func(k int) int64 { return now + int64(k)*int64(testDelta.Seconds()) }

	stmt3, err := a.Statement(period(3))
	if err != nil {
		t.Fatal(err)
	}
	stmt7, err := a.Statement(period(7))
	if err != nil {
		t.Fatal(err)
	}
	wal := [][]byte{
		(&FreshnessRecord{Value: stmt3.Value}).Encode(),
		(&FreshnessRecord{Value: stmt7.Value}).Encode(),
	}

	// Mapped at period 9: both records are older than {p, p−1}, and the
	// newest must win.
	ms := openMapped(t, a, r.PersistentStateV2(), wal, period(9))
	if !ms.Freshness().Equal(stmt7.Value) || ms.FreshnessPeriod() != 7 {
		t.Fatalf("mapped freshness (%v, %d), want stmt for period 7", ms.Freshness(), ms.FreshnessPeriod())
	}

	// Heap path, same lag: ApplyFreshness replayed at period 9.
	if err := r.ApplyFreshness(&FreshnessStatement{CA: r.CA(), Value: stmt3.Value}, period(9)); err != nil {
		t.Fatalf("lagged statement rejected: %v", err)
	}
	if err := r.ApplyFreshness(&FreshnessStatement{CA: r.CA(), Value: stmt7.Value}, period(9)); err != nil {
		t.Fatalf("lagged statement rejected: %v", err)
	}
	snap := r.Snapshot()
	if !snap.Freshness().Equal(stmt7.Value) {
		t.Fatal("heap replica did not adopt the newest lagged statement")
	}
	// Monotonicity: replaying the older record again must not regress.
	if err := r.ApplyFreshness(&FreshnessStatement{CA: r.CA(), Value: stmt3.Value}, period(9)); err == nil {
		t.Fatal("older statement re-adopted after a newer one")
	}
	if !r.Snapshot().Freshness().Equal(stmt7.Value) {
		t.Fatal("freshness regressed to an older statement")
	}

	// A value that chains to nothing is still refused.
	bogus := cryptoutil.HashBytes([]byte("not on the chain"))
	if err := r.ApplyFreshness(&FreshnessStatement{CA: r.CA(), Value: bogus}, period(9)); err == nil {
		t.Fatal("off-chain statement accepted")
	}
	ms2 := openMapped(t, a, r.PersistentStateV2(),
		[][]byte{(&FreshnessRecord{Value: bogus}).Encode()}, period(9))
	if ms2.Freshness().Equal(bogus) {
		t.Fatal("mapped reader adopted an off-chain freshness value")
	}
}

// TestTotalLevelNodesMatchesLevelShape checks the shape a reader cuts a
// checkpoint's levels section into (totalLevelNodes, splitLevels) against the
// closed form of the ceil-halving walk buildLevels does — level l of a tree
// over n leaves holds ((n-1)>>l)+1 nodes, up to level bits.Len(n-1) — and,
// for small n, against the levels buildLevels builds.
func TestTotalLevelNodesMatchesLevelShape(t *testing.T) {
	var rb rebuilder
	for n := 1; n <= 5000; n++ {
		depth := bits.Len(uint(n-1)) + 1
		total := 0
		for l := 0; l < depth; l++ {
			total += (n-1)>>l + 1
		}
		if got := totalLevelNodes(n); got != total {
			t.Fatalf("totalLevelNodes(%d) = %d, want %d", n, got, total)
		}
		levels := splitLevels(make([]byte, total*cryptoutil.HashSize), n)
		if len(levels) != depth {
			t.Fatalf("n=%d: %d levels, want %d", n, len(levels), depth)
		}
		for l, level := range levels {
			if want := ((n-1)>>l + 1) * cryptoutil.HashSize; len(level) != want || cap(level) != want {
				t.Fatalf("n=%d: level %d len %d cap %d, want %d", n, l, len(level), cap(level), want)
			}
		}
		if n <= 130 {
			built := rb.buildLevels(nil, nil, make([]byte, n*cryptoutil.HashSize), nil)
			if len(built) != depth {
				t.Fatalf("n=%d: buildLevels built %d levels, want %d", n, len(built), depth)
			}
			for l := range built {
				if len(built[l]) != len(levels[l]) {
					t.Fatalf("n=%d: buildLevels level %d holds %d bytes, want %d", n, l, len(built[l]), len(levels[l]))
				}
			}
		}
	}
}
