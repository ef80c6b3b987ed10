package dictionary

import (
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"ritm/internal/serial"
)

func mustSerials(t *testing.T, vals ...uint64) []serial.Number {
	t.Helper()
	out := make([]serial.Number, len(vals))
	for i, v := range vals {
		out[i] = serial.FromUint64(v)
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	tree := NewTree()
	if tree.Count() != 0 {
		t.Errorf("Count() = %d, want 0", tree.Count())
	}
	if tree.Root() != EmptyRoot {
		t.Errorf("Root() = %v, want EmptyRoot", tree.Root())
	}
	p := tree.Prove(serial.FromUint64(5))
	if p.Kind != ProofAbsenceEmpty {
		t.Fatalf("Prove on empty tree: kind = %v, want absence-empty", p.Kind)
	}
	revoked, err := p.Verify(serial.FromUint64(5), tree.Root(), tree.Count())
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if revoked {
		t.Error("empty tree proved revocation")
	}
}

func TestInsertAssignsConsecutiveNumbers(t *testing.T) {
	tree := NewTree()
	if err := tree.InsertBatch(mustSerials(t, 30, 10, 20)); err != nil {
		t.Fatal(err)
	}
	if err := tree.InsertBatch(mustSerials(t, 5)); err != nil {
		t.Fatal(err)
	}
	// Numbers follow issuance order, not sorted order.
	wantNums := map[uint64]uint64{30: 1, 10: 2, 20: 3, 5: 4}
	for s, want := range wantNums {
		num, ok := tree.Revoked(serial.FromUint64(s))
		if !ok {
			t.Fatalf("serial %d not revoked", s)
		}
		if num != want {
			t.Errorf("serial %d: num = %d, want %d", s, num, want)
		}
	}
	log := tree.Log()
	wantLog := []uint64{30, 10, 20, 5}
	for i, w := range wantLog {
		if !log[i].Equal(serial.FromUint64(w)) {
			t.Errorf("log[%d] = %v, want %d", i, log[i], w)
		}
	}
}

func TestInsertDuplicateRejectedAtomically(t *testing.T) {
	tree := NewTree()
	if err := tree.InsertBatch(mustSerials(t, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	rootBefore := tree.Root()

	// Historical duplicate.
	err := tree.InsertBatch(mustSerials(t, 9, 2))
	if !errors.Is(err, ErrDuplicateSerial) {
		t.Fatalf("err = %v, want ErrDuplicateSerial", err)
	}
	// In-batch duplicate.
	err = tree.InsertBatch(mustSerials(t, 7, 7))
	if !errors.Is(err, ErrDuplicateSerial) {
		t.Fatalf("err = %v, want ErrDuplicateSerial", err)
	}
	// Tree unchanged: the serial 9 from the failed batch must be absent.
	if tree.Root() != rootBefore {
		t.Error("failed batch mutated the tree")
	}
	if _, ok := tree.Revoked(serial.FromUint64(9)); ok {
		t.Error("serial from failed batch is present")
	}
	if tree.Count() != 3 {
		t.Errorf("Count() = %d, want 3", tree.Count())
	}
}

func TestRootChangesOnInsert(t *testing.T) {
	tree := NewTree()
	seen := map[string]bool{tree.Root().String(): true}
	for i := uint64(1); i <= 40; i++ {
		if err := tree.InsertBatch(mustSerials(t, i*1000)); err != nil {
			t.Fatal(err)
		}
		r := tree.Root().String()
		if seen[r] {
			t.Fatalf("root repeated after insert %d", i)
		}
		seen[r] = true
	}
}

func TestProvePresenceAllSizes(t *testing.T) {
	// Exercise odd and even tree sizes including the promoted-node edge.
	for size := 1; size <= 33; size++ {
		tree := NewTree()
		serials := make([]serial.Number, size)
		for i := range serials {
			serials[i] = serial.FromUint64(uint64(i*10 + 5))
		}
		if err := tree.InsertBatch(serials); err != nil {
			t.Fatal(err)
		}
		for _, s := range serials {
			p := tree.Prove(s)
			if p.Kind != ProofPresence {
				t.Fatalf("size %d: Prove(%v) kind = %v", size, s, p.Kind)
			}
			revoked, err := p.Verify(s, tree.Root(), tree.Count())
			if err != nil {
				t.Fatalf("size %d: Verify(%v): %v", size, s, err)
			}
			if !revoked {
				t.Fatalf("size %d: presence proof verified as absence", size)
			}
		}
	}
}

func TestProveAbsenceAllGaps(t *testing.T) {
	tree := NewTree()
	// Leaves at 10, 20, ..., 150: gaps before, between each pair, after.
	var serials []serial.Number
	for v := uint64(10); v <= 150; v += 10 {
		serials = append(serials, serial.FromUint64(v))
	}
	if err := tree.InsertBatch(serials); err != nil {
		t.Fatal(err)
	}
	for _, absent := range []uint64{1, 15, 25, 95, 149, 151, 100000} {
		s := serial.FromUint64(absent)
		p := tree.Prove(s)
		if p.Kind != ProofAbsence {
			t.Fatalf("Prove(%d) kind = %v, want absence", absent, p.Kind)
		}
		revoked, err := p.Verify(s, tree.Root(), tree.Count())
		if err != nil {
			t.Fatalf("Verify absence of %d: %v", absent, err)
		}
		if revoked {
			t.Fatalf("absence proof for %d verified as presence", absent)
		}
	}
}

func TestProofDoesNotVerifyAgainstWrongRoot(t *testing.T) {
	tree := NewTree()
	if err := tree.InsertBatch(mustSerials(t, 10, 20, 30, 40, 50)); err != nil {
		t.Fatal(err)
	}
	s := serial.FromUint64(30)
	p := tree.Prove(s)
	oldRoot, oldCount := tree.Root(), tree.Count()

	if err := tree.InsertBatch(mustSerials(t, 25)); err != nil {
		t.Fatal(err)
	}
	// Old proof fails against the new root.
	if _, err := p.Verify(s, tree.Root(), tree.Count()); err == nil {
		t.Error("stale proof verified against new root")
	}
	// Old proof still verifies against the old root (roots pin versions).
	if _, err := p.Verify(s, oldRoot, oldCount); err != nil {
		t.Errorf("proof against its own version failed: %v", err)
	}
}

func TestProofTamperingRejected(t *testing.T) {
	tree := NewTree()
	if err := tree.InsertBatch(mustSerials(t, 10, 20, 30, 40, 50, 60, 70)); err != nil {
		t.Fatal(err)
	}
	root, n := tree.Root(), tree.Count()

	t.Run("wrong serial in presence proof", func(t *testing.T) {
		p := tree.Prove(serial.FromUint64(30))
		if _, err := p.Verify(serial.FromUint64(40), root, n); !errors.Is(err, ErrBadProof) {
			t.Errorf("err = %v, want ErrBadProof", err)
		}
	})
	t.Run("tampered path element", func(t *testing.T) {
		p := tree.Prove(serial.FromUint64(30))
		p.Left.Path[0][0] ^= 1
		if _, err := p.Verify(serial.FromUint64(30), root, n); !errors.Is(err, ErrBadProof) {
			t.Errorf("err = %v, want ErrBadProof", err)
		}
	})
	t.Run("tampered revocation number", func(t *testing.T) {
		p := tree.Prove(serial.FromUint64(30))
		p.Left.Num++
		if _, err := p.Verify(serial.FromUint64(30), root, n); !errors.Is(err, ErrBadProof) {
			t.Errorf("err = %v, want ErrBadProof", err)
		}
	})
	t.Run("tampered index", func(t *testing.T) {
		p := tree.Prove(serial.FromUint64(30))
		p.Left.Index++
		if _, err := p.Verify(serial.FromUint64(30), root, n); !errors.Is(err, ErrBadProof) {
			t.Errorf("err = %v, want ErrBadProof", err)
		}
	})
	t.Run("index outside tree", func(t *testing.T) {
		p := tree.Prove(serial.FromUint64(30))
		p.Left.Index = n + 5
		if _, err := p.Verify(serial.FromUint64(30), root, n); !errors.Is(err, ErrBadProof) {
			t.Errorf("err = %v, want ErrBadProof", err)
		}
	})
	t.Run("truncated path", func(t *testing.T) {
		p := tree.Prove(serial.FromUint64(30))
		p.Left.Path = p.Left.Path[:len(p.Left.Path)-1]
		if _, err := p.Verify(serial.FromUint64(30), root, n); !errors.Is(err, ErrBadProof) {
			t.Errorf("err = %v, want ErrBadProof", err)
		}
	})
	t.Run("extended path", func(t *testing.T) {
		p := tree.Prove(serial.FromUint64(30))
		p.Left.Path = append(p.Left.Path, p.Left.Path[0])
		if _, err := p.Verify(serial.FromUint64(30), root, n); !errors.Is(err, ErrBadProof) {
			t.Errorf("err = %v, want ErrBadProof", err)
		}
	})
}

func TestAbsenceProofCannotHideRevocation(t *testing.T) {
	// An attacker (compromised RA) holds valid leaves but tries to prove
	// absence of a serial that IS revoked, using non-adjacent leaves.
	tree := NewTree()
	if err := tree.InsertBatch(mustSerials(t, 10, 20, 30, 40, 50)); err != nil {
		t.Fatal(err)
	}
	root, n := tree.Root(), tree.Count()

	// Honest absence proof for 25 exhibits leaves 20 and 30. Forge a proof
	// for revoked serial 30 from the leaves around it: indices 1 (20) and
	// 3 (40) are not adjacent, so verification must fail.
	p20 := tree.Prove(serial.FromUint64(20))
	p40 := tree.Prove(serial.FromUint64(40))
	forged := &Proof{Kind: ProofAbsence, Left: p20.Left, Right: p40.Left}
	if _, err := forged.Verify(serial.FromUint64(30), root, n); !errors.Is(err, ErrBadProof) {
		t.Errorf("forged absence proof accepted: err = %v", err)
	}

	// Boundary forgeries: claim 30 is below the first or above the last.
	first := tree.Prove(serial.FromUint64(5)) // genuine left-boundary proof
	forged = &Proof{Kind: ProofAbsence, Right: first.Right}
	if _, err := forged.Verify(serial.FromUint64(30), root, n); !errors.Is(err, ErrBadProof) {
		t.Errorf("left-boundary forgery accepted: err = %v", err)
	}
	last := tree.Prove(serial.FromUint64(60)) // genuine right-boundary proof
	forged = &Proof{Kind: ProofAbsence, Left: last.Left}
	if _, err := forged.Verify(serial.FromUint64(30), root, n); !errors.Is(err, ErrBadProof) {
		t.Errorf("right-boundary forgery accepted: err = %v", err)
	}

	// Empty-tree claim against a non-empty dictionary.
	forged = &Proof{Kind: ProofAbsenceEmpty}
	if _, err := forged.Verify(serial.FromUint64(30), root, n); !errors.Is(err, ErrBadProof) {
		t.Errorf("empty-tree forgery accepted: err = %v", err)
	}
}

func TestLogSuffix(t *testing.T) {
	tree := NewTree()
	if err := tree.InsertBatch(mustSerials(t, 11, 22, 33, 44)); err != nil {
		t.Fatal(err)
	}
	got, err := tree.LogSuffix(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].Equal(serial.FromUint64(22)) || !got[1].Equal(serial.FromUint64(33)) {
		t.Errorf("LogSuffix(1,3) = %v", got)
	}
	if _, err := tree.LogSuffix(3, 1); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := tree.LogSuffix(0, 9); err == nil {
		t.Error("out-of-range suffix accepted")
	}
}

func TestInsertOrderIndependentOfBatchOrderWithinSortedResult(t *testing.T) {
	// The same issuance history must give the same root regardless of how
	// it is batched (Tab I batches vs. single inserts).
	history := mustSerials(t, 90, 10, 50, 30, 70, 20)
	one := NewTree()
	if err := one.InsertBatch(history); err != nil {
		t.Fatal(err)
	}
	batched := NewTree()
	if err := batched.InsertBatch(history[:2]); err != nil {
		t.Fatal(err)
	}
	if err := batched.InsertBatch(history[2:5]); err != nil {
		t.Fatal(err)
	}
	if err := batched.InsertBatch(history[5:]); err != nil {
		t.Fatal(err)
	}
	if one.Root() != batched.Root() {
		t.Error("batching changed the root for identical issuance history")
	}
}

func TestSerializedSizeAndMemoryFootprint(t *testing.T) {
	tree := NewTree()
	gen := serial.NewGenerator(3, serial.SizeDistribution{{Bytes: 3, Weight: 1}})
	if err := tree.InsertBatch(gen.NextN(1000)); err != nil {
		t.Fatal(err)
	}
	// 1000 three-byte serials, each 1 length byte + 3 bytes.
	if got := tree.SerializedSize(); got != 4000 {
		t.Errorf("SerializedSize() = %d, want 4000", got)
	}
	if got := tree.MemoryFootprint(); got < 4000 {
		t.Errorf("MemoryFootprint() = %d, implausibly small", got)
	}
}

func TestProofEncodeDecodeRoundTrip(t *testing.T) {
	tree := NewTree()
	if err := tree.InsertBatch(mustSerials(t, 10, 20, 30, 40, 50)); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{30, 25, 5, 55} {
		s := serial.FromUint64(v)
		p := tree.Prove(s)
		decoded, err := DecodeProof(p.Encode())
		if err != nil {
			t.Fatalf("DecodeProof(%d): %v", v, err)
		}
		wantRevoked := p.Kind == ProofPresence
		revoked, err := decoded.Verify(s, tree.Root(), tree.Count())
		if err != nil {
			t.Fatalf("decoded proof for %d: %v", v, err)
		}
		if revoked != wantRevoked {
			t.Errorf("decoded proof for %d: revoked = %v, want %v", v, revoked, wantRevoked)
		}
	}
	// Empty-tree proof round-trips too.
	empty := NewTree()
	p := empty.Prove(serial.FromUint64(1))
	if _, err := DecodeProof(p.Encode()); err != nil {
		t.Fatalf("decode empty proof: %v", err)
	}
}

func TestDecodeProofJunk(t *testing.T) {
	if _, err := DecodeProof([]byte{0xff, 0x01, 0x02}); err == nil {
		t.Error("junk decoded as proof")
	}
	if _, err := DecodeProof(nil); err == nil {
		t.Error("empty buffer decoded as proof")
	}
}

// Property: for a random set of revoked serials, Prove/Verify agree with
// membership for arbitrary queried serials. This is the core soundness/
// completeness property of the authenticated dictionary.
func TestQuickProveVerifyAgreesWithMembership(t *testing.T) {
	f := func(seed uint64, queries []uint32) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		tree := NewTree()
		revoked := make(map[uint64]bool)
		var batch []serial.Number
		n := 1 + rng.IntN(200)
		for i := 0; i < n; i++ {
			v := uint64(rng.Uint32N(1 << 16))
			if revoked[v] {
				continue
			}
			revoked[v] = true
			batch = append(batch, serial.FromUint64(v))
		}
		if err := tree.InsertBatch(batch); err != nil {
			return false
		}
		for _, q := range queries {
			s := serial.FromUint64(uint64(q % (1 << 16)))
			p := tree.Prove(s)
			got, err := p.Verify(s, tree.Root(), tree.Count())
			if err != nil {
				return false
			}
			if got != revoked[uint64(q%(1<<16))] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: proof encode/decode round-trips preserve verifiability.
func TestQuickProofCodecRoundTrip(t *testing.T) {
	tree := NewTree()
	gen := serial.NewGenerator(11, nil)
	if err := tree.InsertBatch(gen.NextN(64)); err != nil {
		t.Fatal(err)
	}
	root, n := tree.Root(), tree.Count()
	f := func(raw []byte) bool {
		s, err := serial.New(normalizeSerialBytes(raw))
		if err != nil {
			return true // skip unencodable inputs
		}
		p := tree.Prove(s)
		decoded, err := DecodeProof(p.Encode())
		if err != nil {
			return false
		}
		want, err1 := p.Verify(s, root, n)
		got, err2 := decoded.Verify(s, root, n)
		return err1 == nil && err2 == nil && want == got
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// normalizeSerialBytes coerces arbitrary bytes into a plausible serial
// encoding (non-empty, ≤20 bytes, minimal).
func normalizeSerialBytes(raw []byte) []byte {
	if len(raw) == 0 {
		return []byte{1}
	}
	if len(raw) > serial.MaxLen {
		raw = raw[:serial.MaxLen]
	}
	if len(raw) > 1 && raw[0] == 0 {
		out := make([]byte, len(raw))
		copy(out, raw)
		out[0] = 1
		return out
	}
	return raw
}
