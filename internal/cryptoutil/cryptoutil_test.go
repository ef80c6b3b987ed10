package cryptoutil

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func TestHashBytesIsTruncatedSHA256(t *testing.T) {
	data := []byte("ritm")
	full := sha256.Sum256(data)
	got := HashBytes(data)
	if !bytes.Equal(got[:], full[:HashSize]) {
		t.Errorf("HashBytes = %x, want first 20 bytes of %x", got, full)
	}
}

func TestHashConcatMatchesConcatenation(t *testing.T) {
	a, b := []byte("rev"), []byte("ocation")
	want := HashBytes([]byte("revocation"))
	got := HashConcat(a, b)
	if got != want {
		t.Errorf("HashConcat = %v, want %v", got, want)
	}
}

func TestHashFromBytes(t *testing.T) {
	h := HashBytes([]byte("x"))
	got, err := HashFromBytes(h[:])
	if err != nil {
		t.Fatalf("HashFromBytes: %v", err)
	}
	if got != h {
		t.Errorf("round trip mismatch: %v != %v", got, h)
	}
	if _, err := HashFromBytes(h[:10]); !errors.Is(err, ErrBadHashSize) {
		t.Errorf("short input: err = %v, want ErrBadHashSize", err)
	}
}

func TestDomainSeparation(t *testing.T) {
	// Leaf, node, chain, and plain hashes of identical payloads must all
	// differ; otherwise a leaf could be confused with an interior node
	// (the classic Merkle second-preimage attack).
	payload := make([]byte, 2*HashSize)
	var l, r Hash
	copy(l[:], payload[:HashSize])
	copy(r[:], payload[HashSize:])

	hashes := map[string]Hash{
		"plain": HashBytes(payload),
		"leaf":  HashLeaf(payload),
		"node":  HashNode(l, r),
		"chain": HashStep(l),
	}
	seen := make(map[Hash]string, len(hashes))
	for name, h := range hashes {
		if prev, dup := seen[h]; dup {
			t.Errorf("domain collision between %s and %s", prev, name)
		}
		seen[h] = name
	}
}

// TestTreeHasherMatchesFreeFunctions: the reused digest is an optimisation,
// not a second hash — it must give HashNode's and HashLeafSerial's bytes
// (what verifiers compute), whatever it hashed before, and HashLeafSerial
// must still be HashLeaf over the wire payload.
func TestTreeHasherMatchesFreeFunctions(t *testing.T) {
	var h TreeHasher
	a, b := HashBytes([]byte("a")), HashBytes([]byte("b"))
	for i := 0; i < 3; i++ {
		if got := h.Node(&a, &b); got != HashNode(a, b) || got != HashConcat([]byte{domainNode}, a[:], b[:]) {
			t.Fatalf("round %d: TreeHasher.Node differs from HashNode", i)
		}
		for _, raw := range [][]byte{{7}, bytes.Repeat([]byte{0xEE}, 20), bytes.Repeat([]byte{1}, 40)} {
			payload := binary.AppendUvarint(append([]byte{byte(len(raw))}, raw...), 1<<40+uint64(i))
			if got := h.LeafSerial(raw, 1<<40+uint64(i)); got != HashLeafSerial(raw, 1<<40+uint64(i)) || got != HashLeaf(payload) {
				t.Fatalf("round %d: TreeHasher.LeafSerial differs for a %d-byte serial", i, len(raw))
			}
		}
		a = b
	}
}

func TestChainValuesVerify(t *testing.T) {
	chain := NewChainFromSeed(HashBytes([]byte("seed")), 16)
	anchor := chain.Anchor()
	for p := 0; p <= chain.Length(); p++ {
		v, err := chain.Value(p)
		if err != nil {
			t.Fatalf("Value(%d): %v", p, err)
		}
		if err := VerifyChainValue(anchor, v, p); err != nil {
			t.Errorf("VerifyChainValue(p=%d): %v", p, err)
		}
	}
}

func TestChainValueOutOfRange(t *testing.T) {
	chain := NewChainFromSeed(HashBytes([]byte("seed")), 4)
	if _, err := chain.Value(5); !errors.Is(err, ErrChainTooLong) {
		t.Errorf("Value(5) err = %v, want ErrChainTooLong", err)
	}
	if _, err := chain.Value(-1); !errors.Is(err, ErrChainTooLong) {
		t.Errorf("Value(-1) err = %v, want ErrChainTooLong", err)
	}
}

func TestChainWrongPeriodRejected(t *testing.T) {
	chain := NewChainFromSeed(HashBytes([]byte("seed")), 16)
	v3, err := chain.Value(3)
	if err != nil {
		t.Fatal(err)
	}
	// A period-3 value claimed as period 2 must not verify: an attacker
	// cannot replay an older (more hashed) value as fresher.
	if err := VerifyChainValue(chain.Anchor(), v3, 2); err == nil {
		t.Error("stale chain value accepted at a fresher period")
	}
	// Claiming it as period 4 must also fail (cannot fabricate preimages).
	if err := VerifyChainValue(chain.Anchor(), v3, 4); err == nil {
		t.Error("chain value accepted at an older period than issued")
	}
}

func TestNewChainRejectsBadLength(t *testing.T) {
	if _, err := NewChain(nil, 0); err == nil {
		t.Error("NewChain(0) succeeded, want error")
	}
}

func TestNewChainRandomSeed(t *testing.T) {
	c1, err := NewChain(bytes.NewReader(bytes.Repeat([]byte{7}, 32)), 8)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewChainFromSeed(Hash{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, 8)
	if c1.Anchor() != c2.Anchor() {
		t.Error("NewChain with fixed reader differs from NewChainFromSeed")
	}
}

func TestSignVerify(t *testing.T) {
	s, err := NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("revocation issuance")
	sig := s.Sign(msg)
	if err := Verify(s.Public(), msg, sig); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// Tampered message must fail.
	if err := Verify(s.Public(), []byte("revocation issuancE"), sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered message: err = %v, want ErrBadSignature", err)
	}
	// Tampered signature must fail.
	sig[0] ^= 1
	if err := Verify(s.Public(), msg, sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered signature: err = %v, want ErrBadSignature", err)
	}
}

func TestVerifyBadKeySize(t *testing.T) {
	if err := Verify([]byte{1, 2, 3}, []byte("m"), make([]byte, SignatureSize)); !errors.Is(err, ErrBadSignature) {
		t.Errorf("err = %v, want ErrBadSignature", err)
	}
}

func TestSignerFromSeedDeterministic(t *testing.T) {
	var seed [32]byte
	seed[0] = 42
	a := NewSignerFromSeed(seed)
	b := NewSignerFromSeed(seed)
	if !a.Public().Equal(b.Public()) {
		t.Error("same seed produced different keys")
	}
	if KeyID(a.Public()) != KeyID(b.Public()) {
		t.Error("same key produced different key IDs")
	}
}

func TestHashIterZero(t *testing.T) {
	h := HashBytes([]byte("v"))
	if HashIter(h, 0) != h {
		t.Error("HashIter(h, 0) != h")
	}
	if HashIter(h, 3) != HashStep(HashStep(HashStep(h))) {
		t.Error("HashIter(h, 3) != H(H(H(h)))")
	}
}

// Property: chain verification succeeds exactly for the issued period, for
// arbitrary seeds and periods (paper §II hash-chain property).
func TestQuickChainSoundness(t *testing.T) {
	f := func(seedBytes [32]byte, pRaw uint8) bool {
		const m = 32
		var seed Hash
		copy(seed[:], seedBytes[:HashSize])
		chain := NewChainFromSeed(seed, m)
		p := int(pRaw) % (m + 1)
		v, err := chain.Value(p)
		if err != nil {
			return false
		}
		return VerifyChainValue(chain.Anchor(), v, p) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: an attacker without the seed cannot produce a statement for a
// strictly fresher (smaller) period from an observed one.
func TestQuickChainForgeryResists(t *testing.T) {
	f := func(seedBytes [32]byte, guess [HashSize]byte) bool {
		var seed Hash
		copy(seed[:], seedBytes[:HashSize])
		chain := NewChainFromSeed(seed, 8)
		real, _ := chain.Value(8) // the seed end of the chain
		if Hash(guess) == real {
			return true // astronomically unlikely; not a forgery
		}
		// The guess must not verify one step fresher than the anchor period
		// unless it is the genuine preimage.
		return VerifyChainValue(chain.Anchor(), Hash(guess), 8) != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkHashStep(b *testing.B) {
	h := HashBytes([]byte("bench"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h = HashStep(h)
	}
	_ = h
}

func BenchmarkSign(b *testing.B) {
	s, err := NewSigner(nil)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sign(msg)
	}
}

func BenchmarkVerify(b *testing.B) {
	s, err := NewSigner(nil)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 100)
	sig := s.Sign(msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(s.Public(), msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}
