package cryptoutil

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
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
	// (the classic Merkle second-preimage attack). The leaf's wire payload
	// (a 38-byte serial, counter 7) is byte for byte the node's children.
	raw := bytes.Repeat([]byte{0x5A}, 2*HashSize-2)
	payload := binary.AppendUvarint(append([]byte{byte(len(raw))}, raw...), 7)
	l, r := Hash(payload[:HashSize]), Hash(payload[HashSize:])

	hashes := map[string]Hash{
		"plain": HashBytes(payload),
		"leaf":  HashLeafSerial(raw, 7),
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
// (what verifiers compute), whatever it hashed before, and both must still
// be the truncated SHA-256 of the domain byte and the wire payload.
func TestTreeHasherMatchesFreeFunctions(t *testing.T) {
	var h TreeHasher
	a, b := HashBytes([]byte("a")), HashBytes([]byte("b"))
	var got Hash
	for i := 0; i < 3; i++ {
		if h.Node(&got, &a, &b); got != HashNode(a, b) || got != truncSHA256(nodePreimage(a, b)) {
			t.Fatalf("round %d: TreeHasher.Node differs from HashNode", i)
		}
		for _, raw := range [][]byte{{7}, bytes.Repeat([]byte{0xEE}, 20), bytes.Repeat([]byte{1}, 40)} {
			num := 1<<40 + uint64(i)
			if h.LeafSerial(&got, raw, num); got != HashLeafSerial(raw, num) || got != truncSHA256(leafPreimage(raw, num)) {
				t.Fatalf("round %d: TreeHasher.LeafSerial differs for a %d-byte serial", i, len(raw))
			}
		}
		a = b
	}
}

// truncSHA256 is the oracle every fast path is checked against.
func truncSHA256(b []byte) Hash {
	full := sha256.Sum256(b)
	return Hash(full[:HashSize])
}

// leafPreimage is the wire form HashLeafSerial hashes, built independently
// of appendLeafSerial.
func leafPreimage(raw []byte, num uint64) []byte {
	b := binary.AppendUvarint([]byte{domainLeaf}, uint64(len(raw)))
	return binary.AppendUvarint(append(b, raw...), num)
}

// nodePreimage is the preimage HashNode hashes, built independently of
// putNode and of the kernel's registers.
func nodePreimage(l, r Hash) []byte {
	return append(append([]byte{domainNode}, l[:]...), r[:]...)
}

// TestBlockHashMatchesSHA256: the single-block kernel is an optimisation,
// not a second hash. Every preimage length it takes (0–55) and the lengths
// past it that must fall through to crypto/sha256 (56–128) give the
// truncated sha256.Sum256 through HashBytes; leaf preimages of 3–112 bytes
// give it through HashLeafSerial and through one TreeHasher whose buffer
// the previous, differently sized preimage dirtied, and chain steps through
// HashStep. Nodes are TestNodeKernelMatchesSHA256's.
func TestBlockHashMatchesSHA256(t *testing.T) {
	t.Logf("single-block kernel in use: %v", useBlock)
	rng := rand.New(rand.NewSource(1))
	var th TreeHasher
	var got Hash
	for n := 0; n <= 128; n++ {
		for rep := 0; rep < 8; rep++ {
			data := make([]byte, n)
			rng.Read(data)
			if got, want := HashBytes(data), truncSHA256(data); got != want {
				t.Fatalf("HashBytes(%d bytes) = %v, want %v", n, got, want)
			}

			raw := data[:min(n, 100)]
			num := rng.Uint64() >> rng.Intn(64)
			want := truncSHA256(leafPreimage(raw, num))
			if got := HashLeafSerial(raw, num); got != want {
				t.Fatalf("HashLeafSerial(%d-byte serial, %d) = %v, want %v", len(raw), num, got, want)
			}
			if th.LeafSerial(&got, raw, num); got != want {
				t.Fatalf("TreeHasher.LeafSerial(%d-byte serial, %d) = %v, want %v", len(raw), num, got, want)
			}

			var l Hash
			rng.Read(l[:])
			if got, want := HashStep(l), truncSHA256(append([]byte{domainChain}, l[:]...)); got != want {
				t.Fatalf("HashStep = %v, want %v", got, want)
			}
		}
	}
}

// checkNode compares every entry that hashes an interior node — the
// kernel itself where it runs, HashNode (verifiers), TreeHasher.Node
// (rebuilds), and the kernel writing over either child — with the
// truncated SHA-256 of the node's preimage.
func checkNode(t *testing.T, th *TreeHasher, l, r Hash) {
	t.Helper()
	want := truncSHA256(nodePreimage(l, r))
	if got := HashNode(l, r); got != want {
		t.Fatalf("HashNode(%v, %v) = %v, want %v", l, r, got, want)
	}
	var got Hash
	if th.Node(&got, &l, &r); got != want {
		t.Fatalf("TreeHasher.Node(%v, %v) = %v, want %v", l, r, got, want)
	}
	if !useBlock {
		return
	}
	if nodeBlock(&got, &l, &r); got != want {
		t.Fatalf("nodeBlock(%v, %v) = %v, want %v", l, r, got, want)
	}
	a, b := l, r
	if nodeBlock(&a, &a, &b); a != want {
		t.Fatalf("nodeBlock over its left child = %v, want %v", a, want)
	}
	a = l
	if nodeBlock(&b, &a, &b); b != want {
		t.Fatalf("nodeBlock over its right child = %v, want %v", b, want)
	}
}

// TestNodeKernelMatchesSHA256: the node entry builds its block in
// registers, not from putNode's bytes, so it is checked on its own —
// random pairs, all-0x00 and all-0xFF children (every byte lane at either
// extreme), and equal children.
func TestNodeKernelMatchesSHA256(t *testing.T) {
	t.Logf("single-block kernel in use: %v", useBlock)
	var th TreeHasher
	var zero, ones Hash
	for i := range ones {
		ones[i] = 0xFF
	}
	for _, c := range [][2]Hash{{zero, zero}, {ones, ones}, {zero, ones}, {ones, zero}} {
		checkNode(t, &th, c[0], c[1])
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var l, r Hash
		rng.Read(l[:])
		rng.Read(r[:])
		checkNode(t, &th, l, r)
		checkNode(t, &th, l, l)
	}
}

// FuzzHashNode checks interior nodes against the same oracle; inputs are
// cut or zero-padded to 20-byte children.
func FuzzHashNode(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, HashSize), bytes.Repeat([]byte{0xFF}, HashSize))
	f.Add([]byte("left child, 20 bytes"), []byte("right child 20 bytes"))
	var th TreeHasher
	f.Fuzz(func(t *testing.T, lb, rb []byte) {
		var l, r Hash
		copy(l[:], lb)
		copy(r[:], rb)
		checkNode(t, &th, l, r)
	})
}

// FuzzHashBytes checks arbitrary preimages against the same oracle, as
// plain bytes and as a leaf's serial.
func FuzzHashBytes(f *testing.F) {
	for _, n := range []int{0, 1, 41, 55, 56, 63, 64, 65, 128} {
		f.Add(bytes.Repeat([]byte{0xA5}, n), uint64(n))
	}
	f.Fuzz(func(t *testing.T, data []byte, num uint64) {
		if got, want := HashBytes(data), truncSHA256(data); got != want {
			t.Fatalf("HashBytes(%x) = %v, want %v", data, got, want)
		}
		if got, want := HashLeafSerial(data, num), truncSHA256(leafPreimage(data, num)); got != want {
			t.Fatalf("HashLeafSerial(%x, %d) = %v, want %v", data, num, got, want)
		}
	})
}

// TestHashZeroAlloc pins the per-node hashing of rebuilds and verifiers to
// the stack: the block never escapes into the kernel.
func TestHashZeroAlloc(t *testing.T) {
	a, b := HashBytes([]byte("a")), HashBytes([]byte("b"))
	raw := bytes.Repeat([]byte{0xEE}, 20)
	var th TreeHasher
	for name, fn := range map[string]func(){
		"HashNode":        func() { a = HashNode(a, b) },
		"HashLeafSerial":  func() { a = HashLeafSerial(raw, 1<<40) },
		"HashStep":        func() { a = HashStep(a) },
		"TreeHasher.Node": func() { th.Node(&a, &a, &b) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

func TestChainValuesVerify(t *testing.T) {
	chain := NewChainFromSeed(HashBytes([]byte("seed")), 16)
	anchor := chain.Anchor()
	for p := 0; p <= 16; p++ {
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
	if err := Verify([]byte{1, 2, 3}, []byte("m"), make([]byte, ed25519.SignatureSize)); !errors.Is(err, ErrBadSignature) {
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

// BenchmarkHashNode is a serial chain, l = H(l, r): each node waits for
// the one before, as in a verifier's climb, so it measures latency. The
// benchmark probe cryptoutil.hash_node_ns is the same chain. Neither is
// the per-node cost of a rebuild; BenchmarkHashLevel is.
func BenchmarkHashNode(b *testing.B) {
	l, r := HashBytes([]byte("left")), HashBytes([]byte("right"))
	b.Run("HashNode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l = HashNode(l, r)
		}
	})
	b.Run("TreeHasher", func(b *testing.B) {
		var th TreeHasher
		for i := 0; i < b.N; i++ {
			th.Node(&l, &l, &r)
		}
	})
}

// BenchmarkHashLevel is the per-node cost of a rebuild: one level above a
// 2^18-node level, hashed pairwise through a TreeHasher into a separate
// array as dictionary's hashPairs does, so neighbouring nodes are
// independent and their compressions can overlap.
func BenchmarkHashLevel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cur := make([]Hash, 1<<18)
	for i := range cur {
		rng.Read(cur[i][:])
	}
	next := make([]Hash, len(cur)/2)
	var th TreeHasher
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range next {
			th.Node(&next[k], &cur[2*k], &cur[2*k+1])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(next)), "ns/node")
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
