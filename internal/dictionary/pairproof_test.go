package dictionary

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
	"ritm/internal/wire"
)

// rangePathLen is the oracle for the size of a bracketing absence proof:
// the number of hashes a verifier holding the leaves at positions known
// (sorted) of a run of size leaves cannot recompute, by the textbook
// multi-leaf rule — level by level, the sibling of every known node that
// exists and is not itself known; the parents are known on the next level.
// It shares nothing with prove's fork arithmetic.
func rangePathLen(known []uint64, size uint64) int {
	total := 0
	for ; size > 1; size = (size + 1) / 2 {
		var parents []uint64
		for _, p := range known {
			if sib := p ^ 1; sib < size && !slices.Contains(known, sib) {
				total++
			}
			if len(parents) == 0 || parents[len(parents)-1] != p/2 {
				parents = append(parents, p/2)
			}
		}
		known = parents
	}
	return total
}

// decodeFresh decodes enc into a proof nothing else aliases, so a test may
// mutate it freely.
func decodeFresh(t *testing.T, enc []byte) *Proof {
	t.Helper()
	p, err := DecodeProof(enc)
	if err != nil {
		t.Fatalf("DecodeProof: %v", err)
	}
	return p
}

// TestAbsenceProofExhaustiveSmallTrees walks every dictionary size up to
// 130 — every 2ᵐ+1 with its chain of odd-level promotions included — and
// every gap of each, boundaries too, served from the heap and from a mapped
// checkpoint. Each proof must survive Encode → DecodeProof → Verify, carry
// exactly the hashes the multi-leaf oracle predicts, and stop verifying under
// every mutation an untrusted RA could try on a two-leaf proof.
func TestAbsenceProofExhaustiveSmallTrees(t *testing.T) {
	const maxN = 130
	t.Run("sorted", func(t *testing.T) {
		for n := 1; n <= maxN; n++ {
			exhaustGaps(t, n)
		}
	})
}

func exhaustGaps(t *testing.T, n int) {
	t.Helper()
	// Leaf i is serial 2(i+1); gap g (0 ≤ g ≤ n) is probed with 2g+1.
	leaves := make([]serial.Number, n)
	for i := range leaves {
		leaves[i] = serial.FromUint64(uint64(2 * (i + 1)))
	}
	a, r, _ := mappedFixture(t, [][]serial.Number{leaves}, 0)
	heap := r.Snapshot()
	mapped := openMapped(t, a, r.PersistentStateV2(), nil, 0)
	if !pureMapped(mapped) {
		t.Fatalf("n=%d: mapped snapshot holds heap state", n)
	}
	root, count := heap.RootHash(), heap.Count()

	encs := make([][]byte, n+1)
	for g := 0; g <= n; g++ {
		probe := serial.FromUint64(uint64(2*g + 1))
		st, err := heap.Prove(probe)
		if err != nil {
			t.Fatal(err)
		}
		enc := st.Proof.Encode()
		mst, err := mapped.Prove(probe)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mst.Proof.Encode(), enc) {
			t.Fatalf("n=%d gap %d: heap and mapped proofs differ", n, g)
		}
		encs[g] = enc
	}

	for g := 0; g <= n; g++ {
		tag := fmt.Sprintf("n=%d gap %d", n, g)
		probe := serial.FromUint64(uint64(2*g + 1))
		p := decodeFresh(t, encs[g])
		if revoked, err := p.Verify(probe, root, count); err != nil || revoked {
			t.Fatalf("%s: Verify = (%v, %v)", tag, revoked, err)
		}
		if !bytes.Equal(p.Encode(), encs[g]) {
			t.Fatalf("%s: re-encoding differs", tag)
		}
		mustReject := func(what string, q *Proof, s serial.Number) {
			t.Helper()
			if _, err := q.Verify(s, root, count); !errors.Is(err, ErrBadProof) {
				t.Fatalf("%s: %s: err = %v, want ErrBadProof", tag, what, err)
			}
		}
		// The proof is about the open gap only, never the leaves bounding it.
		if g > 0 {
			mustReject("verified for the left leaf's serial", p, leaves[g-1])
		}
		if g < n {
			mustReject("verified for the right leaf's serial", p, leaves[g])
		}
		if p.Left == nil || p.Right == nil {
			continue // a tree boundary: the single-leaf form
		}

		size := count
		li := p.Left.Index
		if p.Right.Index != li+1 {
			t.Fatalf("%s: decoded Right.Index = %d, Left.Index = %d", tag, p.Right.Index, li)
		}
		if got, want := len(p.Left.Path)+len(p.Right.Path), rangePathLen([]uint64{li, li + 1}, size); got != want {
			t.Fatalf("%s: %d+%d path hashes, oracle says %d", tag, len(p.Left.Path), len(p.Right.Path), want)
		}
		if single := rangePathLen([]uint64{li}, size); len(p.Left.Path) != single-1 {
			t.Fatalf("%s: Left.Path has %d hashes, want its own %d less the fork sibling", tag, len(p.Left.Path), single)
		}

		// Every mutation starts from a fresh decode.
		mutate := func(what string, f func(q *Proof)) {
			t.Helper()
			q := decodeFresh(t, encs[g])
			f(q)
			mustReject(what, q, probe)
		}
		mutate("non-adjacent indices", func(q *Proof) { q.Right.Index++ })
		mutate("swapped leaves", func(q *Proof) { q.Left, q.Right = q.Right, q.Left })
		mutate("swapped leaves, indices kept", func(q *Proof) {
			q.Left, q.Right = q.Right, q.Left
			q.Left.Index, q.Right.Index = q.Right.Index, q.Left.Index
		})
		if len(p.Left.Path)+len(p.Right.Path) > 0 {
			mutate("swapped paths", func(q *Proof) { q.Left.Path, q.Right.Path = q.Right.Path, q.Left.Path })
		}
		for _, d := range []uint64{1, ^uint64(0)} { // i+1, i−1
			mutate("replayed at a neighbouring index", func(q *Proof) {
				q.Left.Index += d
				q.Right.Index += d
			})
		}
		if len(p.Left.Path) > 0 {
			mutate("first Left hash moved to Right", func(q *Proof) {
				q.Right.Path = append(append([]cryptoutil.Hash{}, q.Right.Path...), q.Left.Path[0])
				q.Left.Path = q.Left.Path[1:]
			})
		}
		if len(p.Right.Path) > 0 {
			mutate("last Right hash moved to Left", func(q *Proof) {
				last := len(q.Right.Path) - 1
				q.Left.Path = append(append([]cryptoutil.Hash{}, q.Left.Path...), q.Right.Path[last])
				q.Right.Path = q.Right.Path[:last]
			})
		}
		for _, right := range []bool{false, true} {
			path := func(q *Proof) *[]cryptoutil.Hash {
				if right {
					return &q.Right.Path
				}
				return &q.Left.Path
			}
			for i := range *path(p) {
				mutate("path hash dropped", func(q *Proof) {
					pp := path(q)
					*pp = append(append([]cryptoutil.Hash{}, (*pp)[:i]...), (*pp)[i+1:]...)
				})
				mutate("path hash bit-flipped", func(q *Proof) { (*path(q))[i][i%cryptoutil.HashSize] ^= 0x10 })
			}
			mutate("path hash added", func(q *Proof) {
				pp := path(q)
				*pp = append(append([]cryptoutil.Hash{}, *pp...), root)
			})
		}

		// The attack absence proofs exist to stop: hide the revoked leaf g
		// behind its two honest neighbours, each taken from a valid proof.
		if g < n {
			next := decodeFresh(t, encs[g+1])
			if next.Left != nil && next.Right != nil {
				forged := &Proof{Kind: ProofAbsence, Left: p.Left, Right: next.Right}
				mustReject("leaves g−1 and g+1 hiding revoked leaf g", forged, leaves[g])
				forged.Right.Index = forged.Left.Index + 1
				mustReject("leaves g−1 and g+1 hiding revoked leaf g, index forged", forged, leaves[g])
			}
		}
	}
}

// TestDecodeProofRejectsImpossibleShapes pins the decoder's half of the
// contract with ritmclient, which is handed these bytes by an untrusted RA:
// a shape Verify could never accept does not decode at all. That includes
// a kind byte carrying 0x80, the flag the retired forest layout set on
// proofs followed by a spine segment.
func TestDecodeProofRejectsImpossibleShapes(t *testing.T) {
	tr := NewTree()
	batch := serial.NewGenerator(0x5AFE, nil).NextN(600)
	if err := tr.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	absent := serial.NewGenerator(0xAB5, nil).Next()
	pres, abs := tr.Prove(batch[7]), tr.Prove(absent)
	if abs.Left == nil || abs.Right == nil {
		t.Fatal("fixture: probe is not bracketed by two leaves")
	}
	spineFlagged := pres.Encode()
	spineFlagged[0] |= 0x80
	cases := map[string][]byte{
		"presence with a Right leaf":       (&Proof{Kind: ProofPresence, Left: abs.Left, Right: abs.Right}).Encode(),
		"presence with only a Right":       (&Proof{Kind: ProofPresence, Right: pres.Left}).Encode(),
		"presence with no leaf":            (&Proof{Kind: ProofPresence}).Encode(),
		"absence with no leaf":             (&Proof{Kind: ProofAbsence}).Encode(),
		"empty with a leaf":                (&Proof{Kind: ProofAbsenceEmpty, Left: pres.Left}).Encode(),
		"empty with two leaves":            (&Proof{Kind: ProofAbsenceEmpty, Left: abs.Left, Right: abs.Right}).Encode(),
		"kind 0":                           (&Proof{Kind: 0, Left: pres.Left}).Encode(),
		"kind 4":                           (&Proof{Kind: 4, Left: pres.Left}).Encode(),
		"kind 0x7f":                        (&Proof{Kind: 0x7f}).Encode(),
		"presence with the spine flag set": spineFlagged,
	}
	for name, enc := range cases {
		if _, err := DecodeProof(enc); !errors.Is(err, ErrBadProof) {
			t.Errorf("%s: DecodeProof err = %v, want ErrBadProof", name, err)
		}
		// The same bytes inside a status are refused the same way.
		e := wire.NewEncoder(256)
		e.Raw(enc)
		(&SignedRoot{}).encodeTo(e)
		e.Raw(make([]byte, cryptoutil.HashSize))
		e.Bool(false)
		if _, err := DecodeStatus(e.Bytes()); !errors.Is(err, ErrBadProof) {
			t.Errorf("%s: DecodeStatus err = %v, want ErrBadProof", name, err)
		}
	}
	// The honest shapes still decode.
	for _, p := range []*Proof{pres, abs, tr.Prove(serial.FromUint64(0)), tr.Prove(mustMaxSerial())} {
		if _, err := DecodeProof(p.Encode()); err != nil {
			t.Errorf("honest %v proof refused: %v", p.Kind, err)
		}
	}
}

// encodeTwoPathAbsence is the absence encoding this format replaced: each
// bracketing leaf with its index and its own complete audit path.
func encodeTwoPathAbsence(tr *Tree, left, right serial.Number) []byte {
	e := wire.NewEncoder(1024)
	pl, pr := tr.Prove(left), tr.Prove(right)
	e.Uint8(uint8(ProofAbsence))
	encodeProofLeaf(e, pl.Left, true)
	encodeProofLeaf(e, pr.Left, true)
	return e.Bytes()
}

// TestTwoPathAbsenceEncodingRefused: there is one absence encoding. Bytes
// in the earlier two-path form either fail to decode or fail Verify, for
// every adjacent pair of a dictionary.
func TestTwoPathAbsenceEncodingRefused(t *testing.T) {
	tr := NewTree()
	var leaves []serial.Number
	for i := 1; i <= 300; i++ {
		leaves = append(leaves, serial.FromUint64(uint64(2*i)))
	}
	if err := tr.InsertBatch(leaves); err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(leaves); i++ {
		p, err := DecodeProof(encodeTwoPathAbsence(tr, leaves[i], leaves[i+1]))
		if err != nil {
			continue
		}
		probe := serial.FromUint64(uint64(2*(i+1) + 1))
		if _, err := p.Verify(probe, tr.Root(), tr.Count()); !errors.Is(err, ErrBadProof) {
			t.Fatalf("two-path absence proof for gap %d accepted (err = %v)", i+1, err)
		}
	}
}
