package dictionary

import (
	"testing"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// TestDecodeIssuanceAllocsPinned pins the zero-copy issuance decode: the
// per-serial cost must be zero allocations in both forms. The owned form
// packs every serial into one arena (a handful of fixed allocations per
// message — struct, serial slice, arena, root fields — however large the
// batch); the view form drops the arena too. A regression to per-serial
// copies (the pre-arena serial.New path: one allocation per serial) blows
// the fixed budget by two orders of magnitude on this 512-serial message.
func TestDecodeIssuanceAllocsPinned(t *testing.T) {
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	auth, err := NewAuthority(AuthorityConfig{
		CA:     "alloc-ca",
		Signer: signer,
		Delta:  10 * time.Second,
	}, time.Now().Unix())
	if err != nil {
		t.Fatal(err)
	}
	msg, err := auth.Insert(serial.NewGenerator(0xDECD, nil).NextN(512), time.Now().Unix())
	if err != nil {
		t.Fatal(err)
	}
	buf := msg.Encode()

	const fixedBudget = 12 // message-level overhead, independent of batch size
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeIssuanceMessage(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs > fixedBudget {
		t.Errorf("DecodeIssuanceMessage(512 serials) allocs/op = %.1f, want ≤ %d", allocs, fixedBudget)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeIssuanceMessageView(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs > fixedBudget-1 { // no arena in the view form
		t.Errorf("DecodeIssuanceMessageView(512 serials) allocs/op = %.1f, want ≤ %d", allocs, fixedBudget-1)
	}

	// Both forms must decode identically, and the owned form's serials must
	// tolerate the input buffer being clobbered afterwards.
	owned, err := DecodeIssuanceMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	view, err := DecodeIssuanceMessageView(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(owned.Serials) != len(msg.Serials) || len(view.Serials) != len(msg.Serials) {
		t.Fatal("decoded serial counts differ")
	}
	for i := range msg.Serials {
		if !owned.Serials[i].Equal(msg.Serials[i]) || !view.Serials[i].Equal(msg.Serials[i]) {
			t.Fatalf("serial %d differs after decode", i)
		}
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	for i := range msg.Serials {
		if !owned.Serials[i].Equal(msg.Serials[i]) {
			t.Fatalf("owned serial %d aliases the input buffer", i)
		}
	}
}

// TestDecodeStatusAllocsPinned pins the client-side decode arena: a proof
// decodes into one struct block (Proof, both leaves, spine segment and their
// serial bytes) plus one array backing every audit path, whatever its shape
// — the largest, a forest absence proof with two leaves, two bucket bounds
// and three paths, costs what a sorted presence proof does. The rest of the
// budget is the Status and its signed root. Per-leaf and per-path
// allocations (9 sorted, 15 forest before the arena) blow it.
func TestDecodeStatusAllocsPinned(t *testing.T) {
	batch := serial.NewGenerator(0xA110C, nil).NextN(2000)
	absent := serial.NewGenerator(0xAB5E27, nil).Next()
	for _, kind := range layoutKinds() {
		a := newTestAuthorityWithLayout(t, 0, kind)
		if _, err := a.Insert(batch, 0); err != nil {
			t.Fatal(err)
		}
		st, err := a.Prove(absent, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Proof.Left == nil || st.Proof.Right == nil {
			t.Fatalf("%v: fixture probe is not bracketed by two leaves", kind)
		}
		enc := st.Encode()
		proofOnly := st.Proof.Encode()

		const proofBudget = 2 // the arena block and the hash array
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeProof(proofOnly); err != nil {
				t.Fatal(err)
			}
		}); allocs > proofBudget {
			t.Errorf("%v: DecodeProof(absence) allocs/op = %.1f, want ≤ %d", kind, allocs, proofBudget)
		}
		const statusBudget = proofBudget + 4 // + Status, SignedRoot, its CA id and signature
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeStatus(enc); err != nil {
				t.Fatal(err)
			}
		}); allocs > statusBudget {
			t.Errorf("%v: DecodeStatus(absence) allocs/op = %.1f, want ≤ %d", kind, allocs, statusBudget)
		}

		// The decoded proof owns its bytes: clobbering the input must not
		// reach it.
		dec, err := DecodeStatus(enc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range enc {
			enc[i] = 0xFF
		}
		if res, err := dec.Check(absent, a.PublicKey(), 0); err != nil || res != CheckValid {
			t.Errorf("%v: decoded status aliases its input: Check = (%v, %v)", kind, res, err)
		}
	}
}
