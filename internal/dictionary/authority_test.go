package dictionary

import (
	"errors"
	"testing"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

const testDelta = 10 * time.Second

func newTestAuthority(t *testing.T, now int64) *Authority {
	t.Helper()
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAuthority(AuthorityConfig{
		CA:          "CA1",
		Signer:      signer,
		Delta:       testDelta,
		ChainLength: 16,
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAuthorityValidation(t *testing.T) {
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		cfg  AuthorityConfig
	}{
		{"missing CA", AuthorityConfig{Signer: signer, Delta: testDelta}},
		{"missing signer", AuthorityConfig{CA: "CA1", Delta: testDelta}},
		{"sub-second delta", AuthorityConfig{CA: "CA1", Signer: signer, Delta: time.Millisecond}},
		{"negative chain", AuthorityConfig{CA: "CA1", Signer: signer, Delta: testDelta, ChainLength: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewAuthority(tt.cfg, 0); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestInitialRootIsEmptyAndSigned(t *testing.T) {
	a := newTestAuthority(t, 1000)
	root := a.SignedRoot()
	if root.N != 0 {
		t.Errorf("initial N = %d, want 0", root.N)
	}
	if root.Root != EmptyRoot {
		t.Error("initial root is not EmptyRoot")
	}
	if root.Time != 1000 {
		t.Errorf("root time = %d, want 1000", root.Time)
	}
	if err := root.VerifySignature(a.PublicKey()); err != nil {
		t.Errorf("initial root signature: %v", err)
	}
}

func TestInsertProducesVerifiableIssuance(t *testing.T) {
	a := newTestAuthority(t, 1000)
	msg, err := a.Insert(mustSerials(t, 0xa, 0xb, 0xc), 1005)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Root.N != 3 {
		t.Errorf("N = %d, want 3", msg.Root.N)
	}
	if msg.Root.Time != 1005 {
		t.Errorf("time = %d, want 1005", msg.Root.Time)
	}
	if err := msg.Root.VerifySignature(a.PublicKey()); err != nil {
		t.Errorf("signature: %v", err)
	}
	if len(msg.Serials) != 3 {
		t.Errorf("serials = %d, want 3", len(msg.Serials))
	}
	if _, ok := a.tree.commit.revoked(serial.FromUint64(0xb)); !ok {
		t.Error("inserted serial not revoked")
	}
}

func TestInsertRotatesChain(t *testing.T) {
	// Fig 2 insert step 2: every insert draws a fresh v, so anchors differ.
	a := newTestAuthority(t, 0)
	r0 := a.SignedRoot()
	if _, err := a.Insert(mustSerials(t, 1), 10); err != nil {
		t.Fatal(err)
	}
	r1 := a.SignedRoot()
	if r0.Anchor == r1.Anchor {
		t.Error("anchor unchanged after insert; chain was not rotated")
	}
}

func TestInsertEmptyBatchRejected(t *testing.T) {
	a := newTestAuthority(t, 0)
	if _, err := a.Insert(nil, 0); err == nil {
		t.Error("empty batch accepted")
	}
}

func TestInsertDuplicateKeepsStateClean(t *testing.T) {
	a := newTestAuthority(t, 0)
	if _, err := a.Insert(mustSerials(t, 5), 1); err != nil {
		t.Fatal(err)
	}
	before := a.SignedRoot()
	if _, err := a.Insert(mustSerials(t, 5), 2); !errors.Is(err, ErrDuplicateSerial) {
		t.Fatalf("err = %v, want ErrDuplicateSerial", err)
	}
	if !a.SignedRoot().Equal(before) {
		t.Error("failed insert replaced the signed root")
	}
}

func TestRefreshStatementPerPeriod(t *testing.T) {
	a := newTestAuthority(t, 0)
	root := a.SignedRoot()

	// Period 0, 1, 2 statements must chain to the anchor at the right depth.
	for p := 0; p < 3; p++ {
		now := int64(p) * int64(testDelta/time.Second)
		ref, err := a.Refresh(now)
		if err != nil {
			t.Fatalf("Refresh(p=%d): %v", p, err)
		}
		if ref.NewRoot != nil {
			t.Fatalf("Refresh(p=%d) rotated root prematurely", p)
		}
		if err := cryptoutil.VerifyChainValue(root.Anchor, ref.Statement.Value, p); err != nil {
			t.Errorf("statement for period %d does not verify: %v", p, err)
		}
	}
}

func TestRefreshRotatesExhaustedChain(t *testing.T) {
	a := newTestAuthority(t, 0) // chain length 16
	// Jump past the chain: period 16 ≥ m.
	now := int64(16 * (testDelta / time.Second))
	ref, err := a.Refresh(now)
	if err != nil {
		t.Fatal(err)
	}
	if ref.NewRoot == nil {
		t.Fatal("exhausted chain did not rotate the root")
	}
	if ref.NewRoot.Time != now {
		t.Errorf("new root time = %d, want %d", ref.NewRoot.Time, now)
	}
	if ref.Statement == nil || ref.Statement.Value != ref.NewRoot.Anchor {
		t.Error("rotation statement is not the new anchor")
	}
	if err := ref.NewRoot.VerifySignature(a.PublicKey()); err != nil {
		t.Errorf("rotated root signature: %v", err)
	}
}

func TestAuthorityProveEndToEnd(t *testing.T) {
	a := newTestAuthority(t, 0)
	if _, err := a.Insert(mustSerials(t, 0xdead), 5); err != nil {
		t.Fatal(err)
	}

	st, err := a.Prove(serial.FromUint64(0xdead), 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Check(serial.FromUint64(0xdead), a.PublicKey(), 12)
	if err != nil {
		t.Fatalf("Check revoked serial: %v", err)
	}
	if res != CheckRevoked {
		t.Errorf("Check = %v, want CheckRevoked", res)
	}

	st, err = a.Prove(serial.FromUint64(0xbeef), 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err = st.Check(serial.FromUint64(0xbeef), a.PublicKey(), 12)
	if err != nil {
		t.Fatalf("Check valid serial: %v", err)
	}
	if res != CheckValid {
		t.Errorf("Check = %v, want CheckValid", res)
	}
}

func TestStatusRejectsWrongKey(t *testing.T) {
	a := newTestAuthority(t, 0)
	other, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := a.Prove(serial.FromUint64(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Check(serial.FromUint64(1), other.Public(), 0); !errors.Is(err, cryptoutil.ErrBadSignature) {
		t.Errorf("err = %v, want ErrBadSignature", err)
	}
}

func TestStatusFreshnessWindow(t *testing.T) {
	a := newTestAuthority(t, 0)
	if _, err := a.Insert(mustSerials(t, 7), 0); err != nil {
		t.Fatal(err)
	}
	s := serial.FromUint64(9)
	deltaS := int64(testDelta / time.Second)

	// Status proven at period 0.
	st, err := a.Prove(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Accepted within the same period and one period later (2∆ policy)...
	for _, now := range []int64{0, deltaS - 1, deltaS, 2*deltaS - 1} {
		if _, err := st.Check(s, a.PublicKey(), now); err != nil {
			t.Errorf("Check at t=%d rejected: %v", now, err)
		}
	}
	// ...but not two periods later.
	if _, err := st.Check(s, a.PublicKey(), 2*deltaS); !errors.Is(err, ErrStale) {
		t.Errorf("stale status at 2∆: err = %v, want ErrStale", err)
	}
	// A replayed status far in the future fails even past the chain end.
	if _, err := st.Check(s, a.PublicKey(), deltaS*1000); !errors.Is(err, ErrStale) {
		t.Errorf("ancient status: err = %v, want ErrStale", err)
	}
}

func TestStatusFreshStatementExtendsValidity(t *testing.T) {
	a := newTestAuthority(t, 0)
	deltaS := int64(testDelta / time.Second)
	s := serial.FromUint64(9)

	st, err := a.Prove(s, 5*deltaS) // period 5 statement
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Check(s, a.PublicKey(), 5*deltaS+3); err != nil {
		t.Errorf("fresh status rejected: %v", err)
	}
	// Tampering with the freshness value must fail.
	st.Freshness[0] ^= 1
	if _, err := st.Check(s, a.PublicKey(), 5*deltaS+3); !errors.Is(err, ErrStale) {
		t.Errorf("tampered freshness: err = %v, want ErrStale", err)
	}
}

func TestStatusEncodeDecodeRoundTrip(t *testing.T) {
	a := newTestAuthority(t, 0)
	if _, err := a.Insert(mustSerials(t, 1, 2, 3), 0); err != nil {
		t.Fatal(err)
	}
	s := serial.FromUint64(2)
	st, err := a.Prove(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeStatus(st.Encode())
	if err != nil {
		t.Fatal(err)
	}
	res, err := decoded.Check(s, a.PublicKey(), 3)
	if err != nil {
		t.Fatalf("decoded status check: %v", err)
	}
	if res != CheckRevoked {
		t.Errorf("Check = %v, want CheckRevoked", res)
	}
}

func TestSignedRootCodecRoundTrip(t *testing.T) {
	a := newTestAuthority(t, 42)
	root := a.SignedRoot()
	decoded, err := DecodeSignedRoot(root.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !decoded.Equal(root) {
		t.Error("decoded root differs")
	}
	if err := decoded.VerifySignature(a.PublicKey()); err != nil {
		t.Errorf("decoded root signature: %v", err)
	}
}

func TestIssuanceMessageCodecRoundTrip(t *testing.T) {
	a := newTestAuthority(t, 0)
	msg, err := a.Insert(mustSerials(t, 10, 20), 1)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeIssuanceMessage(msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Serials) != 2 || !decoded.Root.Equal(msg.Root) {
		t.Error("decoded issuance message differs")
	}
}

func TestFreshnessStatementCodecRoundTrip(t *testing.T) {
	a := newTestAuthority(t, 0)
	st, err := a.Statement(0)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeFreshnessStatement(st.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if decoded.CA != st.CA || decoded.Value != st.Value {
		t.Error("decoded statement differs")
	}
}

func TestStatusSizeMatchesPaperBallpark(t *testing.T) {
	// §VII-D: for the largest CRL (339,557 entries) a revocation status is
	// 500–900 bytes. Measured here at that size with 16-byte serials (what
	// bench/ draws), as the mean over 2,048 revoked and 2,048 absent serials:
	// 549 B present / 572 B absent. The two leaves bracketing an absent serial
	// share one audit path, which averages exactly as many hashes as a
	// presence proof's, so absence costs the second leaf (≈ 22 B) — not a
	// second path (≈ 400 B).
	const n = 339_557
	corpus := serial.NewGenerator(1, serial.SizeDistribution{{Bytes: 16, Weight: 1}}).NextN(n + 2048)
	a := newTestAuthority(t, 0)
	if _, err := a.Insert(corpus[:n], 0); err != nil {
		t.Fatal(err)
	}
	mean := func(probes []serial.Number, revoked bool) float64 {
		total := 0
		for _, s := range probes {
			if _, ok := a.tree.commit.revoked(s); ok != revoked {
				t.Fatalf("probe %v revoked = %v", s, !revoked)
			}
			st, err := a.Prove(s, 0)
			if err != nil {
				t.Fatal(err)
			}
			total += len(st.Encode())
		}
		return float64(total) / float64(len(probes))
	}
	present, absent := mean(corpus[:2048], true), mean(corpus[n:], false)
	t.Logf("mean status %.1f B present, %.1f B absent", present, absent)
	if present < 500 || absent > 600 || absent-present > 60 {
		t.Errorf("mean status %.1f B present, %.1f B absent; want ≥ 500, ≤ 600 and at most 60 B apart", present, absent)
	}
}
