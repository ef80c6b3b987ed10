package cert

import (
	"errors"
	"testing"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
	"ritm/internal/wire"
)

// testPKI builds a root CA, an intermediate, and a server certificate:
// the three-certificate chain the paper calls the most common case (§VII-D).
type testPKI struct {
	rootKey, intKey, serverKey *cryptoutil.Signer
	root, intermediate, server *Certificate
	pool                       *Pool
}

func newTestPKI(t testing.TB) *testPKI {
	t.Helper()
	var p testPKI
	var err error
	if p.rootKey, err = cryptoutil.NewSigner(nil); err != nil {
		t.Fatal(err)
	}
	if p.intKey, err = cryptoutil.NewSigner(nil); err != nil {
		t.Fatal(err)
	}
	if p.serverKey, err = cryptoutil.NewSigner(nil); err != nil {
		t.Fatal(err)
	}
	if p.root, err = SelfSigned("RootCA", p.rootKey, 0, 1_000_000, 10); err != nil {
		t.Fatal(err)
	}
	if p.intermediate, err = Issue("RootCA", p.rootKey, Template{
		SerialNumber: serial.FromUint64(2),
		Subject:      "IntermediateCA",
		NotBefore:    0,
		NotAfter:     1_000_000,
		PublicKey:    p.intKey.Public(),
		IsCA:         true,
		DeltaSecs:    10,
	}); err != nil {
		t.Fatal(err)
	}
	// The intermediate issues under its own CA identity.
	if p.server, err = Issue("IntermediateCA", p.intKey, Template{
		SerialNumber: serial.FromUint64(0x73E10A5),
		Subject:      "example.com",
		NotBefore:    0,
		NotAfter:     500_000,
		PublicKey:    p.serverKey.Public(),
	}); err != nil {
		t.Fatal(err)
	}
	if p.pool, err = NewPool(p.root); err != nil {
		t.Fatal(err)
	}
	return &p
}

func TestIssueValidation(t *testing.T) {
	key, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		tmpl Template
	}{
		{"missing serial", Template{Subject: "x", NotAfter: 10, PublicKey: key.Public()}},
		{"bad key", Template{SerialNumber: serial.FromUint64(1), NotAfter: 10, PublicKey: []byte{1}}},
		{"empty validity", Template{SerialNumber: serial.FromUint64(1), NotBefore: 10, NotAfter: 10, PublicKey: key.Public()}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Issue("CA", key, tt.tmpl); err == nil {
				t.Error("invalid template accepted")
			}
		})
	}
}

func TestSignatureBindsAllFields(t *testing.T) {
	pki := newTestPKI(t)
	orig := pki.server

	mutations := map[string]func(*Certificate){
		"serial":    func(c *Certificate) { c.SerialNumber = serial.FromUint64(999) },
		"issuer":    func(c *Certificate) { c.Issuer = "OtherCA" },
		"subject":   func(c *Certificate) { c.Subject = "evil.com" },
		"notBefore": func(c *Certificate) { c.NotBefore++ },
		"notAfter":  func(c *Certificate) { c.NotAfter++ },
		"isCA":      func(c *Certificate) { c.IsCA = true },
		"delta":     func(c *Certificate) { c.DeltaSecs++ },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			c := *orig
			mutate(&c)
			if err := c.CheckSignature(pki.intKey.Public()); !errors.Is(err, cryptoutil.ErrBadSignature) {
				t.Errorf("mutated %s still verifies: %v", name, err)
			}
		})
	}
	if err := orig.CheckSignature(pki.intKey.Public()); err != nil {
		t.Errorf("unmutated certificate rejected: %v", err)
	}
}

func TestCheckValidity(t *testing.T) {
	pki := newTestPKI(t)
	if err := pki.server.CheckValidity(250_000); err != nil {
		t.Errorf("mid-window: %v", err)
	}
	if err := pki.server.CheckValidity(-1); !errors.Is(err, ErrExpired) {
		t.Errorf("before window: err = %v, want ErrExpired", err)
	}
	if err := pki.server.CheckValidity(500_000); !errors.Is(err, ErrExpired) {
		t.Errorf("at expiry: err = %v, want ErrExpired", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	pki := newTestPKI(t)
	for _, c := range []*Certificate{pki.root, pki.intermediate, pki.server} {
		decoded, err := Decode(c.Encode())
		if err != nil {
			t.Fatalf("decode %s: %v", c.Subject, err)
		}
		if decoded.Subject != c.Subject || !decoded.SerialNumber.Equal(c.SerialNumber) ||
			decoded.Issuer != c.Issuer || decoded.IsCA != c.IsCA ||
			decoded.DeltaSecs != c.DeltaSecs {
			t.Errorf("decoded %s differs", c.Subject)
		}
		// The signature must still verify after the round trip.
		var issuerPub = pki.rootKey.Public()
		if c.Issuer == "IntermediateCA" {
			issuerPub = pki.intKey.Public()
		}
		if err := decoded.CheckSignature(issuerPub); err != nil {
			t.Errorf("decoded %s signature: %v", c.Subject, err)
		}
	}
}

func TestDecodeJunk(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("empty buffer decoded")
	}
	if _, err := Decode([]byte{0x05, 1, 2}); err == nil {
		t.Error("truncated buffer decoded")
	}
}

func TestChainVerify(t *testing.T) {
	pki := newTestPKI(t)
	ch := Chain{pki.server, pki.intermediate}
	ca, err := pki.pool.VerifyChain(ch, 100)
	if err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
	if ca != "IntermediateCA" {
		t.Errorf("issuing CA = %s, want IntermediateCA", ca)
	}
}

func TestChainVerifyFailures(t *testing.T) {
	pki := newTestPKI(t)

	t.Run("empty chain", func(t *testing.T) {
		if _, err := pki.pool.VerifyChain(nil, 100); !errors.Is(err, ErrBadChain) {
			t.Errorf("err = %v, want ErrBadChain", err)
		}
	})
	t.Run("expired leaf", func(t *testing.T) {
		ch := Chain{pki.server, pki.intermediate}
		if _, err := pki.pool.VerifyChain(ch, 600_000); !errors.Is(err, ErrExpired) {
			t.Errorf("err = %v, want ErrExpired", err)
		}
	})
	t.Run("broken link", func(t *testing.T) {
		tampered := *pki.server
		tampered.Subject = "evil.com"
		ch := Chain{&tampered, pki.intermediate}
		if _, err := pki.pool.VerifyChain(ch, 100); !errors.Is(err, ErrBadChain) {
			t.Errorf("err = %v, want ErrBadChain", err)
		}
	})
	t.Run("untrusted root", func(t *testing.T) {
		emptyPool, err := NewPool()
		if err != nil {
			t.Fatal(err)
		}
		ch := Chain{pki.server, pki.intermediate}
		if _, err := emptyPool.VerifyChain(ch, 100); !errors.Is(err, ErrUntrusted) {
			t.Errorf("err = %v, want ErrUntrusted", err)
		}
	})
	t.Run("non-CA issuer", func(t *testing.T) {
		// A leaf signed by another leaf must fail even with valid sigs.
		leafKey, err := cryptoutil.NewSigner(nil)
		if err != nil {
			t.Fatal(err)
		}
		rogue, err := Issue("IntermediateCA", pki.serverKey, Template{
			SerialNumber: serial.FromUint64(77),
			Subject:      "rogue.com",
			NotBefore:    0,
			NotAfter:     500_000,
			PublicKey:    leafKey.Public(),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Chain: rogue <- server (not a CA) <- intermediate.
		ch := Chain{rogue, pki.server, pki.intermediate}
		if _, err := pki.pool.VerifyChain(ch, 100); !errors.Is(err, ErrNotCA) {
			t.Errorf("err = %v, want ErrNotCA", err)
		}
	})
}

func TestChainCodecRoundTrip(t *testing.T) {
	pki := newTestPKI(t)
	ch := Chain{pki.server, pki.intermediate}
	e := wire.NewEncoder(0)
	ch.EncodeTo(e)
	decoded, err := DecodeChainFrom(wire.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 {
		t.Fatalf("decoded chain length = %d", len(decoded))
	}
	if _, err := pki.pool.VerifyChain(decoded, 100); err != nil {
		t.Errorf("decoded chain verification: %v", err)
	}
	if decoded.Leaf().Subject != "example.com" {
		t.Errorf("Leaf().Subject = %q", decoded.Leaf().Subject)
	}
}

func TestDecodeChainBounds(t *testing.T) {
	if _, err := DecodeChainFrom(wire.NewDecoder([]byte{0})); !errors.Is(err, ErrBadChain) {
		t.Errorf("zero-length chain: err = %v, want ErrBadChain", err)
	}
	if _, err := DecodeChainFrom(wire.NewDecoder([]byte{17})); !errors.Is(err, ErrBadChain) {
		t.Errorf("oversized chain: err = %v, want ErrBadChain", err)
	}
}

func TestPool(t *testing.T) {
	pki := newTestPKI(t)
	if _, ok := pki.pool.CAKey("RootCA"); !ok {
		t.Error("CA key missing from pool")
	}
	if _, ok := pki.pool.CAKey("Nobody"); ok {
		t.Error("unknown CA has a key")
	}

	// Non-CA roots and non-self-signed roots are rejected.
	if err := pki.pool.AddRoot(pki.server); !errors.Is(err, ErrNotCA) {
		t.Errorf("leaf as root: err = %v, want ErrNotCA", err)
	}
	if err := pki.pool.AddRoot(pki.intermediate); err == nil {
		t.Error("non-self-signed root accepted")
	}
}

func TestDeltaOnCACert(t *testing.T) {
	pki := newTestPKI(t)
	if pki.root.DeltaSecs != 10 {
		t.Errorf("root ∆ = %ds, want 10s", pki.root.DeltaSecs)
	}
	if pki.server.DeltaSecs != 0 {
		t.Error("server cert carries a ∆")
	}
}
