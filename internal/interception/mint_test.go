package interception

import (
	"bytes"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeUpstream builds an upstream-leaf stand-in: MintTemplate and CertFor
// only read identity fields, so no signature is needed.
func fakeUpstream(sn int64, names ...string) *x509.Certificate {
	return &x509.Certificate{
		SerialNumber: big.NewInt(sn),
		Subject:      pkix.Name{CommonName: "upstream.test"},
		DNSNames:     names,
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(6 * time.Hour),
	}
}

func newTestRoot(t *testing.T, cn string) *MintingRoot {
	t.Helper()
	root, err := NewMintingRoot(cn, KeyECDSA)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestMintTemplateGolden pins the deterministic derivation: same inputs →
// identical serial/SAN/validity; any input change → a different serial.
func TestMintTemplateGolden(t *testing.T) {
	root := newTestRoot(t, "Golden Root")
	up := fakeUpstream(0xbeef, "b.test", "a.test", "www.test", "a.test")
	up.IPAddresses = []net.IP{net.ParseIP("192.0.2.7")}

	a := MintTemplate(root, "www.test", up)
	b := MintTemplate(root, "www.test", up)
	if a.SerialNumber.Cmp(b.SerialNumber) != 0 {
		t.Fatal("serial derivation is not deterministic")
	}
	if !a.NotBefore.Equal(b.NotBefore) || !a.NotAfter.Equal(b.NotAfter) {
		t.Fatal("validity derivation is not deterministic")
	}
	if !reflect.DeepEqual(a.DNSNames, b.DNSNames) {
		t.Fatal("SAN derivation is not deterministic")
	}

	// Shape: 16-byte serial with the top bit cleared, host-first then
	// sorted deduplicated upstream names, upstream IPs preserved.
	if a.SerialNumber.BitLen() > 127 || a.SerialNumber.Sign() <= 0 {
		t.Fatalf("serial out of shape: %v (%d bits)", a.SerialNumber, a.SerialNumber.BitLen())
	}
	wantSANs := []string{"www.test", "a.test", "b.test"}
	if !reflect.DeepEqual(a.DNSNames, wantSANs) {
		t.Fatalf("DNSNames = %v, want %v", a.DNSNames, wantSANs)
	}
	if len(a.IPAddresses) != 1 || !a.IPAddresses[0].Equal(net.ParseIP("192.0.2.7")) {
		t.Fatalf("IPAddresses = %v", a.IPAddresses)
	}

	// Validity clamps into the root's window.
	farOut := fakeUpstream(1, "far.test")
	farOut.NotAfter = root.Certificate().NotAfter.Add(365 * 24 * time.Hour)
	farOut.NotBefore = root.Certificate().NotBefore.Add(-time.Hour)
	clamped := MintTemplate(root, "far.test", farOut)
	if !clamped.NotAfter.Equal(root.Certificate().NotAfter) {
		t.Fatal("NotAfter not clamped to the root's")
	}
	if !clamped.NotBefore.Equal(root.Certificate().NotBefore) {
		t.Fatal("NotBefore not clamped to the root's")
	}

	// Every derivation input perturbs the serial.
	if MintTemplate(root, "other.test", up).SerialNumber.Cmp(a.SerialNumber) == 0 {
		t.Fatal("host change did not change the serial")
	}
	renewed := fakeUpstream(0xbeef, "b.test", "a.test", "www.test")
	renewed.NotAfter = up.NotAfter.Add(time.Hour)
	if MintTemplate(root, "www.test", renewed).SerialNumber.Cmp(a.SerialNumber) == 0 {
		t.Fatal("upstream renewal did not change the serial")
	}
	otherRoot := newTestRoot(t, "Golden Root") // same CN, fresh key ⇒ new digest
	if MintTemplate(otherRoot, "www.test", up).SerialNumber.Cmp(a.SerialNumber) == 0 {
		t.Fatal("root change did not change the serial")
	}
}

// TestMintCacheHitIdenticalDER: a cache hit returns byte-identical DER
// (the satellite's determinism requirement — ECDSA signatures are
// randomized, so identical DER can only come from the cache).
func TestMintCacheHitIdenticalDER(t *testing.T) {
	root := newTestRoot(t, "Cache Root")
	m := NewMinter(root, 0)
	up := fakeUpstream(42, "hit.test")

	c1, err := m.CertFor("hit.test", up)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.CertFor("hit.test", up)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Certificate[0], c2.Certificate[0]) {
		t.Fatal("cache hit returned different DER")
	}
	if hits, misses := m.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("CacheStats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}

	// The minted chain verifies against the root.
	pool := x509.NewCertPool()
	pool.AddCert(root.Certificate())
	if _, err := c1.Leaf.Verify(x509.VerifyOptions{Roots: pool, DNSName: "hit.test"}); err != nil {
		t.Fatalf("minted chain does not verify: %v", err)
	}

	// A renewed upstream certificate re-mints.
	renewed := fakeUpstream(43, "hit.test")
	c3, err := m.CertFor("hit.test", renewed)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(c3.Certificate[0], c1.Certificate[0]) {
		t.Fatal("renewed upstream served the stale minted leaf")
	}
}

// TestMintCacheEviction: the LRU cap evicts the oldest entry.
func TestMintCacheEviction(t *testing.T) {
	root := newTestRoot(t, "LRU Root")
	m := NewMinter(root, 2)
	for _, h := range []string{"a.test", "b.test", "c.test", "a.test"} {
		if _, err := m.CertFor(h, fakeUpstream(7, h)); err != nil {
			t.Fatal(err)
		}
	}
	// a.test was evicted by c.test, so its second mint is a miss.
	if hits, misses := m.CacheStats(); hits != 0 || misses != 4 {
		t.Fatalf("CacheStats = (%d hits, %d misses), want (0, 4)", hits, misses)
	}
}

// TestMintSingleflight: concurrent misses for one key coalesce into a
// single mint, and everyone gets the same DER.
func TestMintSingleflight(t *testing.T) {
	root := newTestRoot(t, "Flight Root")
	m := NewMinter(root, 0)
	up := fakeUpstream(11, "flight.test")

	const n = 16
	var wg sync.WaitGroup
	ders := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := m.CertFor("flight.test", up)
			if err != nil {
				t.Error(err)
				return
			}
			ders[i] = c.Certificate[0]
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(ders[i], ders[0]) {
			t.Fatal("coalesced callers saw different DER")
		}
	}
	if _, misses := m.CacheStats(); misses != 1 {
		t.Fatalf("misses = %d, want 1 (singleflight)", misses)
	}
}

// TestLoadOrCreateMintingRoot: a created root round-trips through its PEM
// file.
func TestLoadOrCreateMintingRoot(t *testing.T) {
	for _, alg := range []KeyAlg{KeyECDSA, KeyRSA} {
		path := filepath.Join(t.TempDir(), "bump-root.pem")
		created, err := LoadOrCreateMintingRoot(path, "Persisted Root", alg)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadOrCreateMintingRoot(path, "ignored-on-load", alg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(created.Certificate().Raw, loaded.Certificate().Raw) {
			t.Fatal("reloaded root certificate differs")
		}
		// The reloaded root must still mint working chains.
		m := NewMinter(loaded, 0)
		c, err := m.CertFor("persist.test", fakeUpstream(3, "persist.test"))
		if err != nil {
			t.Fatal(err)
		}
		pool := x509.NewCertPool()
		pool.AddCert(loaded.Certificate())
		if _, err := c.Leaf.Verify(x509.VerifyOptions{Roots: pool, DNSName: "persist.test"}); err != nil {
			t.Fatalf("alg %v: reloaded root mints broken chains: %v", alg, err)
		}
	}
}
