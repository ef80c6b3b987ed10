package cert

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

func (p *Pool) memoLen() int {
	p.sigs.mu.RLock()
	defer p.sigs.mu.RUnlock()
	return len(p.sigs.seen)
}

// Each case first verifies the good chain, so every genuine signature is
// memoized; the bad variant must still fail.
func TestPoolMemoRejectsWhatAFullCheckRejects(t *testing.T) {
	pki := newTestPKI(t)
	good := Chain{pki.server, pki.intermediate}
	if _, err := pki.pool.VerifyChain(good, 100); err != nil {
		t.Fatal(err)
	}
	if n := pki.pool.memoLen(); n != 2 {
		t.Fatalf("memo holds %d signatures after one chain, want 2", n)
	}
	if _, err := pki.pool.VerifyChain(good, 100); err != nil {
		t.Fatalf("memoized chain: %v", err)
	}
	if n := pki.pool.memoLen(); n != 2 {
		t.Fatalf("memo holds %d signatures after a repeat, want 2", n)
	}

	t.Run("link signed by the wrong key", func(t *testing.T) {
		forged := *pki.server
		forged.Signature = pki.rootKey.Sign(forged.signingPayload())
		if _, err := pki.pool.VerifyChain(Chain{&forged, pki.intermediate}, 100); !errors.Is(err, ErrBadChain) {
			t.Errorf("err = %v, want ErrBadChain", err)
		}
	})
	t.Run("altered field under a memoized signature", func(t *testing.T) {
		tampered := *pki.server
		tampered.Subject = "evil.com"
		if _, err := pki.pool.VerifyChain(Chain{&tampered, pki.intermediate}, 100); !errors.Is(err, ErrBadChain) {
			t.Errorf("err = %v, want ErrBadChain", err)
		}
	})
	t.Run("memoized signature on an expired certificate", func(t *testing.T) {
		if _, err := pki.pool.VerifyChain(good, 600_000); !errors.Is(err, ErrExpired) {
			t.Errorf("err = %v, want ErrExpired", err)
		}
	})
	t.Run("memoized link under another issuer key", func(t *testing.T) {
		other := *pki.intermediate
		other.PublicKey = pki.serverKey.Public()
		other.Signature = pki.rootKey.Sign(other.signingPayload())
		if _, err := pki.pool.VerifyChain(Chain{pki.server, &other}, 100); !errors.Is(err, ErrBadChain) {
			t.Errorf("err = %v, want ErrBadChain", err)
		}
	})
	t.Run("failures are not memoized", func(t *testing.T) {
		before := pki.pool.memoLen()
		msg := []byte("never signed")
		sig := pki.rootKey.Sign([]byte("something else"))
		for range 2 {
			if err := pki.pool.Verify(pki.root.PublicKey, msg, sig); !errors.Is(err, cryptoutil.ErrBadSignature) {
				t.Fatalf("err = %v, want ErrBadSignature", err)
			}
		}
		if n := pki.pool.memoLen(); n != before {
			t.Errorf("memo grew %d → %d on a failed check", before, n)
		}
	})
	t.Run("clone starts empty", func(t *testing.T) {
		if n := pki.pool.Clone().memoLen(); n != 0 {
			t.Errorf("clone holds %d signatures", n)
		}
	})
}

func TestPoolMemoBounded(t *testing.T) {
	pki := newTestPKI(t)
	pub := pki.root.PublicKey
	for i := range sigMemoCap + 64 {
		msg := []byte(fmt.Sprintf("message %d", i))
		if err := pki.pool.Verify(pub, msg, pki.rootKey.Sign(msg)); err != nil {
			t.Fatal(err)
		}
		if n := pki.pool.memoLen(); n > sigMemoCap {
			t.Fatalf("memo holds %d signatures after %d checks, cap %d", n, i+1, sigMemoCap)
		}
	}
	if n := pki.pool.memoLen(); n != sigMemoCap {
		t.Errorf("memo holds %d signatures, want it full at %d", n, sigMemoCap)
	}
}

// Every connection of a client verifies through one pool at once: hits,
// misses and evictions race here (run it with -race).
func TestPoolMemoConcurrent(t *testing.T) {
	pki := newTestPKI(t)
	pub := pki.root.PublicKey
	const workers, perWorker = 4, sigMemoCap / 3
	msgs := make([][]byte, workers*perWorker)
	sigs := make([][]byte, len(msgs))
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("message %d", i))
		sigs[i] = pki.rootKey.Sign(msgs[i])
	}
	chain := Chain{pki.server, pki.intermediate}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * perWorker; i < (w+1)*perWorker; i++ {
				if err := pki.pool.Verify(pub, msgs[i], sigs[i]); err != nil {
					t.Error(err)
					return
				}
				if _, err := pki.pool.VerifyChain(chain, 100); err != nil {
					t.Error(err)
					return
				}
				if err := pki.pool.Verify(pub, msgs[i], sigs[(i+1)%len(sigs)]); err == nil {
					t.Error("a mismatched signature verified")
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := pki.pool.memoLen(); n > sigMemoCap {
		t.Errorf("memo holds %d signatures, cap %d", n, sigMemoCap)
	}
}

// BenchmarkPoolVerify prices a certificate check through the pool's memo
// against the plain Ed25519 check ("uncached") on the two shapes of client
// traffic: "repeat" sees one server certificate on every connection, so
// every check after the first hits; "distinct" sees a new certificate on
// every connection, 8×sigMemoCap of them in rotation, so every check misses
// and, once the memo is full, evicts (a certificate survives the 7×cap
// insertions until its next turn with probability about e^-7).
func BenchmarkPoolVerify(b *testing.B) {
	pki := newTestPKI(b)
	leaves := make([]*Certificate, 8*sigMemoCap)
	for i := range leaves {
		c, err := Issue("IntermediateCA", pki.intKey, Template{
			SerialNumber: serial.FromUint64(uint64(i) + 1),
			Subject:      fmt.Sprintf("site-%d.example", i),
			NotBefore:    0,
			NotAfter:     500_000,
			PublicKey:    pki.serverKey.Public(),
		})
		if err != nil {
			b.Fatal(err)
		}
		leaves[i] = c
	}
	issuer := pki.intKey.Public()
	run := func(name string, check func(i int) error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := check(i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("uncached", func(i int) error { return leaves[i%len(leaves)].CheckSignature(issuer) })
	distinct := pki.pool.Clone()
	run("distinct", func(i int) error { return leaves[i%len(leaves)].checkSignature(issuer, distinct.Verify) })
	repeat := pki.pool.Clone()
	run("repeat", func(i int) error { return leaves[0].checkSignature(issuer, repeat.Verify) })
}
