package ca

import (
	"sync"
	"testing"
	"time"

	"ritm/internal/cdn"
	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// TestCAWarmStartExactRoot: a CA restarted over its durable log resumes
// with the exact signed root and freshness chain it crashed with — the
// dissemination tier sees no regression at all (re-publishing the root is
// a verified no-op, statements continue seamlessly).
func TestCAWarmStartExactRoot(t *testing.T) {
	caBackend := storage.NewMemory()
	dpBackend := storage.NewMemory()
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}

	dp1 := cdn.NewDistributionPointWithStorage(nil, dpBackend, 0)
	cfg := Config{ID: "CA1", Delta: 10 * time.Second, Signer: signer, Storage: caBackend, Publisher: dp1}
	ca1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dp1.RegisterCA("CA1", ca1.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := ca1.PublishRoot(); err != nil {
		t.Fatal(err)
	}
	gen := serial.NewGenerator(3, nil)
	for i := 0; i < 5; i++ {
		if _, err := ca1.Revoke(gen.NextN(40)...); err != nil {
			t.Fatal(err)
		}
	}
	wantRoot := ca1.Authority().SignedRoot()
	now := time.Now().Unix()
	wantStmt, err := ca1.Authority().Statement(now + 15)
	if err != nil {
		t.Fatal(err)
	}
	// Crash the whole origin process: CA and distribution point together,
	// as ritm-ca runs them.
	if err := ca1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dp1.Close(); err != nil {
		t.Fatal(err)
	}

	dp2 := cdn.NewDistributionPointWithStorage(nil, dpBackend, 0)
	cfg.Publisher = dp2
	ca2, err := New(cfg)
	if err != nil {
		t.Fatalf("warm start: %v", err)
	}
	defer ca2.Close()
	if err := dp2.RegisterCA("CA1", ca2.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if got := ca2.Authority().SignedRoot(); !got.Equal(wantRoot) {
		t.Fatal("restarted CA signs a different root")
	}
	gotStmt, err := ca2.Authority().Statement(now + 15)
	if err != nil {
		t.Fatal(err)
	}
	if !gotStmt.Value.Equal(wantStmt.Value) {
		t.Fatal("restarted CA produces different freshness statements")
	}
	// The boot-time root publication is a verified no-op against the
	// recovered distribution point (it already holds that exact root), and
	// new revocations continue the same history seamlessly.
	if err := ca2.PublishRoot(); err != nil {
		t.Fatal(err)
	}
	if _, err := ca2.Revoke(gen.NextN(3)...); err != nil {
		t.Fatalf("post-restart revoke: %v", err)
	}
	root, err := dp2.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if root.N != 203 {
		t.Fatalf("origin root covers %d revocations, want 203", root.N)
	}
}

// TestCAWarmStartWrongKeyFailsLoudly: restoring under a different signing
// key than the persisted history was signed with must fail, not silently
// fork the CA's identity.
func TestCAWarmStartWrongKeyFailsLoudly(t *testing.T) {
	backend := storage.NewMemory()
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	ca1, err := New(Config{ID: "CA1", Delta: 10 * time.Second, Signer: signer, Storage: backend})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca1.Revoke(serial.NewGenerator(1, nil).NextN(5)...); err != nil {
		t.Fatal(err)
	}
	ca1.Close()

	other, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{ID: "CA1", Delta: 10 * time.Second, Signer: other, Storage: backend}); err == nil {
		t.Fatal("warm start under a different signing key did not fail")
	}
}

// TestCAConcurrentRevokePersistsInOrder hammers Revoke from many
// goroutines against a durable CA: the WAL must record batches in
// insertion order, each paired with its own chain seed — any interleaving
// would make the store unrecoverable, which the restart at the end would
// catch. Run under -race.
func TestCAConcurrentRevokePersistsInOrder(t *testing.T) {
	backend := storage.NewMemory()
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ID: "CA1", Delta: 10 * time.Second, Signer: signer, Storage: backend, CheckpointEvery: 5}
	ca1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			gen := serial.NewGenerator(seed, nil)
			for i := 0; i < perWorker; i++ {
				if _, err := ca1.Revoke(gen.NextN(3)...); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(100 + w))
	}
	wg.Wait()
	want := ca1.Authority().SignedRoot()
	ca1.Close()

	ca2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery after concurrent revocations: %v", err)
	}
	defer ca2.Close()
	if got := ca2.Authority().Count(); got != workers*perWorker*3 {
		t.Fatalf("recovered count = %d, want %d", got, workers*perWorker*3)
	}
	if !ca2.Authority().SignedRoot().Equal(want) {
		t.Fatal("recovered root differs after concurrent revocations")
	}
}

// TestCAWarmStartAcrossCheckpoints drives enough batches through a tight
// checkpoint cadence that recovery exercises checkpoint + WAL-suffix
// replay rather than a WAL-only path.
func TestCAWarmStartAcrossCheckpoints(t *testing.T) {
	backend := storage.NewMemory()
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ID: "CA1", Delta: 10 * time.Second, Signer: signer, Storage: backend, CheckpointEvery: 3}
	ca1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := serial.NewGenerator(9, nil)
	for i := 0; i < 10; i++ { // 3 checkpoints + 1 trailing WAL record
		if _, err := ca1.Revoke(gen.NextN(7)...); err != nil {
			t.Fatal(err)
		}
	}
	want := ca1.Authority().SignedRoot()
	ca1.Close()

	ca2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ca2.Close()
	if got := ca2.Authority().SignedRoot(); !got.Equal(want) {
		t.Fatal("restart across checkpoints lost state")
	}
	if ca2.Authority().Count() != 70 {
		t.Fatalf("count = %d, want 70", ca2.Authority().Count())
	}
}
