package monitor

import (
	"errors"
	"testing"
	"time"

	"ritm/internal/ca"
	"ritm/internal/cdn"
	"ritm/internal/cert"
	"ritm/internal/dictionary"
	"ritm/internal/ra"
	"ritm/internal/serial"
)

// world is a deployment with one (possibly equivocating) CA feeding two
// separate distribution points, each with its own RA.
type world struct {
	honest *ca.CA
	fork   *ca.CA // same identity and key, diverging dictionary
	dpA    *cdn.DistributionPoint
	dpB    *cdn.DistributionPoint
	raA    *ra.RA
	raB    *ra.RA
	pool   *cert.Pool
}

func newWorld(t *testing.T) *world {
	t.Helper()
	dpA := cdn.NewDistributionPoint(nil)
	honest, err := ca.New(ca.Config{ID: "CA1", Delta: 10 * time.Second, Publisher: dpA})
	if err != nil {
		t.Fatal(err)
	}
	fork, err := honest.Fork()
	if err != nil {
		t.Fatal(err)
	}
	dpB := cdn.NewDistributionPoint(nil)

	for _, reg := range []struct {
		dp *cdn.DistributionPoint
		c  *ca.CA
	}{{dpA, honest}, {dpB, fork}} {
		if err := reg.dp.RegisterCA("CA1", reg.c.PublicKey()); err != nil {
			t.Fatal(err)
		}
	}
	// The fork publishes to dpB.
	if err := honest.PublishRoot(); err != nil {
		t.Fatal(err)
	}
	if err := dpB.PublishIssuance(&dictionary.IssuanceMessage{Root: fork.Authority().SignedRoot()}); err != nil {
		t.Fatal(err)
	}

	pool, err := cert.NewPool(honest.RootCertificate())
	if err != nil {
		t.Fatal(err)
	}
	raA, err := ra.New(ra.Config{
		Roots:  []*cert.Certificate{honest.RootCertificate()},
		Origin: dpA,
		Delta:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	raB, err := ra.New(ra.Config{
		Roots:  []*cert.Certificate{honest.RootCertificate()},
		Origin: dpB,
		Delta:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, agent := range []*ra.RA{raA, raB} {
		if err := agent.SyncOnce(); err != nil {
			t.Fatal(err)
		}
	}
	return &world{honest: honest, fork: fork, dpA: dpA, dpB: dpB, raA: raA, raB: raB, pool: pool}
}

// revokeOnFork publishes a fork-side revocation to dpB directly (the fork
// CA was created without a publisher).
func (w *world) revokeOnFork(t *testing.T, serials ...serial.Number) {
	t.Helper()
	msg, err := w.fork.Revoke(serials...)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.dpB.PublishIssuance(msg); err != nil {
		t.Fatal(err)
	}
}

func TestHonestDeploymentShowsNoMisbehavior(t *testing.T) {
	w := newWorld(t)
	// Both RAs follow the honest CA through dpA's content: point raB's view
	// at the same history by re-syncing dpB with the honest messages.
	gen := serial.NewGenerator(1, nil)
	msg, err := w.honest.Revoke(gen.NextN(3)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.dpB.PublishIssuance(msg); err != nil {
		t.Fatal(err)
	}
	for _, agent := range []*ra.RA{w.raA, w.raB} {
		if err := agent.SyncOnce(); err != nil {
			t.Fatal(err)
		}
	}

	auditor := NewAuditor(w.pool)
	ms := NewMapServer()
	ms.Register("ra-A", w.raA.Store())
	ms.Register("ra-B", w.raB.Store())
	ms.Register("dp-A", w.dpA)
	ms.Register("dp-B", w.dpB)

	res := CrossCheck(ms, auditor, "CA1")
	if len(res.Proofs) != 0 {
		t.Fatalf("honest deployment produced %d misbehavior proofs", len(res.Proofs))
	}
	if res.RootsCompared != 4 {
		t.Errorf("compared %d roots, want 4", res.RootsCompared)
	}
	if len(res.Errors) != 0 {
		t.Errorf("cross-check errors: %v", res.Errors)
	}
}

func TestEquivocationDetectedAndProvable(t *testing.T) {
	w := newWorld(t)
	gen := serial.NewGenerator(2, nil)

	// The CA shows different size-2 dictionaries to the two halves of the
	// system: serials {a,b} to dpA, serials {c,d} to dpB.
	if _, err := w.honest.Revoke(gen.NextN(2)...); err != nil {
		t.Fatal(err)
	}
	w.revokeOnFork(t, gen.NextN(2)...)
	for _, agent := range []*ra.RA{w.raA, w.raB} {
		if err := agent.SyncOnce(); err != nil {
			t.Fatal(err)
		}
	}

	auditor := NewAuditor(w.pool)
	ms := NewMapServer()
	ms.Register("ra-A", w.raA.Store())
	ms.Register("ra-B", w.raB.Store())
	res := CrossCheck(ms, auditor, "CA1")
	if len(res.Proofs) == 0 {
		t.Fatal("equivocation not detected")
	}

	// The proof is transferable: a third party verifies it with only the
	// CA's public key.
	proof := res.Proofs[0]
	if err := proof.Verify(w.honest.PublicKey()); err != nil {
		t.Errorf("proof does not verify independently: %v", err)
	}

	// And it survives serialization (reporting to a software vendor, §III).
	decoded, err := dictionary.DecodeMisbehaviorProof(proof.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := decoded.Verify(w.honest.PublicKey()); err != nil {
		t.Errorf("decoded proof does not verify: %v", err)
	}
	if len(auditor.Proofs()) == 0 {
		t.Error("auditor did not retain the proof")
	}
}

func TestGossipBetweenTwoPeersDetectsEquivocation(t *testing.T) {
	w := newWorld(t)
	gen := serial.NewGenerator(3, nil)
	if _, err := w.honest.Revoke(gen.NextN(1)...); err != nil {
		t.Fatal(err)
	}
	w.revokeOnFork(t, gen.NextN(1)...)
	for _, agent := range []*ra.RA{w.raA, w.raB} {
		if err := agent.SyncOnce(); err != nil {
			t.Fatal(err)
		}
	}

	auditor := NewAuditor(w.pool)
	proof, err := Gossip(auditor, "CA1", w.raA.Store(), w.raB.Store())
	if err != nil {
		t.Fatal(err)
	}
	if proof == nil {
		t.Fatal("gossip missed the equivocation")
	}
}

func TestAppendOnlyViolationDetected(t *testing.T) {
	w := newWorld(t)
	gen := serial.NewGenerator(4, nil)

	// Honest history: two batches; capture the intermediate root.
	if _, err := w.honest.Revoke(gen.NextN(2)...); err != nil {
		t.Fatal(err)
	}
	if err := w.raA.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	olderRoot := w.honest.Authority().SignedRoot()
	if _, err := w.honest.Revoke(gen.NextN(2)...); err != nil {
		t.Fatal(err)
	}
	if err := w.raA.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	newerRoot := w.honest.Authority().SignedRoot()

	replica, err := w.raA.Store().Replica("CA1")
	if err != nil {
		t.Fatal(err)
	}
	log := replica.Log()

	auditor := NewAuditor(w.pool)
	if err := auditor.CheckAppendOnly(log, olderRoot, newerRoot); err != nil {
		t.Errorf("honest history flagged: %v", err)
	}

	// A rewriting CA: the fork reaches size 4 with different history. Its
	// root cannot be explained by raA's log.
	w.revokeOnFork(t, gen.NextN(4)...)
	forkRoot := w.fork.Authority().SignedRoot()
	if err := auditor.CheckAppendOnly(log, olderRoot, forkRoot); err == nil {
		t.Error("history rewrite not detected")
	}
}

func TestAuditorRejectsForgedRoots(t *testing.T) {
	w := newWorld(t)
	auditor := NewAuditor(w.pool)

	root := w.honest.Authority().SignedRoot()
	forged := *root
	forged.N = root.N + 7 // tamper with a signed field
	if _, err := auditor.Observe(&forged); err == nil {
		t.Error("tampered root accepted")
	}

	unknown := *root
	unknown.CA = "CA9"
	if _, err := auditor.Observe(&unknown); !errors.Is(err, ErrUntrustedCA) {
		t.Errorf("err = %v, want ErrUntrustedCA", err)
	}
}

func TestMapServerRegistry(t *testing.T) {
	ms := NewMapServer()
	if _, err := ms.Source("nope"); !errors.Is(err, ErrUnknownSource) {
		t.Errorf("err = %v, want ErrUnknownSource", err)
	}
	w := newWorld(t)
	ms.Register("b", w.raB.Store())
	ms.Register("a", w.raA.Store())
	ids := ms.IDs()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("IDs = %v", ids)
	}
	if _, err := ms.Source("a"); err != nil {
		t.Errorf("registered source not found: %v", err)
	}
}
