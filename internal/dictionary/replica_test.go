package dictionary

import (
	"errors"
	"testing"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// authorityAndReplica builds a matched CA/RA pair.
func authorityAndReplica(t *testing.T, now int64) (*Authority, *Replica) {
	t.Helper()
	a := newTestAuthority(t, now)
	r := NewReplica(a.CA(), a.PublicKey())
	// Bootstrap with the initial (empty) root.
	if err := r.Update(&IssuanceMessage{Root: a.SignedRoot()}); err != nil {
		t.Fatalf("bootstrap replica: %v", err)
	}
	return a, r
}

func TestReplicaFollowsAuthority(t *testing.T) {
	a, r := authorityAndReplica(t, 0)
	msg, err := a.Insert(mustSerials(t, 10, 20, 30), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(msg); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if r.Count() != 3 {
		t.Errorf("Count = %d, want 3", r.Count())
	}
	if !snapRevoked(r.Snapshot(), serial.FromUint64(20)) {
		t.Error("replica missing revocation")
	}
	if !r.Root().Equal(a.SignedRoot()) {
		t.Error("replica root differs from authority root")
	}

	// Second batch keeps them in sync.
	msg, err = a.Insert(mustSerials(t, 40), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(msg); err != nil {
		t.Fatal(err)
	}
	if r.Count() != 4 {
		t.Errorf("Count = %d, want 4", r.Count())
	}
}

func TestReplicaProveMatchesClientCheck(t *testing.T) {
	a, r := authorityAndReplica(t, 0)
	msg, err := a.Insert(mustSerials(t, 100, 200), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(msg); err != nil {
		t.Fatal(err)
	}

	st, err := r.Prove(serial.FromUint64(100))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := st.Check(serial.FromUint64(100), a.PublicKey(), 2); err != nil || res != CheckRevoked {
		t.Errorf("revoked serial: res=%v err=%v", res, err)
	}
	st, err = r.Prove(serial.FromUint64(150))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := st.Check(serial.FromUint64(150), a.PublicKey(), 2); err != nil || res != CheckValid {
		t.Errorf("valid serial: res=%v err=%v", res, err)
	}
}

func TestReplicaRejectsForgedRoot(t *testing.T) {
	a, r := authorityAndReplica(t, 0)
	msg, err := a.Insert(mustSerials(t, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Attacker flips a serial in flight; the signature breaks.
	forged := *msg
	forged.Serials = mustSerials(t, 2)
	if err := r.Update(&forged); err == nil {
		t.Fatal("update with substituted serial accepted")
	}
	if r.Count() != 0 {
		t.Error("failed update mutated replica")
	}
	// Now apply the original; it must still succeed (state was rolled back).
	if err := r.Update(msg); err != nil {
		t.Fatalf("legitimate update after attack failed: %v", err)
	}
}

func TestReplicaRejectsLyingRoot(t *testing.T) {
	// A malicious CA signs a root that does not match the serials it
	// disseminates (e.g. it secretly omits one revocation). The replica's
	// replay detects the mismatch (Fig 2 update step 3).
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAuthority(AuthorityConfig{CA: "evil", Signer: signer, Delta: testDelta, ChainLength: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica("evil", signer.Public())
	if err := r.Update(&IssuanceMessage{Root: a.SignedRoot()}); err != nil {
		t.Fatal(err)
	}

	// The CA inserts {1,2} but tells the world the batch was {1,3}: the
	// signed root commits to {1,2}, the message carries {1,3}.
	msg, err := a.Insert(mustSerials(t, 1, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	lying := &IssuanceMessage{Serials: mustSerials(t, 1, 3), Root: msg.Root}
	if err := r.Update(lying); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("err = %v, want ErrRootMismatch", err)
	}
	if r.Count() != 0 {
		t.Error("replica committed a lying update")
	}
	// The honest message still applies.
	if err := r.Update(msg); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaDetectsDesynchronization(t *testing.T) {
	a, r := authorityAndReplica(t, 0)
	// The replica misses this batch entirely.
	if _, err := a.Insert(mustSerials(t, 1, 2), 1); err != nil {
		t.Fatal(err)
	}
	msg2, err := a.Insert(mustSerials(t, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	err = r.Update(msg2)
	if !errors.Is(err, ErrDesynchronized) {
		t.Fatalf("err = %v, want ErrDesynchronized", err)
	}
	// Recovery: fetch the missing suffix (the sync protocol, §III) and
	// re-apply as one batch against the latest root.
	missing, err := a.LogSuffix(r.Count(), a.Count())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(&IssuanceMessage{Serials: missing, Root: a.SignedRoot()}); err != nil {
		t.Fatalf("resync failed: %v", err)
	}
	if r.Count() != 3 {
		t.Errorf("Count after resync = %d, want 3", r.Count())
	}
}

func TestReplicaRejectsReplayedOldMessage(t *testing.T) {
	a, r := authorityAndReplica(t, 0)
	msg1, err := a.Insert(mustSerials(t, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(msg1); err != nil {
		t.Fatal(err)
	}
	// Replay of msg1 must not apply again.
	if err := r.Update(msg1); !errors.Is(err, ErrCount) {
		t.Fatalf("replay err = %v, want ErrCount", err)
	}
}

func TestReplicaRejectsWrongCA(t *testing.T) {
	a, _ := authorityAndReplica(t, 0)
	other := NewReplica("CA2", a.PublicKey())
	msg, err := a.Insert(mustSerials(t, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Update(msg); err == nil {
		t.Error("cross-CA update accepted")
	}
}

func TestReplicaFreshnessLifecycle(t *testing.T) {
	a, r := authorityAndReplica(t, 0)
	deltaS := int64(testDelta / time.Second)

	// Initially the anchor doubles as the period-0 statement.
	age, err := r.Snapshot().FreshnessAge(0)
	if err != nil {
		t.Fatal(err)
	}
	if age != 0 {
		t.Errorf("initial age = %d, want 0", age)
	}

	// One period later the stored statement is one period old.
	age, err = r.Snapshot().FreshnessAge(deltaS)
	if err != nil {
		t.Fatal(err)
	}
	if age != 1 {
		t.Errorf("age after ∆ = %d, want 1", age)
	}

	// Apply the period-1 statement.
	st, err := a.Statement(deltaS)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyFreshness(st, deltaS); err != nil {
		t.Fatalf("ApplyFreshness: %v", err)
	}
	age, err = r.Snapshot().FreshnessAge(deltaS)
	if err != nil {
		t.Fatal(err)
	}
	if age != 0 {
		t.Errorf("age after refresh = %d, want 0", age)
	}

	// A garbage statement is rejected.
	bad := &FreshnessStatement{CA: a.CA(), Value: cryptoutil.HashBytes([]byte("junk"))}
	if err := r.ApplyFreshness(bad, deltaS); !errors.Is(err, ErrStale) {
		t.Errorf("junk statement err = %v, want ErrStale", err)
	}

	// A stale (already-superseded) statement is rejected.
	st0, err := a.Statement(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyFreshness(st0, 2*deltaS); !errors.Is(err, ErrStale) {
		t.Errorf("old statement err = %v, want ErrStale", err)
	}
}

func TestReplicaProveBeforeBootstrap(t *testing.T) {
	r := NewReplica("CA1", nil)
	if _, err := r.Prove(serial.FromUint64(1)); !errors.Is(err, ErrDesynchronized) {
		t.Errorf("err = %v, want ErrDesynchronized", err)
	}
	if _, err := r.Snapshot().FreshnessAge(0); !errors.Is(err, ErrDesynchronized) {
		t.Errorf("err = %v, want ErrDesynchronized", err)
	}
}

func TestReplicaEndToEndFreshStatusForClient(t *testing.T) {
	// Full pipeline: CA inserts, replica syncs and refreshes, client checks
	// the replica's status several periods later — the situation of Fig 3's
	// established-connection updates.
	a, r := authorityAndReplica(t, 0)
	deltaS := int64(testDelta / time.Second)
	msg, err := a.Insert(mustSerials(t, 0xbad), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(msg); err != nil {
		t.Fatal(err)
	}

	for p := int64(1); p <= 5; p++ {
		now := p * deltaS
		st, err := a.Statement(now)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ApplyFreshness(st, now); err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		status, err := r.Prove(serial.FromUint64(0xbad))
		if err != nil {
			t.Fatal(err)
		}
		res, err := status.Check(serial.FromUint64(0xbad), a.PublicKey(), now)
		if err != nil {
			t.Fatalf("period %d check: %v", p, err)
		}
		if res != CheckRevoked {
			t.Errorf("period %d: res = %v, want CheckRevoked", p, res)
		}
	}

	// Without applying the period-6 statement, a check at period 7 is stale.
	status, err := r.Prove(serial.FromUint64(0xbad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := status.Check(serial.FromUint64(0xbad), a.PublicKey(), 7*deltaS); !errors.Is(err, ErrStale) {
		t.Errorf("err = %v, want ErrStale", err)
	}
}

// TestForestReplicaRollback feeds a replica an issuance message whose signed
// root lies about the content: the update must be rejected and the replica
// left exactly at its previous (published) state — the checkpoint/rollback
// path that replaced the full log replay. The name and the "sorted" subtest
// date from when the test also ran the since-deleted forest layout.
func TestForestReplicaRollback(t *testing.T) {
	t.Run("sorted", func(t *testing.T) {
		a := newTestAuthority(t, 3)
		r := NewReplica(a.CA(), a.PublicKey())
		gen := serial.NewGenerator(17, nil)
		msg, err := a.Insert(gen.NextN(600), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Update(msg); err != nil {
			t.Fatal(err)
		}
		before := r.Snapshot()
		rootBefore, genBefore := before.view.root(), before.Generation()

		// A validly signed root over DIFFERENT content: replaying the
		// message's serials cannot reproduce it.
		evil, err := a.Insert(gen.NextN(5), 2)
		if err != nil {
			t.Fatal(err)
		}
		forged := &IssuanceMessage{Serials: gen.NextN(5), Root: evil.Root}
		if err := r.Update(forged); !errors.Is(err, ErrRootMismatch) {
			t.Fatalf("forged update: err = %v, want ErrRootMismatch", err)
		}
		after := r.Snapshot()
		if after.Generation() != genBefore {
			t.Error("rejected update published a snapshot")
		}
		if !after.view.root().Equal(rootBefore) {
			t.Error("rollback did not restore the tree root")
		}
		for _, s := range forged.Serials {
			if snapRevoked(r.Snapshot(), s) {
				t.Errorf("serial %v from the rejected batch is present", s)
			}
		}
		// The replica must accept the honest continuation: state,
		// serial index, and log all rewound correctly.
		if err := r.Update(evil); err != nil {
			t.Fatalf("honest update after rollback: %v", err)
		}
		if !r.Snapshot().view.root().Equal(evil.Root.Root) {
			t.Error("post-rollback update did not converge to the signed root")
		}
	})
}
