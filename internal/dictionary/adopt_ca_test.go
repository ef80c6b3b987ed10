package dictionary_test

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"ritm/internal/ca"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
)

// replicaOrigin is a distribution point reduced to its replica: it ingests
// what the CA publishes the way cdn.DistributionPoint does, through
// Replica.Update in the CA's process.
type replicaOrigin struct{ *dictionary.Replica }

func (o replicaOrigin) PublishIssuance(msg *dictionary.IssuanceMessage) error {
	return o.Update(msg)
}

func (o replicaOrigin) PublishFreshness(*dictionary.FreshnessStatement) error { return nil }

// newCAWithOrigin returns a CA publishing into an in-process replica, and a
// second replica level with it that is fed nothing.
func newCAWithOrigin(t *testing.T) (c *ca.CA, origin, replayer *dictionary.Replica) {
	t.Helper()
	c, err := ca.New(ca.Config{ID: "CA1", Delta: 10 * time.Second, SerialSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	origin = dictionary.NewReplica(c.ID(), c.PublicKey())
	replayer = dictionary.NewReplica(c.ID(), c.PublicKey())
	c.SetPublisher(replicaOrigin{origin})
	if err := c.PublishRoot(); err != nil {
		t.Fatal(err)
	}
	if err := replayer.Update(&dictionary.IssuanceMessage{Root: c.Authority().SignedRoot()}); err != nil {
		t.Fatal(err)
	}
	return c, origin, replayer
}

// replay feeds r the wire-decoded form of msg, as an RA receives it, and
// returns the nodes r hashed.
func replay(t *testing.T, r *dictionary.Replica, msg *dictionary.IssuanceMessage) uint64 {
	t.Helper()
	decoded, err := dictionary.DecodeIssuanceMessage(msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	before := dictionary.ReplicaHashedNodes(r)
	if err := r.Update(decoded); err != nil {
		t.Fatal(err)
	}
	return dictionary.ReplicaHashedNodes(r) - before
}

// TestRevokeAdoptedByInProcessOrigin checks that after ca.Revoke a replica
// in the CA's process hashes nothing — it adopts the authority's rebuilt
// tree — and ends byte-identical to a replica that replayed the decoded
// message: root, count, log, every proof, and the checkpoint image, for a
// uniform batch and a right-edge batch.
func TestRevokeAdoptedByInProcessOrigin(t *testing.T) {
	c, origin, replayer := newCAWithOrigin(t)
	gen := serial.NewGenerator(0xC0DE, nil)
	rightEdge := make([]serial.Number, 500)
	for i := range rightEdge {
		raw := binary.BigEndian.AppendUint64(bytes.Repeat([]byte{0xff}, 12), uint64(i))
		s, err := serial.New(raw)
		if err != nil {
			t.Fatal(err)
		}
		rightEdge[i] = s
	}
	absent := gen.NextN(32)
	for _, tc := range []struct {
		name  string
		batch []serial.Number
	}{
		{"corpus", gen.NextN(20_000)},
		{"uniform", gen.NextN(1000)},
		{"right edge", rightEdge},
	} {
		before := dictionary.ReplicaHashedNodes(origin)
		msg, err := c.Revoke(tc.batch...)
		if err != nil {
			t.Fatal(err)
		}
		if hashed := dictionary.ReplicaHashedNodes(origin) - before; hashed != 0 {
			t.Errorf("%s: in-process origin hashed %d nodes, want 0 (adopted)", tc.name, hashed)
		}
		if hashed := replay(t, replayer, msg); hashed == 0 {
			t.Errorf("%s: the replaying replica hashed nothing", tc.name)
		}

		got, want := origin.Snapshot(), replayer.Snapshot()
		if !bytes.Equal(got.Root().Encode(), want.Root().Encode()) || got.Count() != want.Count() {
			t.Fatalf("%s: origin at n=%d, replay at n=%d, roots differ", tc.name, got.Count(), want.Count())
		}
		if !bytes.Equal(origin.PersistentStateV2(), replayer.PersistentStateV2()) {
			t.Errorf("%s: checkpoint images differ", tc.name)
		}
		gotLog, wantLog := got.Log(), want.Log()
		for i := range wantLog {
			if !gotLog[i].Equal(wantLog[i]) {
				t.Fatalf("%s: log entry %d differs", tc.name, i)
			}
		}
		for _, s := range append(tc.batch[:16:16], absent...) {
			g, err := got.Prove(s)
			if err != nil {
				t.Fatal(err)
			}
			w, err := want.Prove(s)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.Encode(), w.Encode()) {
				t.Errorf("%s: status for %v differs", tc.name, s)
			}
		}
	}
}

// TestRevokeReturnsNoBuiltRun pins that the message ca.Revoke returns
// offers no tree, with or without a publisher: a caller that keeps every
// message keeps no run alive, and a replica fed it replays the batch, so
// an instrument timing that replay (a probe replica beside the CA) still
// measures a replay.
func TestRevokeReturnsNoBuiltRun(t *testing.T) {
	c, _, probe := newCAWithOrigin(t)
	standalone, err := ca.New(ca.Config{ID: "CA2", Delta: 10 * time.Second, SerialSeed: 8})
	if err != nil {
		t.Fatal(err)
	}
	gen := serial.NewGenerator(0xF00D, nil)
	if msg, err := standalone.Revoke(gen.NextN(100)...); err != nil {
		t.Fatal(err)
	} else if dictionary.OffersBuiltRun(msg) {
		t.Error("Revoke without a publisher returned the authority's offer of its tree")
	}
	msg, err := c.Revoke(gen.NextN(100)...)
	if err != nil {
		t.Fatal(err)
	}
	if dictionary.OffersBuiltRun(msg) {
		t.Error("Revoke returned the authority's offer of its tree")
	}
	before := dictionary.ReplicaHashedNodes(probe)
	if err := probe.Update(msg); err != nil {
		t.Fatal(err)
	}
	if dictionary.ReplicaHashedNodes(probe) == before {
		t.Error("the returned message was adopted, not replayed")
	}
}
