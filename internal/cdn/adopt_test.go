package cdn

import (
	"bytes"
	"testing"
	"time"

	"ritm/internal/ca"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// TestDistributionPointAdoptsCARevoke runs the origin as ritm-ca does, in
// the CA's process over a WAL, and a second origin fed each revocation as
// decoded bytes (an HTTP publish). Whether the first adopts the authority's
// tree or the second replays the batch, both must serve byte-identical pulls
// and checkpoint images after every batch; so must the first origin
// reopened over its WAL, whose records are replayed.
func TestDistributionPointAdoptsCARevoke(t *testing.T) {
	backend := storage.NewMemory()
	dp := NewDistributionPointWithStorage(nil, backend, 0)
	authority, err := ca.New(ca.Config{ID: "CA1", Delta: 10 * time.Second, Publisher: dp, SerialSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	remote := NewDistributionPoint(nil)
	for _, o := range []*DistributionPoint{dp, remote} {
		if err := o.RegisterCA("CA1", authority.PublicKey()); err != nil {
			t.Fatal(err)
		}
	}
	if err := authority.PublishRoot(); err != nil {
		t.Fatal(err)
	}
	if err := remote.PublishIssuance(&dictionary.IssuanceMessage{Root: authority.Authority().SignedRoot()}); err != nil {
		t.Fatal(err)
	}
	same := func(what string, a, b *DistributionPoint, from uint64) {
		t.Helper()
		pa, err := a.Pull("CA1", from)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.Pull("CA1", from)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pa.Encoded(), pb.Encoded()) {
			t.Errorf("%s: pulls from %d differ", what, from)
		}
		if !bytes.Equal(a.dicts["CA1"].PersistentStateV2(), b.dicts["CA1"].PersistentStateV2()) {
			t.Errorf("%s: checkpoint images differ", what)
		}
	}
	gen := serial.NewGenerator(0xD15, nil)
	for _, k := range []int{5000, 500, 1} {
		from := authority.Authority().Count()
		msg, err := authority.Revoke(gen.NextN(k)...)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := dictionary.DecodeIssuanceMessage(msg.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if err := remote.PublishIssuance(decoded); err != nil {
			t.Fatal(err)
		}
		same("after a batch", dp, remote, from)
		same("after a batch", dp, remote, 0)
	}

	reopened := NewDistributionPointWithStorage(nil, backend, 0)
	if err := reopened.RegisterCA("CA1", authority.PublicKey()); err != nil {
		t.Fatal(err)
	}
	same("reopened over the WAL", reopened, remote, 0)
}
