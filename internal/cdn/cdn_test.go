package cdn

import (
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
)

// testClock is a controllable virtual clock.
type testClock struct{ t time.Time }

func newTestClock() *testClock {
	return &testClock{t: time.Unix(1_400_000_000, 0)}
}

func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// testCA bundles an authority with a registered distribution point.
type testCA struct {
	clock *testClock
	auth  *dictionary.Authority
	dp    *DistributionPoint
	gen   *serial.Generator
}

func newTestCA(t *testing.T, id dictionary.CAID) *testCA {
	t.Helper()
	clock := newTestClock()
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	auth, err := dictionary.NewAuthority(dictionary.AuthorityConfig{
		CA:     id,
		Signer: signer,
		Delta:  10 * time.Second,
	}, clock.now().Unix())
	if err != nil {
		t.Fatal(err)
	}
	dp := NewDistributionPoint(clock.now)
	if err := dp.RegisterCA(id, signer.Public()); err != nil {
		t.Fatal(err)
	}
	return &testCA{clock: clock, auth: auth, dp: dp, gen: serial.NewGenerator(1, nil)}
}

// revoke issues count revocations and publishes them.
func (tc *testCA) revoke(t *testing.T, count int) []serial.Number {
	t.Helper()
	serials := tc.gen.NextN(count)
	msg, err := tc.auth.Insert(serials, tc.clock.now().Unix())
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.dp.PublishIssuance(msg); err != nil {
		t.Fatal(err)
	}
	return serials
}

func (tc *testCA) refresh(t *testing.T) {
	t.Helper()
	st, err := tc.auth.Statement(tc.clock.now().Unix())
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.dp.PublishFreshness(st); err != nil {
		t.Fatal(err)
	}
}

func TestDistributionPointPullFromZero(t *testing.T) {
	tc := newTestCA(t, "CA1")
	serials := tc.revoke(t, 5)

	resp, err := tc.dp.Pull("CA1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Issuance == nil {
		t.Fatal("no issuance in pull response")
	}
	if got := len(resp.Issuance.Serials); got != 5 {
		t.Fatalf("pull returned %d serials, want 5", got)
	}
	for i, s := range serials {
		if !resp.Issuance.Serials[i].Equal(s) {
			t.Errorf("serial %d mismatch", i)
		}
	}
	if resp.Issuance.Root.N != 5 {
		t.Errorf("root.N = %d, want 5", resp.Issuance.Root.N)
	}
	if resp.Freshness == nil {
		t.Error("no freshness statement in pull response")
	}
}

func TestDistributionPointSuffixPull(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 3)
	tc.revoke(t, 4)

	resp, err := tc.dp.Pull("CA1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resp.Issuance.Serials); got != 4 {
		t.Fatalf("suffix pull returned %d serials, want 4", got)
	}
	if resp.Issuance.Root.N != 7 {
		t.Errorf("root.N = %d, want 7", resp.Issuance.Root.N)
	}

	// A replica holding the first batch applies the suffix cleanly.
	replica := dictionary.NewReplica("CA1", tc.auth.PublicKey())
	first, err := tc.dp.Pull("CA1", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Apply the full pull, then verify a later suffix extends it.
	if err := replica.Update(first.Issuance); err != nil {
		t.Fatal(err)
	}
	tc.revoke(t, 2)
	suffix, err := tc.dp.Pull("CA1", replica.Count())
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Update(suffix.Issuance); err != nil {
		t.Fatalf("suffix update: %v", err)
	}
	if replica.Count() != 9 {
		t.Errorf("replica count = %d, want 9", replica.Count())
	}
}

func TestDistributionPointRejectsBadMessages(t *testing.T) {
	tc := newTestCA(t, "CA1")

	if _, err := tc.dp.Pull("CA2", 0); !errors.Is(err, ErrUnknownCA) {
		t.Errorf("pull unknown CA: err = %v, want ErrUnknownCA", err)
	}
	if _, err := tc.dp.Pull("CA1", 10); !errors.Is(err, ErrAhead) {
		t.Errorf("pull ahead: err = %v, want ErrAhead", err)
	}

	// An issuance message signed by a different key is rejected at ingest.
	evil, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	evilAuth, err := dictionary.NewAuthority(dictionary.AuthorityConfig{
		CA:     "CA1",
		Signer: evil,
		Delta:  10 * time.Second,
	}, tc.clock.now().Unix())
	if err != nil {
		t.Fatal(err)
	}
	msg, err := evilAuth.Insert(serial.NewGenerator(9, nil).NextN(1), tc.clock.now().Unix())
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.dp.PublishIssuance(msg); err == nil {
		t.Error("forged issuance message accepted by distribution point")
	}
}

func TestFreshnessIngestAndServe(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 1)

	tc.clock.advance(10 * time.Second) // one period later
	tc.refresh(t)

	resp, err := tc.dp.Pull("CA1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Freshness == nil {
		t.Fatal("no freshness after refresh")
	}
	// The served statement must verify for period 1 against the anchor.
	root := resp.Issuance.Root
	if err := cryptoutil.VerifyChainValue(root.Anchor, resp.Freshness.Value, 1); err != nil {
		t.Errorf("served freshness does not verify: %v", err)
	}
}

func TestEdgeServerCaching(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 2)

	edge := NewEdgeServer(tc.dp, 30*time.Second, tc.clock.now)

	if _, err := edge.Pull("CA1", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := edge.Pull("CA1", 0); err != nil {
		t.Fatal(err)
	}
	st := edge.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss and 1 hit", st)
	}

	// After the TTL the entry expires and the origin is contacted again.
	tc.clock.advance(31 * time.Second)
	if _, err := edge.Pull("CA1", 0); err != nil {
		t.Fatal(err)
	}
	if st := edge.Stats(); st.Misses != 2 {
		t.Errorf("misses after TTL = %d, want 2", st.Misses)
	}
}

func TestEdgeServerTTLZeroNeverCaches(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 1)
	edge := NewEdgeServer(tc.dp, 0, tc.clock.now)
	for i := 0; i < 3; i++ {
		if _, err := edge.Pull("CA1", 0); err != nil {
			t.Fatal(err)
		}
	}
	if st := edge.Stats(); st.Hits != 0 || st.Misses != 3 {
		t.Errorf("TTL=0 stats = %+v, want 0 hits / 3 misses", st)
	}
}

func TestEdgeServerStaleCacheToleratedByFreshnessWindow(t *testing.T) {
	// A cached response served within the TTL carries a freshness statement
	// one period old; the client policy (2∆) must still accept it.
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 1)
	edge := NewEdgeServer(tc.dp, 10*time.Second, tc.clock.now)

	if _, err := edge.Pull("CA1", 0); err != nil {
		t.Fatal(err)
	}
	tc.clock.advance(9 * time.Second) // within TTL; still period 0
	resp, err := edge.Pull("CA1", 0)
	if err != nil {
		t.Fatal(err)
	}
	root := resp.Issuance.Root
	p := root.Period(tc.clock.now().Unix())
	okNow := cryptoutil.VerifyChainValue(root.Anchor, resp.Freshness.Value, p) == nil
	okPrev := p > 0 && cryptoutil.VerifyChainValue(root.Anchor, resp.Freshness.Value, p-1) == nil
	if !okNow && !okPrev {
		t.Error("cached freshness statement outside the 2∆ window")
	}
}

func TestPullResponseRoundTrip(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 3)
	resp, err := tc.dp.Pull("CA1", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePullResponse(resp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Issuance == nil || len(got.Issuance.Serials) != 3 {
		t.Fatalf("round trip lost serials: %+v", got.Issuance)
	}
	if !got.Issuance.Root.Equal(resp.Issuance.Root) {
		t.Error("round trip changed signed root")
	}
	if got.Freshness == nil || got.Freshness.Value != resp.Freshness.Value {
		t.Error("round trip changed freshness")
	}
}

func TestPullResponseDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodePullResponse([]byte{1, 2, 3}); err == nil {
		t.Error("garbage decoded as pull response")
	}
	if _, err := DecodePullResponse(nil); err == nil {
		t.Error("empty buffer decoded as pull response")
	}
}

func TestHTTPTransport(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 4)

	srv := httptest.NewServer(NewHandler(tc.dp, HandlerOptions{}))
	defer srv.Close()
	client := &HTTPClient{BaseURL: srv.URL}

	cas, err := client.CAs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cas) != 1 || cas[0] != "CA1" {
		t.Errorf("CAs = %v", cas)
	}

	resp, err := client.Pull("CA1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Issuance == nil || len(resp.Issuance.Serials) != 4 {
		t.Fatalf("HTTP pull lost serials: %+v", resp.Issuance)
	}

	root, err := client.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if root.N != 4 {
		t.Errorf("root.N = %d, want 4", root.N)
	}
	if err := root.VerifySignature(tc.auth.PublicKey()); err != nil {
		t.Errorf("root signature after HTTP transport: %v", err)
	}

	// Error mapping.
	if _, err := client.Pull("CA9", 0); !errors.Is(err, ErrUnknownCA) {
		t.Errorf("unknown CA over HTTP: %v", err)
	}
	if _, err := client.Pull("CA1", 99); !errors.Is(err, ErrAhead) {
		t.Errorf("ahead pull over HTTP: %v", err)
	}
}

// TestHTTPTransportHostileCAIDs round-trips CA identifiers that would
// corrupt a naively concatenated query string: expiry-shard ids (the
// "<ca>/exp-<unixtime>" convention of §VIII) and ids containing '&', '+',
// '#', '=', '?', and spaces. The (ca, from) pair is the CDN cache key, so
// any lossy encoding would silently merge or split cache entries.
func TestHTTPTransportHostileCAIDs(t *testing.T) {
	ids := []dictionary.CAID{
		"Acme CA/exp-1700000000",
		"ca&from=0#frag",
		"a+b c?d=e",
	}
	for _, id := range ids {
		t.Run(string(id), func(t *testing.T) {
			tc := newTestCA(t, id)
			tc.revoke(t, 3)
			srv := httptest.NewServer(NewHandler(tc.dp, HandlerOptions{}))
			defer srv.Close()
			client := &HTTPClient{BaseURL: srv.URL}

			cas, err := client.CAs()
			if err != nil {
				t.Fatal(err)
			}
			if len(cas) != 1 || cas[0] != id {
				t.Fatalf("CAs() = %v, want [%s]", cas, id)
			}
			resp, err := client.Pull(id, 0)
			if err != nil {
				t.Fatalf("pull: %v", err)
			}
			if resp.Issuance == nil || len(resp.Issuance.Serials) != 3 {
				t.Fatalf("pull through HTTP lost serials: %+v", resp.Issuance)
			}
			if resp.Issuance.Root.CA != id {
				t.Errorf("root CA = %q, want %q", resp.Issuance.Root.CA, id)
			}
			root, err := client.LatestRoot(id)
			if err != nil {
				t.Fatalf("latest root: %v", err)
			}
			if root.N != 3 || root.CA != id {
				t.Errorf("root = (ca=%q, n=%d), want (%q, 3)", root.CA, root.N, id)
			}
			// A suffix pull keys a different cache entry and still resolves.
			suffix, err := client.Pull(id, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(suffix.Issuance.Serials) != 1 {
				t.Errorf("suffix pull returned %d serials, want 1", len(suffix.Issuance.Serials))
			}
		})
	}
}

func TestEndToEndReplicaSyncThroughEdge(t *testing.T) {
	// CA → distribution point → edge → replica, with incremental updates
	// and a freshness refresh, exercising the full dissemination path.
	tc := newTestCA(t, "CA1")
	edge := NewEdgeServer(tc.dp, 0, tc.clock.now)
	replica := dictionary.NewReplica("CA1", tc.auth.PublicKey())

	sync := func() {
		t.Helper()
		resp, err := edge.Pull("CA1", replica.Count())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Issuance != nil {
			if err := replica.Update(resp.Issuance); err != nil {
				t.Fatal(err)
			}
		}
		if resp.Freshness != nil {
			if err := replica.ApplyFreshness(resp.Freshness, tc.clock.now().Unix()); err != nil {
				t.Fatal(err)
			}
		}
	}

	tc.revoke(t, 3)
	sync()
	if replica.Count() != 3 {
		t.Fatalf("after first sync: count = %d", replica.Count())
	}

	tc.clock.advance(10 * time.Second)
	tc.refresh(t)
	tc.revoke(t, 2)
	sync()
	if replica.Count() != 5 {
		t.Fatalf("after second sync: count = %d", replica.Count())
	}

	// The replica proves absence for an unrevoked serial and the status
	// checks out under the CA key at the current time.
	other := serial.NewGenerator(42, nil).Next()
	status, err := replica.Prove(other)
	if err != nil {
		t.Fatal(err)
	}
	res, err := status.Check(other, tc.auth.PublicKey(), tc.clock.now().Unix())
	if err != nil {
		t.Fatal(err)
	}
	if res != dictionary.CheckValid {
		t.Errorf("check = %v, want CheckValid", res)
	}
}
