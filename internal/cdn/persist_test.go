package cdn

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ritm/internal/ca"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// newDurableOrigin builds a CA feeding a storage-backed distribution
// point with some history, and returns both plus the generator.
func newDurableOrigin(t *testing.T, backend storage.Backend) (*ca.CA, *DistributionPoint, *serial.Generator) {
	t.Helper()
	dp := NewDistributionPointWithStorage(nil, backend, 0)
	authority, err := ca.New(ca.Config{ID: "CA1", Delta: 10 * time.Second, Publisher: dp})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.RegisterCA("CA1", authority.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := authority.PublishRoot(); err != nil {
		t.Fatal(err)
	}
	gen := serial.NewGenerator(0x0E7A6, nil)
	for i := 0; i < 6; i++ {
		if _, err := authority.Revoke(gen.NextN(50)...); err != nil {
			t.Fatal(err)
		}
	}
	return authority, dp, gen
}

// TestDistributionPointReopenKeepsETag is the §VII availability
// acceptance: an origin killed and reopened over its durable log serves
// the exact signed-root bytes it crashed with, so an edge's conditional
// request (If-None-Match with the pre-crash ETag) still gets 304 — the
// restart is invisible to the HTTP cache hierarchy.
func TestDistributionPointReopenKeepsETag(t *testing.T) {
	t.Run("sorted", func(t *testing.T) {
		backend := storage.NewMemory()
		authority, dp1, _ := newDurableOrigin(t, backend)

		srv1 := httptest.NewServer(NewHandler(dp1, HandlerOptions{}))
		resp, err := http.Get(srv1.URL + "/v1/root?ca=CA1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		etag := resp.Header.Get("ETag")
		srv1.Close()
		if etag == "" {
			t.Fatal("no ETag on /v1/root")
		}

		// Crash + reopen: a brand-new distribution point over the same
		// durable state. The CA process is NOT involved — the origin
		// recovers alone, which is the availability story (CDNs keep
		// serving through CA outages).
		if err := dp1.Close(); err != nil {
			t.Fatal(err)
		}
		dp2 := NewDistributionPointWithStorage(nil, backend, 0)
		if err := dp2.RegisterCA("CA1", authority.PublicKey()); err != nil {
			t.Fatalf("reopen: %v", err)
		}
		srv2 := httptest.NewServer(NewHandler(dp2, HandlerOptions{}))
		defer srv2.Close()

		req, err := http.NewRequest(http.MethodGet, srv2.URL+"/v1/root?ca=CA1", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", etag)
		resp2, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusNotModified {
			t.Fatalf("conditional fetch across origin restart: status %d, want 304", resp2.StatusCode)
		}
		if got := resp2.Header.Get("ETag"); got != etag {
			t.Fatalf("ETag changed across restart: %q → %q", etag, got)
		}

		// And pulls resume exactly where the crashed origin stood: a
		// puller at the pre-crash count gets an empty suffix, not
		// ErrAhead.
		pr, err := dp2.Pull("CA1", 300)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Issuance == nil || len(pr.Issuance.Serials) != 0 || pr.Issuance.Root.N != 300 {
			t.Fatalf("reopened origin suffix: %+v", pr.Issuance)
		}
	})
}

// TestDistributionPointCloseCheckpointsPending: a clean Close checkpoints
// the update records the cadence has not yet covered, as a CA's and an RA's
// Close do, so the next start maps state instead of replaying a WAL tail.
func TestDistributionPointCloseCheckpointsPending(t *testing.T) {
	backend := storage.NewMemory()
	authority, dp1, _ := newDurableOrigin(t, backend) // 7 ingests, cadence 64
	want, err := dp1.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if err := dp1.Close(); err != nil {
		t.Fatal(err)
	}

	lg, err := backend.Open("CA1")
	if err != nil {
		t.Fatal(err)
	}
	ckpt, wal, err := lg.Load()
	lg.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ckpt == nil || len(wal) != 0 {
		t.Fatalf("after Close: checkpoint=%v, %d WAL records to replay; want a checkpoint and none", ckpt != nil, len(wal))
	}
	dp2 := NewDistributionPointWithStorage(nil, backend, 0)
	if err := dp2.RegisterCA("CA1", authority.PublicKey()); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer dp2.Close()
	if got, err := dp2.LatestRoot("CA1"); err != nil || !got.Equal(want) {
		t.Fatalf("reopened root differs from the closed origin's (err %v)", err)
	}
}

// TestDistributionPointFileBackendRoundTrip runs the reopen path over the
// real file backend (CRC framing, rename-install, WAL scan) rather than
// the in-memory test double.
func TestDistributionPointFileBackendRoundTrip(t *testing.T) {
	backend := storage.NewFileBackend(t.TempDir(), true)
	authority, dp1, gen := newDurableOrigin(t, backend)
	want, err := dp1.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if err := dp1.Close(); err != nil {
		t.Fatal(err)
	}

	dp2 := NewDistributionPointWithStorage(nil, backend, 0)
	if err := dp2.RegisterCA("CA1", authority.PublicKey()); err != nil {
		t.Fatalf("reopen from files: %v", err)
	}
	defer dp2.Close()
	got, err := dp2.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("file-backed reopen lost the signed root")
	}
	// The reopened origin keeps ingesting (same CA, continued history).
	authority.SetPublisher(dp2)
	if _, err := authority.Revoke(gen.NextN(10)...); err != nil {
		t.Fatalf("ingest after reopen: %v", err)
	}
	root, err := dp2.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if root.N != 310 {
		t.Fatalf("post-reopen root covers %d, want 310", root.N)
	}
}
