package cdn

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ritm/internal/ca"
	"ritm/internal/serial"
)

// gzipEnv is a distribution point with a large enough history that pull
// bodies clear the compression threshold, served with Gzip enabled.
func gzipEnv(t *testing.T, opts HandlerOptions) (*httptest.Server, *ca.CA) {
	t.Helper()
	dp := NewDistributionPoint(nil)
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
	gen := serial.NewGenerator(0x6219, nil)
	for i := 0; i < 4; i++ {
		if _, err := authority.Revoke(gen.NextN(100)...); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewHandler(dp, opts))
	t.Cleanup(srv.Close)
	return srv, authority
}

// rawGet fetches path with an explicit Accept-Encoding (disabling the
// transport's transparent decompression) and returns the raw response.
func rawGet(t *testing.T, url, acceptEncoding string, extra http.Header) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acceptEncoding != "" {
		req.Header.Set("Accept-Encoding", acceptEncoding)
	}
	for k, vs := range extra {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestGzipPullRoundTrip(t *testing.T) {
	srv, _ := gzipEnv(t, HandlerOptions{Gzip: true})

	// 1. The wire really is compressed for a gzip-accepting client, with
	// the Vary contract for shared caches.
	resp := rawGet(t, srv.URL+"/v1/pull?ca=CA1&from=0", "gzip", nil)
	defer resp.Body.Close()
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", ce)
	}
	if vary := resp.Header.Get("Vary"); vary != "Accept-Encoding" {
		t.Fatalf("Vary = %q, want Accept-Encoding", vary)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}

	// 2. An identity client gets the same bytes uncompressed — and still
	// the Vary header, so a shared cache keys the two apart.
	resp2 := rawGet(t, srv.URL+"/v1/pull?ca=CA1&from=0", "identity", nil)
	defer resp2.Body.Close()
	if ce := resp2.Header.Get("Content-Encoding"); ce != "" {
		t.Fatalf("identity client got Content-Encoding %q", ce)
	}
	if vary := resp2.Header.Get("Vary"); vary != "Accept-Encoding" {
		t.Fatalf("identity Vary = %q, want Accept-Encoding", vary)
	}
	identity, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compressed, identity) {
		t.Fatal("gzip and identity representations decode to different bytes")
	}

	// 3. The HTTP client round-trips transparently (Go's transport
	// advertises gzip and decompresses): the decoded response is intact.
	client := &HTTPClient{BaseURL: srv.URL}
	pr, err := client.Pull("CA1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Issuance == nil || len(pr.Issuance.Serials) != 400 || pr.Issuance.Root.N != 400 {
		t.Fatalf("pull through gzip: %d serials", len(pr.Issuance.Serials))
	}
	// Origins no longer ship batch bounds.
	if pr.Bounds != nil {
		t.Fatalf("pull through gzip: %d bounds, want none", len(pr.Bounds))
	}
}

func TestGzipOffByDefault(t *testing.T) {
	srv, _ := gzipEnv(t, HandlerOptions{})
	resp := rawGet(t, srv.URL+"/v1/pull?ca=CA1&from=0", "gzip", nil)
	defer resp.Body.Close()
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		t.Fatalf("compression off by default, got Content-Encoding %q", ce)
	}
	if vary := resp.Header.Get("Vary"); vary != "" {
		t.Fatalf("Vary = %q with compression off", vary)
	}
}

func TestGzipSkipsSmallBodies(t *testing.T) {
	srv, _ := gzipEnv(t, HandlerOptions{Gzip: true})
	// A current puller's suffix is a few dozen bytes: far below the
	// threshold, served identity even to a gzip-accepting client.
	resp := rawGet(t, srv.URL+"/v1/pull?ca=CA1&from=400", "gzip", nil)
	defer resp.Body.Close()
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		t.Fatalf("small body compressed: Content-Encoding %q", ce)
	}
	if vary := resp.Header.Get("Vary"); vary != "Accept-Encoding" {
		t.Fatalf("small-body Vary = %q: the representation still depends on Accept-Encoding", vary)
	}
	// q=0 disables gzip even for large bodies.
	resp2 := rawGet(t, srv.URL+"/v1/pull?ca=CA1&from=0", "gzip;q=0", nil)
	defer resp2.Body.Close()
	if ce := resp2.Header.Get("Content-Encoding"); ce != "" {
		t.Fatalf("gzip;q=0 still compressed: %q", ce)
	}
}

// TestGzipRootPerEncodingETag forces roots over the threshold (GzipMinSize
// 1) to pin the per-encoding validator story: the gzip representation
// carries a "-gzip" ETag variant, and conditional requests revalidate with
// either variant.
func TestGzipRootPerEncodingETag(t *testing.T) {
	srv, _ := gzipEnv(t, HandlerOptions{Gzip: true, GzipMinSize: 1})

	resp := rawGet(t, srv.URL+"/v1/root?ca=CA1", "gzip", nil)
	resp.Body.Close()
	gzETag := resp.Header.Get("ETag")
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatal("root not compressed at GzipMinSize=1")
	}
	if !bytes.HasSuffix([]byte(gzETag), []byte(`-gzip"`)) {
		t.Fatalf("gzip representation ETag = %q, want -gzip variant", gzETag)
	}

	resp2 := rawGet(t, srv.URL+"/v1/root?ca=CA1", "identity", nil)
	resp2.Body.Close()
	idETag := resp2.Header.Get("ETag")
	if idETag == gzETag {
		t.Fatal("identity and gzip representations share a strong ETag")
	}

	// Revalidation works with either representation's validator, from
	// either kind of client.
	for _, tc := range []struct{ inm, ae string }{
		{gzETag, "gzip"}, {idETag, "gzip"}, {gzETag, "identity"}, {idETag, "identity"},
	} {
		resp3 := rawGet(t, srv.URL+"/v1/root?ca=CA1", tc.ae, http.Header{"If-None-Match": {tc.inm}})
		resp3.Body.Close()
		if resp3.StatusCode != http.StatusNotModified {
			t.Errorf("INM %q with Accept-Encoding %q: status %d, want 304", tc.inm, tc.ae, resp3.StatusCode)
		}
	}

	// The HTTPClient's validator cache keeps working through compression:
	// two LatestRoot calls return byte-identical roots (the second via a
	// 304 on the variant validator).
	client := &HTTPClient{BaseURL: srv.URL}
	r1, err := client.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := client.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Equal(r2) {
		t.Fatal("conditional re-fetch through gzip returned a different root")
	}
}
