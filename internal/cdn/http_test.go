package cdn

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ritm/internal/dictionary"
)

// TestStatusForMapping is the server-side half of the error contract:
// every sentinel (bare, wrapped once, wrapped repeatedly — as the edge
// chain does) maps to its status code by identity, and messages that
// merely MENTION a sentinel's text do not.
func TestStatusForMapping(t *testing.T) {
	tests := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, http.StatusOK},
		{"unknown ca", ErrUnknownCA, http.StatusNotFound},
		{"unknown ca wrapped", fmt.Errorf("%w: CA9", ErrUnknownCA), http.StatusNotFound},
		{"unknown ca double-wrapped", fmt.Errorf("edge pull: %w", fmt.Errorf("%w: CA9", ErrUnknownCA)), http.StatusNotFound},
		{"ahead", ErrAhead, http.StatusConflict},
		{"ahead wrapped", fmt.Errorf("edge pull: %w", ErrAhead), http.StatusConflict},
		{"untyped", errors.New("disk on fire"), http.StatusInternalServerError},
		// The seed's strings.Contains mapping would have classified these
		// two as 404/409; the typed mapping must not.
		{"mentions unknown text", errors.New("log: saw cdn: unknown CA once"), http.StatusInternalServerError},
		{"mentions ahead text", errors.New("note: cdn: requested count ahead of origin"), http.StatusInternalServerError},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := statusFor(tt.err); got != tt.want {
				t.Errorf("statusFor(%v) = %d, want %d", tt.err, got, tt.want)
			}
		})
	}
}

// TestErrorHeaderRoundTrip is the client-side half: for every (status,
// X-RITM-Error) combination a server can emit, the client reconstructs
// exactly the right sentinel — the header wins over the status code, and
// unknown header values fall back to the status mapping.
func TestErrorHeaderRoundTrip(t *testing.T) {
	tests := []struct {
		name   string
		status int
		header string // X-RITM-Error value ("" = absent)
		want   error  // sentinel errors.Is target (nil = untyped error expected)
	}{
		{"header unknown-ca", http.StatusNotFound, "unknown-ca", ErrUnknownCA},
		{"header ahead", http.StatusConflict, "ahead", ErrAhead},
		// A proxy rewrote the status but the header survives: typed
		// mapping is transport-proof.
		{"header beats status", http.StatusBadGateway, "unknown-ca", ErrUnknownCA},
		{"header ahead beats 404", http.StatusNotFound, "ahead", ErrAhead},
		// Legacy server: status-code fallback.
		{"bare 404", http.StatusNotFound, "", ErrUnknownCA},
		{"bare 409", http.StatusConflict, "", ErrAhead},
		// Unknown header value: fall back to the status code.
		{"unknown header value", http.StatusNotFound, "gibberish", ErrUnknownCA},
		{"untyped 500", http.StatusInternalServerError, "", nil},
		{"untyped 502", http.StatusBadGateway, "gibberish", nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tt.header != "" {
					w.Header().Set(errorHeader, tt.header)
				}
				http.Error(w, "detail text", tt.status)
			}))
			defer srv.Close()
			client := &HTTPClient{BaseURL: srv.URL}
			_, err := client.Pull("CA1", 0)
			if err == nil {
				t.Fatal("error response decoded as success")
			}
			if tt.want != nil {
				if !errors.Is(err, tt.want) {
					t.Errorf("err = %v, want errors.Is(%v)", err, tt.want)
				}
			} else {
				if errors.Is(err, ErrUnknownCA) || errors.Is(err, ErrAhead) {
					t.Errorf("untyped response mapped to a sentinel: %v", err)
				}
			}
		})
	}
}

// TestHandlerEmitsErrorHeader asserts the server names the sentinel out
// of band on real error paths, including through an edge tier.
func TestHandlerEmitsErrorHeader(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 2)
	for _, origin := range map[string]Origin{
		"distribution point": tc.dp,
		"edge":               NewEdgeServer(tc.dp, time.Minute, tc.clock.now),
	} {
		srv := httptest.NewServer(NewHandler(origin, HandlerOptions{}))
		defer srv.Close()

		resp, err := http.Get(srv.URL + "/v1/pull?ca=CA9&from=0")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(errorHeader); got != errCodeUnknownCA {
			t.Errorf("unknown-CA pull: %s = %q, want %q", errorHeader, got, errCodeUnknownCA)
		}
		resp, err = http.Get(srv.URL + "/v1/pull?ca=CA1&from=99")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(errorHeader); got != errCodeAhead {
			t.Errorf("ahead pull: %s = %q, want %q", errorHeader, got, errCodeAhead)
		}
		resp, err = http.Get(srv.URL + "/v1/root?ca=CA9")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(errorHeader); got != errCodeUnknownCA {
			t.Errorf("unknown-CA root: %s = %q, want %q", errorHeader, got, errCodeUnknownCA)
		}
	}
}

// TestHTTPCacheHeaders: a pull served by an edge carries Cache-Control:
// max-age equal to the edge TTL and an Age that grows with the entry, so
// a front CDN expires the bytes exactly when the edge would.
func TestHTTPCacheHeaders(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 2)
	const ttl = 30 * time.Second
	edge := NewEdgeServer(tc.dp, ttl, tc.clock.now)
	srv := httptest.NewServer(NewHandler(edge, HandlerOptions{}))
	defer srv.Close()

	get := func() *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/pull?ca=CA1&from=0")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Miss: full lifetime ahead, zero age.
	resp := get()
	if got := resp.Header.Get("Cache-Control"); got != "max-age=30" {
		t.Errorf("miss Cache-Control = %q, want max-age=30", got)
	}
	if got := resp.Header.Get("Age"); got != "0" {
		t.Errorf("miss Age = %q, want 0", got)
	}

	// Hit 12 virtual seconds later: same lifetime, aged entry.
	tc.clock.advance(12 * time.Second)
	resp = get()
	if got := resp.Header.Get("Cache-Control"); got != "max-age=30" {
		t.Errorf("hit Cache-Control = %q, want max-age=30", got)
	}
	if got := resp.Header.Get("Age"); got != "12" {
		t.Errorf("hit Age = %q, want 12", got)
	}

	// Fractional ages round UP: the downstream window (max-age − Age)
	// must never exceed the entry's true remaining TTL.
	tc.clock.advance(500 * time.Millisecond)
	resp = get()
	if got := resp.Header.Get("Age"); got != "13" {
		t.Errorf("fractional-age Age = %q, want 13 (ceiled)", got)
	}

	// An uncached origin must forbid downstream caching rather than let a
	// front CDN invent a TTL the deployment disabled.
	uncached := httptest.NewServer(NewHandler(NewEdgeServer(tc.dp, 0, tc.clock.now), HandlerOptions{}))
	defer uncached.Close()
	resp2, err := http.Get(uncached.URL + "/v1/pull?ca=CA1&from=0")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("Cache-Control"); got != "no-store" {
		t.Errorf("TTL=0 Cache-Control = %q, want no-store", got)
	}

	// The distribution point itself (no cache metadata) sets no cache
	// headers: it makes no freshness promise for others to inherit.
	direct := httptest.NewServer(NewHandler(tc.dp, HandlerOptions{}))
	defer direct.Close()
	resp3, err := http.Get(direct.URL + "/v1/pull?ca=CA1&from=0")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("Cache-Control"); got != "" {
		t.Errorf("origin Cache-Control = %q, want unset", got)
	}
}

// TestRootConditionalRequests: /v1/root serves a strong ETag; a matching
// If-None-Match returns 304 with no body; the HTTPClient's re-fetch after
// a 304 yields a byte-identical root; and a root rotation (new content)
// changes the ETag and re-downloads.
func TestRootConditionalRequests(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 3)
	srv := httptest.NewServer(NewHandler(tc.dp, HandlerOptions{}))
	defer srv.Close()

	// Raw HTTP level: ETag + 304 with empty body.
	resp, err := http.Get(srv.URL + "/v1/root?ca=CA1")
	if err != nil {
		t.Fatal(err)
	}
	firstBody, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" || etag[0] != '"' {
		t.Fatalf("ETag = %q, want a quoted strong validator", etag)
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/root?ca=CA1", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	notModifiedBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional re-fetch: status %d, want 304", resp.StatusCode)
	}
	if len(notModifiedBody) != 0 {
		t.Errorf("304 carried %d body bytes", len(notModifiedBody))
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Errorf("304 ETag = %q, want %q", got, etag)
	}

	// A stale validator (or a list containing only stale ones) re-sends.
	req.Header.Set("If-None-Match", `"deadbeef", "cafebabe"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("mismatched If-None-Match: status %d, want 200", resp.StatusCode)
	}
	// A list containing the current validator (and the wildcard) matches.
	for _, inm := range []string{`"deadbeef", ` + etag, "*"} {
		req.Header.Set("If-None-Match", inm)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", inm, resp.StatusCode)
		}
	}

	// Client level: the second LatestRoot goes conditional and the served
	// root is byte-identical to the first.
	client := &HTTPClient{BaseURL: srv.URL}
	root1, err := client.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	root2, err := client.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if string(root1.Encode()) != string(root2.Encode()) {
		t.Error("re-fetched root is not byte-identical to the cached one")
	}
	if string(root2.Encode()) != string(firstBody) {
		t.Error("root after 304 differs from the originally served bytes")
	}

	// The dictionary advances: new root, new ETag, full re-download —
	// the validator must never serve a stale root as fresh.
	tc.revoke(t, 2)
	root3, err := client.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if root3.N != 5 {
		t.Errorf("root after advance: N = %d, want 5", root3.N)
	}
	if root3.Equal(root1) {
		t.Error("client kept serving the superseded root")
	}
	// And the new root is now the cached validator.
	root4, err := client.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if !root4.Equal(root3) {
		t.Error("post-rotation conditional fetch diverged")
	}
}

// TestRootLastModifiedFallback is the table-driven contract for the
// weak-validator fallback on /v1/root: Last-Modified is the root's signing
// time, If-Modified-Since alone revalidates to 304, and If-None-Match —
// when present — takes precedence per RFC 9110 §13.1.3.
func TestRootLastModifiedFallback(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 3)
	srv := httptest.NewServer(NewHandler(tc.dp, HandlerOptions{}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/root?ca=CA1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	lm := resp.Header.Get("Last-Modified")
	etag := resp.Header.Get("ETag")
	if lm == "" {
		t.Fatal("no Last-Modified on /v1/root")
	}
	signedAt, err := http.ParseTime(lm)
	if err != nil {
		t.Fatalf("unparsable Last-Modified %q: %v", lm, err)
	}
	root, err := tc.dp.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if got := time.Unix(root.Time, 0).UTC(); !got.Equal(signedAt) {
		t.Errorf("Last-Modified = %v, want signing time %v", signedAt, got)
	}

	for _, tt := range []struct {
		name       string
		inm, ims   string
		wantStatus int
	}{
		{"ims exact match", "", lm, http.StatusNotModified},
		{"ims after signing", "", signedAt.Add(time.Hour).Format(http.TimeFormat), http.StatusNotModified},
		{"ims before signing", "", signedAt.Add(-time.Hour).Format(http.TimeFormat), http.StatusOK},
		{"ims unparsable", "", "half past never", http.StatusOK},
		{"inm match wins over stale ims", etag, signedAt.Add(-time.Hour).Format(http.TimeFormat), http.StatusNotModified},
		{"inm mismatch ignores fresh ims", `"deadbeef"`, lm, http.StatusOK},
	} {
		t.Run(tt.name, func(t *testing.T) {
			req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/root?ca=CA1", nil)
			if tt.inm != "" {
				req.Header.Set("If-None-Match", tt.inm)
			}
			if tt.ims != "" {
				req.Header.Set("If-Modified-Since", tt.ims)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tt.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tt.wantStatus)
			}
			if resp.StatusCode == http.StatusNotModified && len(body) != 0 {
				t.Errorf("304 carried %d body bytes", len(body))
			}
			// Both validators ride along on every response, including 304s,
			// so downstream caches can refresh whichever they kept.
			if got := resp.Header.Get("Last-Modified"); got != lm {
				t.Errorf("Last-Modified = %q, want %q", got, lm)
			}
		})
	}
}

// fixedRootOrigin serves one canned signed root; the open-second test
// needs a root whose signing time is the wall clock's present/future,
// which the virtual-clock fixtures cannot produce.
type fixedRootOrigin struct{ root *dictionary.SignedRoot }

func (o fixedRootOrigin) Pull(dictionary.CAID, uint64) (*PullResponse, error) {
	return nil, ErrUnknownCA
}
func (o fixedRootOrigin) LatestRoot(dictionary.CAID) (*dictionary.SignedRoot, error) {
	return o.root, nil
}
func (o fixedRootOrigin) CAs() ([]dictionary.CAID, error) {
	return []dictionary.CAID{o.root.CA}, nil
}

// TestRootIMSIgnoredWhileSigningSecondOpen: a Last-Modified date is not a
// usable validator until its second has elapsed (the CA may re-sign within
// it without the date moving), so an If-Modified-Since match against a
// just-signed root must still return the full body.
func TestRootIMSIgnoredWhileSigningSecondOpen(t *testing.T) {
	for _, tt := range []struct {
		name       string
		signedAt   int64
		wantStatus int
	}{
		{"signing second still open", time.Now().Unix() + 3, http.StatusOK},
		{"signing second elapsed", time.Now().Unix() - 10, http.StatusNotModified},
	} {
		t.Run(tt.name, func(t *testing.T) {
			root := &dictionary.SignedRoot{CA: "CA1", N: 1, Time: tt.signedAt, DeltaSecs: 10}
			srv := httptest.NewServer(NewHandler(fixedRootOrigin{root: root}, HandlerOptions{}))
			defer srv.Close()
			req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/root?ca=CA1", nil)
			req.Header.Set("If-Modified-Since", time.Unix(tt.signedAt, 0).UTC().Format(http.TimeFormat))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tt.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tt.wantStatus)
			}
		})
	}
}

// etagStripper models a cache/middlebox that drops ETag headers (a
// documented real-CDN behavior the Last-Modified fallback exists for).
type etagStripper struct {
	http.ResponseWriter
	wroteHeader bool
}

func (w *etagStripper) WriteHeader(code int) {
	if !w.wroteHeader {
		w.Header().Del("ETag")
		w.wroteHeader = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *etagStripper) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// TestRootConditionalThroughETagStrippingCache: with ETags stripped in
// transit, the HTTPClient falls back to If-Modified-Since and still gets
// 304s with byte-identical roots — and still re-downloads after a genuine
// rotation.
func TestRootConditionalThroughETagStrippingCache(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 2)
	inner := NewHandler(tc.dp, HandlerOptions{})
	var mu sync.Mutex
	var sawIMS, sawINM bool
	var notModified int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		sawIMS = sawIMS || r.Header.Get("If-Modified-Since") != ""
		sawINM = sawINM || r.Header.Get("If-None-Match") != ""
		mu.Unlock()
		rec := httptest.NewRecorder()
		inner.ServeHTTP(&etagStripper{ResponseWriter: rec}, r)
		mu.Lock()
		if rec.Code == http.StatusNotModified {
			notModified++
		}
		mu.Unlock()
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer srv.Close()

	client := &HTTPClient{BaseURL: srv.URL}
	root1, err := client.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	root2, err := client.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	ims, inm, nm := sawIMS, sawINM, notModified
	mu.Unlock()
	if inm {
		t.Error("client sent If-None-Match despite the stripped ETag")
	}
	if !ims {
		t.Error("client never fell back to If-Modified-Since")
	}
	if nm != 1 {
		t.Errorf("server produced %d 304s, want 1", nm)
	}
	if string(root1.Encode()) != string(root2.Encode()) {
		t.Error("root after IMS 304 is not byte-identical")
	}

	// A rotation in a later second re-downloads: Last-Modified moves
	// forward, the stale date no longer matches.
	tc.clock.advance(2 * time.Second)
	tc.revoke(t, 2)
	root3, err := client.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if root3.N != 4 {
		t.Errorf("post-rotation root N = %d, want 4", root3.N)
	}
	if root3.Equal(root1) {
		t.Error("client kept the superseded root through the IMS fallback")
	}
}

// TestRootConditionalThroughEdgeChain: the conditional-request contract
// survives an EdgeServer between client and origin (edges forward roots
// uncached, so the validator is always the origin's current one).
func TestRootConditionalThroughEdgeChain(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 1)
	edge := NewEdgeServer(tc.dp, time.Minute, tc.clock.now)
	srv := httptest.NewServer(NewHandler(edge, HandlerOptions{}))
	defer srv.Close()
	client := &HTTPClient{BaseURL: srv.URL}
	r1, err := client.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := client.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Equal(r2) || string(r1.Encode()) != string(r2.Encode()) {
		t.Error("root changed across conditional re-fetch through an edge")
	}
}

// TestHTTPClientBodyOverflow: a response body larger than the wire cap is
// an explicit error — the seed silently truncated at the LimitReader cap
// and handed the decoder a cut-off buffer.
func TestHTTPClientBodyOverflow(t *testing.T) {
	// Shrink the cap for the test: the detection logic is identical at
	// 64 KiB and 256 MiB, and the latter means streaming 256 MiB per run.
	defer func(orig int) { bodyLimit = orig }(bodyLimit)
	bodyLimit = 1 << 16

	oversized := make([]byte, bodyLimit+1)
	exact := make([]byte, bodyLimit)
	var serve []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(serve)))
		w.Write(serve)
	}))
	defer srv.Close()
	client := &HTTPClient{BaseURL: srv.URL}

	serve = oversized
	_, err := client.Pull("CA1", 0)
	if err == nil {
		t.Fatal("oversized body decoded as a pull response")
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("overflow error = %v, want an explicit size error", err)
	}
	if _, err := client.LatestRoot("CA1"); err == nil ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Errorf("root overflow error = %v, want an explicit size error", err)
	}

	// Exactly at the cap is NOT an overflow: it reaches the decoder (and
	// fails there as garbage, not as a size error).
	serve = exact
	if _, err := client.Pull("CA1", 0); err == nil {
		t.Error("64 KiB of zeros decoded as a pull response")
	} else if strings.Contains(err.Error(), "exceeds") {
		t.Errorf("at-cap body misreported as overflow: %v", err)
	}
}

// TestHTTPClientTruncatedBody: a body cut mid-encoding (a dying proxy, a
// partial cache fill) must fail decoding loudly in both Pull and
// LatestRoot.
func TestHTTPClientTruncatedBody(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 50)
	resp, err := tc.dp.Pull("CA1", 0)
	if err != nil {
		t.Fatal(err)
	}
	full := resp.Encoded()
	root, err := tc.dp.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	fullRoot := root.Encode()

	for _, cut := range []int{1, len(full) / 2, len(full) - 1} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(full[:cut])
		}))
		client := &HTTPClient{BaseURL: srv.URL}
		if _, err := client.Pull("CA1", 0); err == nil {
			t.Errorf("pull body truncated at %d/%d decoded cleanly", cut, len(full))
		}
		srv.Close()
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(fullRoot[:len(fullRoot)-3])
	}))
	defer srv.Close()
	client := &HTTPClient{BaseURL: srv.URL}
	if _, err := client.LatestRoot("CA1"); err == nil {
		t.Error("truncated root decoded cleanly")
	}
}

// TestHTTPNegativeCacheEndToEnd: the negative cache speaks HTTP too — an
// edge serving over the transport answers an unknown-CA storm locally,
// and the client still sees the typed sentinel.
func TestHTTPNegativeCacheEndToEnd(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 1)
	edge := NewEdgeServer(tc.dp, time.Minute, tc.clock.now)
	edge.SetNegativeTTL(30 * time.Second)
	srv := httptest.NewServer(NewHandler(edge, HandlerOptions{}))
	defer srv.Close()
	client := &HTTPClient{BaseURL: srv.URL}

	before := tc.dp.Stats().Pulls
	for i := 0; i < 20; i++ {
		if _, err := client.Pull("CA9", 0); !errors.Is(err, ErrUnknownCA) {
			t.Fatalf("pull %d: err = %v, want ErrUnknownCA", i, err)
		}
	}
	if got := tc.dp.Stats().Pulls - before; got > 1 {
		t.Errorf("origin saw %d unknown-CA pulls through HTTP, want ≤ 1", got)
	}
	if st := edge.Stats(); st.NegativeHits < 19 {
		t.Errorf("NegativeHits = %d, want ≥ 19", st.NegativeHits)
	}
}

// TestRootCacheControlNoCache: signed roots must never be positively
// cached by a front CDN (stale roots → false equivocation alarms); the
// handler forbids it explicitly while still allowing ETag revalidation.
func TestRootCacheControlNoCache(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 1)
	srv := httptest.NewServer(NewHandler(tc.dp, HandlerOptions{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/root?ca=CA1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Cache-Control"); got != "no-cache" {
		t.Errorf("/v1/root Cache-Control = %q, want no-cache", got)
	}
}

// TestHTTPNegativeErrorExportsTTL: an edge-served unknown-CA error
// carries the negative TTL as max-age, so a front CDN absorbs the storm
// for the same window the edge would.
func TestHTTPNegativeErrorExportsTTL(t *testing.T) {
	tc := newTestCA(t, "CA1")
	edge := NewEdgeServer(tc.dp, time.Minute, tc.clock.now)
	edge.SetNegativeTTL(30 * time.Second)
	srv := httptest.NewServer(NewHandler(edge, HandlerOptions{}))
	defer srv.Close()

	for i := 0; i < 2; i++ { // miss, then negative hit: both export it
		resp, err := http.Get(srv.URL + "/v1/pull?ca=CA9&from=0")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("Cache-Control"); got != "max-age=30" {
			t.Errorf("request %d: unknown-CA Cache-Control = %q, want max-age=30", i, got)
		}
	}
	// /v1/root for an unknown CA exports the same window: the edge
	// negative-caches both endpoints, so the front CDN must too.
	resp, err := http.Get(srv.URL + "/v1/root?ca=CA9")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Cache-Control"); got != "max-age=30" {
		t.Errorf("unknown-CA root Cache-Control = %q, want max-age=30", got)
	}

	// With negative caching off, errors carry no freshness promise.
	bare := httptest.NewServer(NewHandler(NewEdgeServer(tc.dp, time.Minute, tc.clock.now), HandlerOptions{}))
	defer bare.Close()
	resp, err = http.Get(bare.URL + "/v1/pull?ca=CA9&from=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Cache-Control"); got != "" {
		t.Errorf("negative-caching-off Cache-Control = %q, want unset", got)
	}
}
