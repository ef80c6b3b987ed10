package cdn

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// Retry suite for HTTPClient: transient transport failures are retried
// with bounded jittered backoff; typed protocol answers are authoritative
// and must not be retried (an unknown CA does not become known by asking
// three times, and retrying ErrAhead would just hammer a behind origin).

func TestHTTPClientRetriesTransientFailures(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 5)
	real := NewHandler(tc.dp, HandlerOptions{})
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) <= 2 {
			http.Error(w, "bad gateway", http.StatusBadGateway)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer srv.Close()

	client := &HTTPClient{BaseURL: srv.URL, RetryBackoff: time.Millisecond}
	resp, err := client.Pull("CA1", 0)
	if err != nil {
		t.Fatalf("pull through transient 502s: %v", err)
	}
	if len(resp.Issuance.Serials) != 5 {
		t.Fatalf("got %d serials, want 5", len(resp.Issuance.Serials))
	}
	if got := requests.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 failures + success)", got)
	}
}

func TestHTTPClientRetryBudgetExhausted(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	client := &HTTPClient{BaseURL: srv.URL, MaxAttempts: 2, RetryBackoff: time.Millisecond}
	if _, err := client.Pull("CA1", 0); err == nil {
		t.Fatal("pull through persistent 503s succeeded")
	}
	if got := requests.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want exactly MaxAttempts=2", got)
	}
}

func TestHTTPClientDoesNotRetryTypedErrors(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 5)
	real := NewHandler(tc.dp, HandlerOptions{})
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		real.ServeHTTP(w, r)
	}))
	defer srv.Close()
	client := &HTTPClient{BaseURL: srv.URL, RetryBackoff: time.Millisecond}

	// Unknown CA: one request, typed sentinel through.
	if _, err := client.Pull("GhostCA", 0); !errors.Is(err, ErrUnknownCA) {
		t.Fatalf("err = %v, want ErrUnknownCA", err)
	}
	if got := requests.Load(); got != 1 {
		t.Fatalf("unknown-CA pull cost %d requests, want 1", got)
	}

	// Ahead-of-origin: same — the RA's Resync owns this, not the retry loop.
	requests.Store(0)
	if _, err := client.Pull("CA1", 999); !errors.Is(err, ErrAhead) {
		t.Fatalf("err = %v, want ErrAhead", err)
	}
	if got := requests.Load(); got != 1 {
		t.Fatalf("ahead pull cost %d requests, want 1", got)
	}
}

func TestHTTPClientRetriesConnectionRefused(t *testing.T) {
	// A dead-then-alive server: bind a listener, kill it, and point the
	// client at the corpse — the retry loop must give up cleanly after
	// MaxAttempts rather than hang or panic.
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close()
	client := &HTTPClient{
		BaseURL:      srv.URL,
		Client:       &http.Client{Timeout: time.Second},
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
	}
	if _, err := client.Pull("CA1", 0); err == nil {
		t.Fatal("pull against dead server succeeded")
	}
}
