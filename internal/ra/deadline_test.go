package ra

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ritm/internal/ca"
	"ritm/internal/cdn"
	"ritm/internal/cert"
)

// stallingHandler serves inner until stall is set; from then on it takes
// every request and writes nothing, until the client gives up on it.
type stallingHandler struct {
	inner   http.Handler
	stall   atomic.Bool
	stalled atomic.Int64 // requests taken while stalling
}

func (h *stallingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.stall.Load() {
		h.stalled.Add(1)
		<-r.Context().Done()
		return
	}
	h.inner.ServeHTTP(w, r)
}

// TestFetcherShutdownBoundedByHungHTTPOrigin: while the only origin of a
// CA takes pulls and never answers, Shutdown returns within one attempt
// deadline — one ∆ of the CA's root — instead of waiting on the pull for
// as long as the origin hangs.
func TestFetcherShutdownBoundedByHungHTTPOrigin(t *testing.T) {
	const delta = time.Second
	dp := cdn.NewDistributionPoint(nil)
	authority, err := ca.New(ca.Config{ID: "HungCA", Delta: delta, Publisher: dp})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.RegisterCA("HungCA", authority.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := authority.PublishRoot(); err != nil {
		t.Fatal(err)
	}
	origin := &stallingHandler{inner: cdn.NewHandler(dp, cdn.HandlerOptions{})}
	srv := httptest.NewServer(origin)
	defer srv.Close()
	agent, err := New(Config{
		Roots:  []*cert.Certificate{authority.RootCertificate()},
		Origin: &cdn.HTTPClient{BaseURL: srv.URL},
		Delta:  delta,
	})
	if err != nil {
		t.Fatal(err)
	}
	pullEvery(agent, 20*time.Millisecond)
	f := agent.StartFetcher(FetcherOptions{})
	waitFor(t, 2*time.Second, func() bool {
		_, err := agent.Store().LatestRoot("HungCA")
		return err == nil
	}, "first sync")

	origin.stall.Store(true)
	waitFor(t, 2*time.Second, func() bool { return origin.stalled.Load() > 0 }, "a pull in flight on the hung origin")
	start := time.Now()
	f.Shutdown()
	if elapsed := time.Since(start); elapsed > delta+delta/2 {
		t.Errorf("Shutdown took %v while the origin hangs, want within one deadline (∆ = %v)", elapsed, delta)
	}
}
