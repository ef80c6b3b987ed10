package cdn

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
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

// TestHTTPClientDeadlineFailsOverHungOrigin: a leader origin that stops
// answering — it accepts the pull and never writes — fails the attempt at
// one ∆ of the CA's root, which the client learned from the leader's last
// answer. The ring then demotes it and the follower serves, well inside
// 2∆, and the missed deadline is not retried against the hung leader.
func TestHTTPClientDeadlineFailsOverHungOrigin(t *testing.T) {
	const delta = time.Second
	now := time.Now().Unix()
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	auth, err := dictionary.NewAuthority(dictionary.AuthorityConfig{CA: "CA1", Signer: signer, Delta: delta}, now)
	if err != nil {
		t.Fatal(err)
	}
	dp := NewDistributionPoint(nil)
	if err := dp.RegisterCA("CA1", signer.Public()); err != nil {
		t.Fatal(err)
	}
	msg, err := auth.Insert(serial.NewGenerator(7, nil).NextN(5), now)
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.PublishIssuance(msg); err != nil {
		t.Fatal(err)
	}

	leader := &stallingHandler{inner: NewHandler(dp, HandlerOptions{})}
	leaderSrv := httptest.NewServer(leader)
	defer leaderSrv.Close()
	followerSrv := httptest.NewServer(NewHandler(dp, HandlerOptions{}))
	defer followerSrv.Close()
	so, err := NewShardedOrigin([][]Origin{{&HTTPClient{BaseURL: leaderSrv.URL}, &HTTPClient{BaseURL: followerSrv.URL}}}, ShardedOriginOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := so.Pull("CA1", 0); err != nil {
		t.Fatal(err)
	}

	leader.stall.Store(true)
	start := time.Now()
	resp, err := so.Pull("CA1", 0)
	elapsed := time.Since(start)
	if err != nil || resp.Issuance == nil || resp.Issuance.Root.N != 5 {
		t.Fatalf("pull with the leader hung: %+v, %v", resp, err)
	}
	if elapsed > 2*delta {
		t.Errorf("the follower served after %v, want within 2∆ = %v", elapsed, 2*delta)
	}
	if n := leader.stalled.Load(); n != 1 {
		t.Errorf("the hung leader took %d attempts, want 1: a missed deadline is not retried", n)
	}
	if st := so.Stats().PerShard[0]; st.Failovers != 1 || st.Preferred != 1 {
		t.Errorf("stats = %+v, want one failover to the follower", st)
	}
}
