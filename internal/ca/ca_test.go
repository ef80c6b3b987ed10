package ca

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ritm/internal/dictionary"
	"ritm/internal/serial"
)

// capturePublisher records everything a CA publishes.
type capturePublisher struct {
	mu        sync.Mutex
	issuances []*dictionary.IssuanceMessage
	freshness []*dictionary.FreshnessStatement
	failWith  error
}

func (p *capturePublisher) PublishIssuance(msg *dictionary.IssuanceMessage) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failWith != nil {
		return p.failWith
	}
	p.issuances = append(p.issuances, msg)
	return nil
}

func (p *capturePublisher) PublishFreshness(st *dictionary.FreshnessStatement) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failWith != nil {
		return p.failWith
	}
	p.freshness = append(p.freshness, st)
	return nil
}

func (p *capturePublisher) counts() (int, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.issuances), len(p.freshness)
}

func newTestCA(t *testing.T, pub Publisher) *CA {
	t.Helper()
	c, err := New(Config{ID: "TestCA", Delta: 10 * time.Second, Publisher: pub})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("CA without ID accepted")
	}
	// Defaults are applied.
	c, err := New(Config{ID: "X"})
	if err != nil {
		t.Fatal(err)
	}
	if c.delta != 10*time.Second {
		t.Errorf("default ∆ = %v", c.delta)
	}
}

func TestRootCertificateSelfSigned(t *testing.T) {
	c := newTestCA(t, nil)
	root := c.RootCertificate()
	if !root.IsCA {
		t.Error("root is not a CA certificate")
	}
	if err := root.CheckSignature(root.PublicKey); err != nil {
		t.Errorf("root not self-signed: %v", err)
	}
	if root.DeltaSecs != 10 {
		t.Errorf("root ∆ = %ds (the §VIII local-∆ field)", root.DeltaSecs)
	}
}

func TestIssueServerCertificate(t *testing.T) {
	c := newTestCA(t, nil)
	key := c.PublicKey() // any 32-byte key works as a subject key
	crt, err := c.IssueServerCertificate("site.example", key)
	if err != nil {
		t.Fatal(err)
	}
	if crt.Subject != "site.example" || crt.IsCA {
		t.Errorf("issued certificate: %+v", crt)
	}
	if err := crt.CheckSignature(c.PublicKey()); err != nil {
		t.Errorf("issued certificate signature: %v", err)
	}
	// Serials are unique across issuance.
	crt2, err := c.IssueServerCertificate("other.example", key)
	if err != nil {
		t.Fatal(err)
	}
	if crt.SerialNumber.Equal(crt2.SerialNumber) {
		t.Error("duplicate serial issued")
	}
}

func TestRevokePublishesAndMarks(t *testing.T) {
	pub := &capturePublisher{}
	c := newTestCA(t, pub)
	crt, err := c.IssueServerCertificate("site.example", c.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Authority().Count(); n != 0 {
		t.Fatalf("fresh CA already holds %d revocations", n)
	}
	msg, err := c.RevokeCertificate(crt)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Authority().Prove(crt.SerialNumber, time.Now().Unix()); err != nil || st.Proof.Kind != dictionary.ProofPresence {
		t.Errorf("revocation not recorded: %v", err)
	}
	if msg.Root.N != 1 || len(msg.Serials) != 1 {
		t.Errorf("issuance message: n=%d, %d serials", msg.Root.N, len(msg.Serials))
	}
	if ni, _ := pub.counts(); ni != 1 {
		t.Errorf("issuances published = %d", ni)
	}

	// Double revocation fails and publisher errors surface.
	if _, err := c.Revoke(crt.SerialNumber); err == nil {
		t.Error("double revocation accepted")
	}
	pub.failWith = errors.New("cdn down")
	if _, err := c.Revoke(serial.FromUint64(42)); err == nil {
		t.Error("publisher failure swallowed")
	}
}

func TestPublishRefreshEmitsFreshness(t *testing.T) {
	pub := &capturePublisher{}
	c := newTestCA(t, pub)
	if err := c.PublishRoot(); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishRefresh(); err != nil {
		t.Fatal(err)
	}
	ni, nf := pub.counts()
	if ni != 1 || nf != 1 {
		t.Errorf("published %d issuances, %d freshness; want 1 and 1", ni, nf)
	}
}

// TestRefresherLoop drives the refresher through its timer on a virtual
// clock: every statement leaves at a period boundary t + p∆ of the root
// current when it was armed, and after a revocation re-signs the root at
// t = now the next re-arm follows the new grid.
func TestRefresherLoop(t *testing.T) {
	var mu sync.Mutex
	clock := time.Unix(1_400_000_000, 0)
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	set := func(to time.Time) { mu.Lock(); clock = to; mu.Unlock() }
	pub := &capturePublisher{}
	c, err := New(Config{ID: "TestCA", Delta: 10 * time.Second, Publisher: pub, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	dues := make(chan time.Time)
	fire := make(chan struct{})
	c.wait = func(due time.Time, stop <-chan struct{}) bool {
		select {
		case dues <- due:
		case <-stop:
			return false
		}
		select {
		case <-fire:
			return true
		case <-stop:
			return false
		}
	}
	r := c.StartRefresher(func(err error) { t.Errorf("refresh: %v", err) })
	defer r.Shutdown()
	// next receives the instant the refresher armed for, and fires it
	// there after checking it.
	next := func(want time.Time) {
		t.Helper()
		due := <-dues
		if !due.Equal(want) {
			t.Fatalf("armed for %v, want %v", due, want)
		}
		set(due)
		fire <- struct{}{}
	}
	base := clock
	next(base.Add(10 * time.Second)) // the start-up publish, then t + ∆
	next(base.Add(20 * time.Second))
	// A revocation at t + 23.4 s re-signs at t' = t + 23 while the timer
	// is armed for t + 30; that publish goes, and the re-arm is t' + ∆.
	<-dues
	set(base.Add(23400 * time.Millisecond))
	if _, err := c.Revoke(serial.FromUint64(7)); err != nil {
		t.Fatal(err)
	}
	set(base.Add(30 * time.Second))
	fire <- struct{}{}
	next(base.Add(33 * time.Second))
	next(base.Add(43 * time.Second))
	<-dues
	// Start-up, t + 10, 20, 30, then t' + 10 and t' + 20.
	if _, nf := pub.counts(); nf != 6 {
		t.Fatalf("refresher published %d statements, want 6", nf)
	}
	want, err := c.Authority().Statement(base.Add(43 * time.Second).Unix())
	if err != nil {
		t.Fatal(err)
	}
	pub.mu.Lock()
	defer pub.mu.Unlock()
	if last := pub.freshness[5]; !last.Value.Equal(want.Value) {
		t.Error("the statement published at t' + 2∆ is not the new root's period 2")
	}
}

// TestWaitUntilHoldsForTheClock: a timer that fires before the clock it
// was armed by reads due is re-armed, so the refresher never publishes
// early by its own Now (Period truncates to whole seconds).
func TestWaitUntilHoldsForTheClock(t *testing.T) {
	start := time.Now()
	// A clock running at half speed: every timer fires early by it.
	slow := func() time.Time { return start.Add(time.Since(start) / 2) }
	due := start.Add(40 * time.Millisecond)
	if !waitUntil(slow, due, make(chan struct{})) {
		t.Fatal("waitUntil reported stop")
	}
	if got := slow(); got.Before(due) {
		t.Errorf("returned at %v by the clock, before due %v", got.Sub(start), due.Sub(start))
	}
	stop := make(chan struct{})
	close(stop)
	if waitUntil(slow, time.Now().Add(time.Hour), stop) {
		t.Error("waitUntil ignored stop")
	}
}

func TestRefreshRotatesExhaustedChain(t *testing.T) {
	clock := time.Unix(1_400_000_000, 0)
	now := func() time.Time { return clock }
	pub := &capturePublisher{}
	c, err := New(Config{
		ID:          "TestCA",
		Delta:       time.Second,
		ChainLength: 4,
		Publisher:   pub,
		Now:         now,
	})
	if err != nil {
		t.Fatal(err)
	}
	oldRoot := c.Authority().SignedRoot()

	// Step past the chain's end: refresh must publish a rotated root.
	clock = clock.Add(10 * time.Second)
	if err := c.PublishRefresh(); err != nil {
		t.Fatal(err)
	}
	newRoot := c.Authority().SignedRoot()
	if newRoot.Equal(oldRoot) {
		t.Error("exhausted chain did not rotate the root")
	}
	if ni, nf := pub.counts(); ni != 1 || nf != 1 {
		t.Errorf("rotation published %d issuances, %d freshness", ni, nf)
	}
}

func TestForkSharesIdentityDivergesContent(t *testing.T) {
	c := newTestCA(t, nil)
	fork, err := c.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if fork.ID() != c.ID() {
		t.Error("fork changed identity")
	}
	gen := serial.NewGenerator(1, nil)
	if _, err := c.Revoke(gen.Next()); err != nil {
		t.Fatal(err)
	}
	if _, err := fork.Revoke(gen.Next()); err != nil {
		t.Fatal(err)
	}
	a, b := c.Authority().SignedRoot(), fork.Authority().SignedRoot()
	if a.N != b.N {
		t.Fatalf("sizes diverged: %d vs %d", a.N, b.N)
	}
	if a.Root.Equal(b.Root) {
		t.Error("fork produced identical dictionaries for different serials")
	}
	// Both roots verify under the same key — the equivocation signature.
	if err := a.VerifySignature(c.PublicKey()); err != nil {
		t.Error(err)
	}
	if err := b.VerifySignature(c.PublicKey()); err != nil {
		t.Error(err)
	}
}
