package cdn

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// Replication suite: a follower origin tails the leader's WAL over the
// Replicator API and must (a) converge to byte-identical signed roots,
// (b) bootstrap through checkpoints, and (c) reject compromised or
// split-brain leaders — wrong key AND same-key equivocation.

// replLeader is a storage-backed origin fed by an in-process authority.
type replLeader struct {
	clock  *testClock
	signer *cryptoutil.Signer
	auth   *dictionary.Authority
	dp     *DistributionPoint
	gen    *serial.Generator
}

func newReplLeader(t *testing.T, id dictionary.CAID, signer *cryptoutil.Signer, serialSeed uint64, ckptEvery int) *replLeader {
	t.Helper()
	clock := newTestClock()
	if signer == nil {
		var err error
		if signer, err = cryptoutil.NewSigner(nil); err != nil {
			t.Fatal(err)
		}
	}
	auth, err := dictionary.NewAuthority(dictionary.AuthorityConfig{
		CA:     id,
		Signer: signer,
		Delta:  10 * time.Second,
	}, clock.now().Unix())
	if err != nil {
		t.Fatal(err)
	}
	dp := NewDistributionPointWithStorage(clock.now, storage.NewMemory(), ckptEvery)
	if err := dp.RegisterCA(id, signer.Public()); err != nil {
		t.Fatal(err)
	}
	return &replLeader{clock: clock, signer: signer, auth: auth, dp: dp, gen: serial.NewGenerator(serialSeed, nil)}
}

func (l *replLeader) revoke(t *testing.T, count int) []serial.Number {
	t.Helper()
	serials := l.gen.NextN(count)
	msg, err := l.auth.Insert(serials, l.clock.now().Unix())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.dp.PublishIssuance(msg); err != nil {
		t.Fatal(err)
	}
	return serials
}

func (l *replLeader) refresh(t *testing.T) {
	t.Helper()
	st, err := l.auth.Statement(l.clock.now().Unix())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.dp.PublishFreshness(st); err != nil {
		t.Fatal(err)
	}
}

// newFollowerDP builds an empty storage-backed origin trusting the same
// CA key (the anchor comes from registration, never from the leader).
func newFollowerDP(t *testing.T, id dictionary.CAID, pub []byte, clock *testClock, ckptEvery int) *DistributionPoint {
	t.Helper()
	dp := NewDistributionPointWithStorage(clock.now, storage.NewMemory(), ckptEvery)
	if err := dp.RegisterCA(id, pub); err != nil {
		t.Fatal(err)
	}
	return dp
}

func TestFollowerReplicatesLeader(t *testing.T) {
	leader := newReplLeader(t, "CA1", nil, 0x1001, 0)
	leader.revoke(t, 20)
	leader.revoke(t, 15)
	leader.refresh(t)

	fdp := newFollowerDP(t, "CA1", leader.signer.Public(), leader.clock, 0)
	f := NewFollower(fdp, leader.dp)
	if err := f.SyncCA("CA1"); err != nil {
		t.Fatal(err)
	}

	want, err := leader.dp.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fdp.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("follower's signed root differs from the leader's")
	}
	if got.N != 35 {
		t.Fatalf("follower at count %d, want 35", got.N)
	}
	// The freshness statement replicated too (it travels in the WAL).
	pr, err := fdp.Pull("CA1", 35)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Freshness == nil {
		t.Fatal("freshness statement did not replicate")
	}
	st := f.Stats()
	if st.FramesApplied == 0 || st.Rejected != 0 || st.Resets != 0 {
		t.Fatalf("stats = %+v", st)
	}

	// Incremental: only the new frames ship on the next cycle.
	applied := st.FramesApplied
	leader.revoke(t, 5)
	if err := f.SyncCA("CA1"); err != nil {
		t.Fatal(err)
	}
	st = f.Stats()
	if st.FramesApplied != applied+1 {
		t.Fatalf("incremental sync applied %d frames, want 1", st.FramesApplied-applied)
	}
	root, _ := fdp.LatestRoot("CA1")
	if root.N != 40 {
		t.Fatalf("follower at %d after incremental sync, want 40", root.N)
	}
}

// TestFollowerPromotionKeepsETag pins the contract failover rests on: a
// synced follower serves byte-identical /v1/root responses, so an edge
// revalidating with the dead leader's ETag gets 304 from the promoted
// follower.
func TestFollowerPromotionKeepsETag(t *testing.T) {
	leader := newReplLeader(t, "CA1", nil, 0x1002, 0)
	leader.revoke(t, 30)
	fdp := newFollowerDP(t, "CA1", leader.signer.Public(), leader.clock, 0)
	if err := NewFollower(fdp, leader.dp).SyncCA("CA1"); err != nil {
		t.Fatal(err)
	}

	leaderSrv := httptest.NewServer(NewHandler(leader.dp, HandlerOptions{}))
	resp, err := http.Get(leaderSrv.URL + "/v1/root?ca=CA1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	leaderSrv.Close() // leader dies
	if etag == "" {
		t.Fatal("no ETag from leader")
	}

	followerSrv := httptest.NewServer(NewHandler(fdp, HandlerOptions{}))
	defer followerSrv.Close()
	req, _ := http.NewRequest(http.MethodGet, followerSrv.URL+"/v1/root?ca=CA1", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation against promoted follower: status %d, want 304", resp2.StatusCode)
	}
}

func TestFollowerCheckpointBootstrap(t *testing.T) {
	// checkpoint-every-1 leader: by the time the follower arrives, the
	// early WAL records are truncated and only a snapshot can bridge.
	leader := newReplLeader(t, "CA1", nil, 0x1003, 1)
	for i := 0; i < 4; i++ {
		leader.revoke(t, 10)
	}
	fdp := newFollowerDP(t, "CA1", leader.signer.Public(), leader.clock, 0)
	f := NewFollower(fdp, leader.dp)
	if err := f.SyncCA("CA1"); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.SnapshotsAdopted != 1 {
		t.Fatalf("snapshots adopted = %d, want 1", st.SnapshotsAdopted)
	}
	root, err := fdp.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if root.N != 40 {
		t.Fatalf("bootstrapped follower at %d, want 40", root.N)
	}
	want, _ := leader.dp.LatestRoot("CA1")
	if !root.Equal(want) {
		t.Fatal("bootstrapped root differs from leader")
	}
}

func TestReplicationSplitBrainWrongKey(t *testing.T) {
	honest := newReplLeader(t, "CA1", nil, 0x2001, 0)
	honest.revoke(t, 10)
	fdp := newFollowerDP(t, "CA1", honest.signer.Public(), honest.clock, 0)
	if err := NewFollower(fdp, honest.dp).SyncCA("CA1"); err != nil {
		t.Fatal(err)
	}

	// An impostor claims the same CA id with its own key. Its frames are
	// structurally valid WAL records — only signature verification against
	// the registered anchor can tell them apart.
	impostor := newReplLeader(t, "CA1", nil, 0x2002, 0)
	impostor.revoke(t, 25)

	f := NewFollower(fdp, impostor.dp)
	err := f.SyncCA("CA1")
	if !errors.Is(err, ErrReplicationDiverged) {
		t.Fatalf("impostor sync err = %v, want ErrReplicationDiverged", err)
	}
	if f.Stats().Rejected == 0 {
		t.Fatal("impostor records were not counted as rejected")
	}
	root, _ := fdp.LatestRoot("CA1")
	if root.N != 10 {
		t.Fatalf("follower state moved to %d under an impostor leader", root.N)
	}
}

func TestReplicationSplitBrainSameKey(t *testing.T) {
	// The harder case: the genuine CA key signs two divergent histories (a
	// compromised key, or a partitioned CA equivocating). Signatures
	// verify on both sides; what catches it is the follower still holding
	// its own verified history.
	var seed [32]byte
	copy(seed[:], []byte("split-brain-seed-0123456789abcdef"))
	signerA := cryptoutil.NewSignerFromSeed(seed)
	signerB := cryptoutil.NewSignerFromSeed(seed)

	branchA := newReplLeader(t, "CA1", signerA, 0x3001, 0)
	branchA.revoke(t, 10)
	fdp := newFollowerDP(t, "CA1", signerA.Public(), branchA.clock, 0)
	if err := NewFollower(fdp, branchA.dp).SyncCA("CA1"); err != nil {
		t.Fatal(err)
	}

	// Branch B: same key, same id, different revocations — via frames.
	branchB := newReplLeader(t, "CA1", signerB, 0x3002, 0)
	branchB.revoke(t, 10)
	fB := NewFollower(fdp, branchB.dp)
	if err := fB.SyncCA("CA1"); !errors.Is(err, ErrReplicationDiverged) {
		t.Fatalf("divergent-frames sync err = %v, want ErrReplicationDiverged", err)
	}

	// Branch C: same divergence shipped as a checkpoint snapshot — caught
	// by the issuance-log prefix comparison in AdoptReplicatedState.
	branchC := newReplLeader(t, "CA1", cryptoutil.NewSignerFromSeed(seed), 0x3003, 1)
	for i := 0; i < 3; i++ {
		branchC.revoke(t, 10)
	}
	fC := NewFollower(fdp, branchC.dp)
	if err := fC.SyncCA("CA1"); !errors.Is(err, ErrReplicationDiverged) {
		t.Fatalf("divergent-snapshot sync err = %v, want ErrReplicationDiverged", err)
	}
	if fC.Stats().Rejected == 0 {
		t.Fatal("divergent snapshot was not counted as rejected")
	}

	// The follower's own verified history survived every attempt.
	root, _ := fdp.LatestRoot("CA1")
	if root.N != 10 {
		t.Fatalf("follower at %d after split-brain attempts, want 10", root.N)
	}
	wantRoot, _ := branchA.dp.LatestRoot("CA1")
	if !root.Equal(wantRoot) {
		t.Fatal("follower root no longer matches its verified branch")
	}
}

func TestReplicateWithoutStorage(t *testing.T) {
	// A memory-only (no backend) origin has no WAL to ship.
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 3)
	if _, err := tc.dp.Replicate("CA1", 0); !errors.Is(err, ErrNoReplication) {
		t.Fatalf("err = %v, want ErrNoReplication", err)
	}
	if _, err := tc.dp.Replicate("GhostCA", 0); !errors.Is(err, ErrUnknownCA) {
		t.Fatalf("unknown CA err = %v, want ErrUnknownCA", err)
	}
}

// TestReplicationHTTPRoundTrip drives the full wire path: leader behind
// the HTTP handler, follower syncing through HTTPClient.Replicate.
func TestReplicationHTTPRoundTrip(t *testing.T) {
	leader := newReplLeader(t, "CA1", nil, 0x4001, 0)
	leader.revoke(t, 12)
	srv := httptest.NewServer(NewHandler(leader.dp, HandlerOptions{}))
	defer srv.Close()
	client := &HTTPClient{BaseURL: srv.URL}

	resp, err := client.Replicate("CA1", 0)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := leader.dp.Replicate("CA1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.LastLSN != direct.LastLSN || len(resp.Frames) != len(direct.Frames) {
		t.Fatalf("HTTP tail (last=%d, %d frames) differs from direct (last=%d, %d frames)",
			resp.LastLSN, len(resp.Frames), direct.LastLSN, len(direct.Frames))
	}

	fdp := newFollowerDP(t, "CA1", leader.signer.Public(), leader.clock, 0)
	f := NewFollower(fdp, client)
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	root, err := fdp.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if root.N != 12 {
		t.Fatalf("HTTP-synced follower at %d, want 12", root.N)
	}

	// Typed sentinels survive the wire.
	if _, err := client.Replicate("GhostCA", 0); !errors.Is(err, ErrUnknownCA) {
		t.Fatalf("unknown CA over HTTP: err = %v, want ErrUnknownCA", err)
	}
	memOnly := newTestCA(t, "CA2")
	srv2 := httptest.NewServer(NewHandler(memOnly.dp, HandlerOptions{}))
	defer srv2.Close()
	if _, err := (&HTTPClient{BaseURL: srv2.URL}).Replicate("CA2", 0); !errors.Is(err, ErrNoReplication) {
		t.Fatalf("no-storage origin over HTTP: err = %v, want ErrNoReplication", err)
	}
}
