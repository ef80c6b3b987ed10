package ra

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ritm/internal/ca"
	"ritm/internal/cdn"
	"ritm/internal/cert"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
)

// gridDelta is the sweep's ∆, the smallest value the paper analyzes.
const gridDelta = 10 * time.Second

// timedOrigin records the virtual time of every pull through it.
type timedOrigin struct {
	cdn.Origin
	now   func() time.Time
	pulls []time.Time
}

func (o *timedOrigin) Pull(ca dictionary.CAID, from uint64) (*cdn.PullResponse, error) {
	o.pulls = append(o.pulls, o.now())
	return o.Origin.Pull(ca, from)
}

// gridSchedule says when a CA publishes and an RA pulls next, given the
// time of the event just run.
type gridSchedule struct {
	caNext  func(authority *ca.CA, now time.Time) time.Time
	raNext  func(agent *RA, now time.Time) time.Time
	caStart time.Duration // first publish, after base
}

// theGrid is the schedule StartRefresher and StartFetcher run: the CA
// re-arms at its current root's next period, and the RA at nextPull.
func theGrid(phase time.Duration) gridSchedule {
	return gridSchedule{
		caNext: func(authority *ca.CA, now time.Time) time.Time {
			return authority.Authority().SignedRoot().NextPeriod(now)
		},
		raNext: func(agent *RA, now time.Time) time.Time {
			due, err := agent.nextPull("GridCA", phase)
			if err != nil {
				panic(err)
			}
			return due
		},
	}
}

// freeRunning is the schedule the grid replaced: a CA ticker every ∆ from
// process start, and an RA ticker every ∆ at its own phase φ.
func freeRunning(base time.Time, phase time.Duration) gridSchedule {
	return gridSchedule{
		caStart: gridDelta,
		caNext:  func(_ *ca.CA, now time.Time) time.Time { return now.Add(gridDelta) },
		raNext: func(_ *RA, now time.Time) time.Time {
			if now.Equal(base) {
				return base.Add(phase + gridDelta)
			}
			return now.Add(gridDelta)
		},
	}
}

// gridRun is one simulated deployment: CA → distribution point → [edge,
// shared with a neighbour RA] → RA, on one virtual clock.
type gridRun struct {
	revokeAt time.Duration // after base
	edgeTTL  time.Duration // 0: the RA pulls from the distribution point
}

// gridResult is what a client saw, plus the RA's pulls.
type gridResult struct {
	checks, stale  int     // valid certificate, from revoke + ∆ for 5∆
	revokedMissed  int     // revoked certificate not refused as revoked
	pullsPerPeriod []int   // of the post-revoke root, periods 2–4
	staleShare     float64 // stale / checks
}

// run drives the deployment through sched's events: publish, pull, revoke
// and a client check every 100 ms, in time order (at one instant: publish,
// revoke, neighbour pull, pull, check).
func (g gridRun) run(t *testing.T, sched func(base time.Time) gridSchedule) gridResult {
	t.Helper()
	base := time.Unix(1_700_000_000, 0)
	clock := base
	now := func() time.Time { return clock }

	dp := cdn.NewDistributionPoint(now)
	authority, err := ca.New(ca.Config{ID: "GridCA", Delta: gridDelta, ChainLength: 16, Publisher: dp, Now: now, SerialSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.RegisterCA("GridCA", authority.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := authority.PublishRoot(); err != nil {
		t.Fatal(err)
	}
	var upstream cdn.Origin = dp
	if g.edgeTTL > 0 {
		upstream = cdn.NewEdgeServer(dp, g.edgeTTL, now)
	}
	newRA := func(o cdn.Origin) *RA {
		agent, err := New(Config{Roots: []*cert.Certificate{authority.RootCertificate()}, Origin: o, Delta: gridDelta, Now: now})
		if err != nil {
			t.Fatal(err)
		}
		return agent
	}
	counted := &timedOrigin{Origin: upstream, now: now}
	agent := newRA(counted)
	f := &Fetcher{stop: make(chan struct{})}
	pull := func(agent *RA) {
		if !agent.fetch(f, "GridCA", FetcherOptions{}) {
			t.Fatal("the CA left the store")
		}
	}
	// With an edge, a neighbour RA shares it and pulls half a second
	// before each period boundary of its own root: it fills the edge with
	// the statement about to be superseded.
	var neighbour *RA
	neighbourNext := base.Add(time.Hour)
	if g.edgeTTL > 0 {
		neighbour = newRA(upstream)
		neighbourNext = base
	}
	pool, err := cert.NewPool(authority.RootCertificate())
	if err != nil {
		t.Fatal(err)
	}
	valid, revoked := serial.FromUint64(0x1001), serial.FromUint64(0x1002)

	s := sched(base)
	caNext := base.Add(s.caStart)
	raNext := base
	revokeAt := base.Add(g.revokeAt)
	checkAt, end := revokeAt.Add(gridDelta), revokeAt.Add(6*gridDelta)
	done := false

	// A status's check depends on now only through now.Unix(): remember
	// each (status, second) verdict.
	type verdictKey struct {
		st  *dictionary.Status
		sec int64
	}
	verdicts := map[verdictKey]error{}
	check := func(sn serial.Number, want dictionary.CheckResult) error {
		st, err := agent.Status("GridCA", sn)
		if err != nil {
			return err
		}
		k := verdictKey{st, clock.Unix()}
		v, ok := verdicts[k]
		if !ok {
			var got dictionary.CheckResult
			got, v = st.CheckWith(sn, authority.PublicKey(), k.sec, pool.Verify)
			if v == nil && got != want {
				v = fmt.Errorf("check result %v, want %v", got, want)
			}
			verdicts[k] = v
		}
		return v
	}

	var res gridResult
	for checkAt.Before(end) {
		next := checkAt
		for _, at := range []time.Time{caNext, raNext, neighbourNext} {
			if at.Before(next) {
				next = at
			}
		}
		if !done && revokeAt.Before(next) {
			next = revokeAt
		}
		clock = next
		switch {
		case clock.Equal(caNext):
			if err := authority.PublishRefresh(); err != nil {
				t.Fatal(err)
			}
			caNext = s.caNext(authority, clock)
		case !done && clock.Equal(revokeAt):
			if _, err := authority.Revoke(revoked); err != nil {
				t.Fatal(err)
			}
			done = true
		case clock.Equal(neighbourNext):
			pull(neighbour)
			replica, err := neighbour.Store().Replica("GridCA")
			if err != nil {
				t.Fatal(err)
			}
			neighbourNext = replica.Root().NextPeriod(clock).Add(-500 * time.Millisecond)
			if !neighbourNext.After(clock) {
				neighbourNext = neighbourNext.Add(gridDelta)
			}
		case clock.Equal(raNext):
			pull(agent)
			raNext = s.raNext(agent, clock)
		default:
			res.checks++
			if err := check(valid, dictionary.CheckValid); errors.Is(err, dictionary.ErrStale) {
				res.stale++
			} else if err != nil {
				t.Fatalf("valid certificate at +%v: %v", clock.Sub(base), err)
			}
			if check(revoked, dictionary.CheckRevoked) != nil {
				res.revokedMissed++
			}
			checkAt = checkAt.Add(100 * time.Millisecond)
		}
	}
	res.staleShare = float64(res.stale) / float64(res.checks)

	// Pulls per period of the root the revocation signed, in the steady
	// state its second period starts.
	rootTime := time.Unix(authority.Authority().SignedRoot().Time, 0)
	for k := 2; k <= 4; k++ {
		from, to := rootTime.Add(time.Duration(k)*gridDelta), rootTime.Add(time.Duration(k+1)*gridDelta)
		n := 0
		for _, at := range counted.pulls {
			if !at.Before(from) && at.Before(to) {
				n++
			}
		}
		res.pullsPerPeriod = append(res.pullsPerPeriod, n)
	}
	return res
}

// gridOffsets are the sweep's revoke instants after base: with the root
// re-signed at t = base + 23 (or + 25), the CA publishes 3 (or 5) seconds
// into each of the old grid's periods.
var gridOffsets = []time.Duration{23400 * time.Millisecond, 25 * time.Second}

// TestFreshnessGridSweep is the stale-refusal repro on one virtual clock,
// swept over the revoke offset × the RA's phase 0…9 s: on the root's
// grid a valid certificate of the revoking CA is never refused as stale,
// the revoked one is refused as revoked from revoke + ∆ on, and the RA
// pulls once per period in steady state.
//
// The shared-edge case puts a ∆/2 edge cache between the distribution
// point and the RA, shared with a neighbour RA that refills it with the
// outgoing statement half a second before every period boundary. The TTL
// is below ∆, so the edge hands out at most the previous period's
// statement, and the RA's in-period retries take the current one before
// the period ends. The retries cost pulls: at most one regular pull plus
// one per retry step (∆/10) the TTL covers.
func TestFreshnessGridSweep(t *testing.T) {
	for _, tc := range []struct {
		name     string
		edgeTTL  time.Duration
		maxPulls int
	}{
		{"direct", 0, 1},
		{"shared edge", gridDelta / 2, 1 + 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel() // each case owns its clock and deployment
			most := 0
			for _, off := range gridOffsets {
				for phase := time.Duration(0); phase < gridDelta; phase += time.Second {
					res := gridRun{revokeAt: off, edgeTTL: tc.edgeTTL}.run(t, func(time.Time) gridSchedule { return theGrid(phase) })
					if res.stale != 0 || res.revokedMissed != 0 {
						t.Errorf("revoke +%v, phase %v: %d of %d checks stale, revoked certificate missed %d times",
							off, phase, res.stale, res.checks, res.revokedMissed)
					}
					for k, n := range res.pullsPerPeriod {
						if n < 1 || n > tc.maxPulls {
							t.Errorf("revoke +%v, phase %v: %d pulls in period %d, want 1…%d", off, phase, n, k+2, tc.maxPulls)
						}
						most = max(most, n)
					}
				}
			}
			t.Logf("most pulls in one steady-state period: %d", most)
			if tc.edgeTTL > 0 && most == 1 {
				t.Error("no period needed a retry: the neighbour never put the edge behind")
			}
		})
	}
}

// TestFreshnessGridSweepFreeRunning substitutes the schedule the grid
// replaced and reproduces its stale refusals: the sweep must show them,
// or it is not testing the defect the grid fixes.
func TestFreshnessGridSweepFreeRunning(t *testing.T) {
	for _, off := range gridOffsets {
		var shares []string
		worst := 0.0
		for phase := time.Duration(0); phase < gridDelta; phase += time.Second {
			res := gridRun{revokeAt: off}.run(t, func(base time.Time) gridSchedule { return freeRunning(base, phase) })
			shares = append(shares, fmt.Sprintf("%.0f%%", 100*res.staleShare))
			worst = max(worst, res.staleShare)
		}
		t.Logf("revoke +%v, stale share by phase 0…9 s: %v", off, shares)
		if worst == 0 {
			t.Errorf("revoke +%v: the free-running schedule refused nothing as stale", off)
		}
	}
}

// TestNextPullFollowsRootGrid pins nextPull's cases on a root signed at
// base with ∆ = 10 s, whose retry step is 1 s.
func TestNextPullFollowsRootGrid(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	clock := base
	now := func() time.Time { return clock }
	dp := cdn.NewDistributionPoint(now)
	authority, err := ca.New(ca.Config{ID: "GridCA", Delta: gridDelta, ChainLength: 16, Publisher: dp, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.RegisterCA("GridCA", authority.PublicKey()); err != nil {
		t.Fatal(err)
	}
	agent, err := New(Config{Roots: []*cert.Certificate{authority.RootCertificate()}, Origin: dp, Delta: 3 * time.Second, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	at := func(after, phase time.Duration) time.Duration {
		t.Helper()
		clock = base.Add(after)
		due, err := agent.nextPull("GridCA", phase)
		if err != nil {
			t.Fatal(err)
		}
		return due.Sub(base)
	}
	if got := at(0, 0); got != 3*time.Second {
		t.Errorf("without a root: next pull at +%v, want +3s (the RA's ∆)", got)
	}
	if err := authority.PublishRoot(); err != nil {
		t.Fatal(err)
	}
	clock = base
	if err := agent.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name         string
		after, phase time.Duration
		want         time.Duration
	}{
		{"current, phase inside the first step", 500 * time.Millisecond, 0, time.Second},
		{"current, at its phase", 500 * time.Millisecond, 3 * time.Second, 3 * time.Second},
		{"current, phase passed", 5 * time.Second, 3 * time.Second, 13 * time.Second},
		{"behind the period", 12 * time.Second, 5 * time.Second, 13 * time.Second},
		{"behind, retry past the period", 19500 * time.Millisecond, 5 * time.Second, 25 * time.Second},
	}
	for _, tt := range tests {
		if got := at(tt.after, tt.phase); got != tt.want {
			t.Errorf("%s: pull at +%v (phase %v) schedules +%v, want +%v", tt.name, tt.after, tt.phase, got, tt.want)
		}
	}
}
