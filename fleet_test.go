// Fleet scenario: N Revocation Agents syncing in lockstep through one edge
// server against one distribution point — the deployment shape RITM's
// economy depends on (§II–III: the CDN tier absorbs RA fleet load; Fig 5's
// worst case is every request reaching the origin). The contract is the
// edge hit rate (how much of the fleet's pull traffic the edge absorbs,
// counting singleflight-collapsed pulls) and the origin pulls it leaves.
package ritm_test

import (
	"sync"
	"testing"
	"time"

	"ritm"
	"ritm/internal/serial"
)

// fleetEnv is one origin, one edge, and a fleet of RAs behind it.
type fleetEnv struct {
	dp     *ritm.DistributionPoint
	ca     *ritm.CA
	edge   *ritm.EdgeServer
	agents []*ritm.RA
	gen    *serial.Generator
}

func newFleet(tb testing.TB, n int) *fleetEnv {
	tb.Helper()
	dp := ritm.NewDistributionPoint(nil)
	authority, err := ritm.NewCA(ritm.CAConfig{ID: "FleetCA", Delta: 10 * time.Second, Publisher: dp})
	if err != nil {
		tb.Fatal(err)
	}
	if err := dp.RegisterCA("FleetCA", authority.PublicKey()); err != nil {
		tb.Fatal(err)
	}
	if err := authority.PublishRoot(); err != nil {
		tb.Fatal(err)
	}
	edge := ritm.NewEdgeServer(dp, time.Hour, nil)
	agents := make([]*ritm.RA, n)
	for i := range agents {
		agents[i], err = ritm.NewRA(ritm.RAConfig{
			Roots:  []*ritm.Certificate{authority.RootCertificate()},
			Origin: edge,
			Delta:  10 * time.Second,
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return &fleetEnv{
		dp:     dp,
		ca:     authority,
		edge:   edge,
		agents: agents,
		gen:    serial.NewGenerator(0xF1EE7, nil),
	}
}

// cycle publishes one revocation batch and syncs the whole fleet
// concurrently — one ∆ boundary of a lockstep deployment.
func (f *fleetEnv) cycle(tb testing.TB, revocations int) {
	tb.Helper()
	if revocations > 0 {
		if _, err := f.ca.Revoke(f.gen.NextN(revocations)...); err != nil {
			tb.Fatal(err)
		}
	}
	errs := make(chan error, len(f.agents))
	var wg sync.WaitGroup
	for _, a := range f.agents {
		wg.Add(1)
		go func(a *ritm.RA) {
			defer wg.Done()
			if err := a.SyncOnce(); err != nil {
				errs <- err
			}
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		tb.Fatal(err)
	}
}

// TestFleetPullSharing is the scaling contract of the dissemination tier:
// 16 RAs at the same count must cost the origin at most one pull per
// (ca, from) — concurrent misses collapse, everyone else hits the edge
// cache — for an edge hit rate ≥ 90%.
func TestFleetPullSharing(t *testing.T) {
	const (
		ras    = 16
		cycles = 20
	)
	f := newFleet(t, ras)
	// Each cycle publishes before the fleet pulls, so the fleet always
	// pulls a key the edge has not served stale (a real deployment gets
	// the same property from TTL ≤ ∆: entries die before the next count).
	for i := 0; i < cycles; i++ {
		f.cycle(t, 50)
	}

	st := f.edge.Stats()
	total := st.Hits + st.Misses + st.CollapsedPulls
	if want := ras * cycles; total != want {
		t.Fatalf("edge served %d pulls, want %d", total, want)
	}
	// ≤ 1 origin pull per distinct (ca, from): the fleet advances through
	// `cycles` distinct counts.
	if origin := f.dp.Stats().Pulls; origin > cycles {
		t.Errorf("origin saw %d pulls for %d distinct counts: stampede not collapsed", origin, cycles)
	}
	if st.Misses > cycles {
		t.Errorf("edge misses = %d, want ≤ %d", st.Misses, cycles)
	}
	hitRate := float64(total-st.Misses) / float64(total)
	if hitRate < 0.9 {
		t.Errorf("edge hit rate = %.3f, want ≥ 0.90 (hits=%d collapsed=%d misses=%d)",
			hitRate, st.Hits, st.CollapsedPulls, st.Misses)
	}
	// Every agent landed on the same final count.
	want := uint64(cycles * 50)
	for i, a := range f.agents {
		r, err := a.Store().Replica("FleetCA")
		if err != nil {
			t.Fatal(err)
		}
		if r.Count() != want {
			t.Errorf("agent %d count = %d, want %d", i, r.Count(), want)
		}
	}
}
