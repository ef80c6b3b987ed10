// Hierarchy scenario: the two-tier dissemination topology (regions × PoPs)
// under a full RA fleet. The contract is the fan-out arithmetic of §VI: per
// ∆ cycle the origin sees at most one pull per REGIONAL edge — origin load
// O(regions), independent of PoP count and RA count — while the PoP tier
// absorbs the fleet.
package ritm_test

import (
	"sync"
	"testing"
	"time"

	"ritm"
	"ritm/internal/serial"
)

// hierarchyFleet is one origin, an R×P topology, and RAs spread evenly
// across the PoPs (region-major).
type hierarchyFleet struct {
	dp     *ritm.DistributionPoint
	ca     *ritm.CA
	topo   *ritm.Topology
	agents []*ritm.RA
	gen    *serial.Generator
}

func newHierarchyFleet(tb testing.TB, regions, pops, ras int) *hierarchyFleet {
	tb.Helper()
	if ras%(regions*pops) != 0 {
		tb.Fatalf("%d RAs do not spread evenly over %d×%d PoPs", ras, regions, pops)
	}
	dp := ritm.NewDistributionPoint(nil)
	authority, err := ritm.NewCA(ritm.CAConfig{ID: "HierCA", Delta: 10 * time.Second, Publisher: dp})
	if err != nil {
		tb.Fatal(err)
	}
	if err := dp.RegisterCA("HierCA", authority.PublicKey()); err != nil {
		tb.Fatal(err)
	}
	if err := authority.PublishRoot(); err != nil {
		tb.Fatal(err)
	}
	topo, err := ritm.NewTopology(dp, ritm.TopologyConfig{
		Regions:       regions,
		PoPsPerRegion: pops,
		PoPTTL:        time.Hour,
		RegionalTTL:   time.Hour,
	})
	if err != nil {
		tb.Fatal(err)
	}
	perPoP := ras / (regions * pops)
	agents := make([]*ritm.RA, 0, ras)
	for r := 0; r < regions; r++ {
		for p := 0; p < pops; p++ {
			for i := 0; i < perPoP; i++ {
				agent, err := ritm.NewRA(ritm.RAConfig{
					Roots:  []*ritm.Certificate{authority.RootCertificate()},
					Origin: topo.PoP(r, p),
					Delta:  10 * time.Second,
				})
				if err != nil {
					tb.Fatal(err)
				}
				agents = append(agents, agent)
			}
		}
	}
	return &hierarchyFleet{
		dp:     dp,
		ca:     authority,
		topo:   topo,
		agents: agents,
		gen:    serial.NewGenerator(0x41E6E, nil),
	}
}

// cycle publishes one revocation batch and syncs the whole fleet
// concurrently — one ∆ boundary of a lockstep deployment.
func (f *hierarchyFleet) cycle(tb testing.TB, revocations int) {
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

// TestHierarchyFanOutMath is the acceptance contract of the hierarchy,
// checked on the full stack (real RAs, real stores): 2 regions × 4 PoPs
// × 32 RAs over `cycles` ∆ boundaries cost the origin at most
// regions·cycles pulls, with per-tier hit rates at their combinatorial
// floors.
func TestHierarchyFanOutMath(t *testing.T) {
	const (
		regions = 2
		pops    = 4
		ras     = 32
		cycles  = 12
	)
	f := newHierarchyFleet(t, regions, pops, ras)
	for i := 0; i < cycles; i++ {
		f.cycle(t, 50)
	}

	if origin := f.dp.Stats().Pulls; origin > regions*cycles {
		t.Errorf("origin saw %d pulls for %d keys, want ≤ %d (one per regional edge per key)",
			origin, cycles, regions*cycles)
	}
	st := f.topo.Stats()
	popTotal := st.PoP.Hits + st.PoP.Misses + st.PoP.CollapsedPulls
	if want := ras * cycles; popTotal != want {
		t.Fatalf("PoP tier served %d pulls, want %d", popTotal, want)
	}
	if st.PoP.Misses > regions*pops*cycles {
		t.Errorf("PoP misses = %d, want ≤ %d", st.PoP.Misses, regions*pops*cycles)
	}
	perPoP := ras / (regions * pops)
	if hr, floor := ritm.EdgeHitRate(st.PoP), float64(perPoP-1)/float64(perPoP)-0.01; hr < floor {
		t.Errorf("PoP-tier hit rate = %.3f, want ≥ %.3f", hr, floor)
	}
	if st.Regional.Misses > regions*cycles {
		t.Errorf("regional misses = %d, want ≤ %d", st.Regional.Misses, regions*cycles)
	}
	// Every agent landed on the same final count.
	want := uint64(cycles * 50)
	for i, a := range f.agents {
		r, err := a.Store().Replica("HierCA")
		if err != nil {
			t.Fatal(err)
		}
		if r.Count() != want {
			t.Errorf("agent %d count = %d, want %d", i, r.Count(), want)
		}
	}
}
