// Hierarchy: the two-tier dissemination topology of a production CDN —
// R regions × P PoPs of caching edges between one origin and an RA fleet.
//
// Twelve Revocation Agents spread across 2 regions × 2 PoPs replicate the
// same CA. Each PoP absorbs its RAs' pulls, each regional edge absorbs
// its PoPs' misses, and the origin sees O(regions) pulls per ∆ — the
// arithmetic that lets one distribution point feed a planet-scale fleet.
// A misconfigured agent polling a nonexistent CA demonstrates the
// negative cache: the origin sees one unknown-CA lookup per negative TTL,
// not one per request. The run prints the per-tier ledger.
//
//	go run ./examples/hierarchy
package main

import (
	"errors"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"ritm"
	"ritm/internal/serial"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		delta   = 1 * time.Second
		regions = 2
		pops    = 2 // per region
		ras     = 3 // per PoP → 12 fleet-wide
	)

	// 1. CA → distribution point (the origin).
	dp := ritm.NewDistributionPoint(nil)
	authority, err := ritm.NewCA(ritm.CAConfig{ID: "HierCA", Delta: delta, Publisher: dp})
	if err != nil {
		return err
	}
	if err := dp.RegisterCA("HierCA", authority.PublicKey()); err != nil {
		return err
	}
	if err := authority.PublishRoot(); err != nil {
		return err
	}
	refresher := authority.StartRefresher(nil)
	defer refresher.Shutdown()
	fmt.Println("① origin online, CA refreshing at every period boundary")

	// 2. The hierarchy: PoPs → regional edges → origin, with negative
	//    caching at every tier. A freshness-only pull repeats its cache
	//    key, so a PoP can serve a statement its region cached a TTL
	//    earlier: the two TTLs together stay below ∆.
	topo, err := ritm.NewTopology(dp, ritm.TopologyConfig{
		Regions:       regions,
		PoPsPerRegion: pops,
		PoPTTL:        delta / 4,
		RegionalTTL:   delta / 2,
		NegativeTTL:   2 * delta,
	})
	if err != nil {
		return err
	}
	fmt.Printf("② topology wired: %d regions × %d PoPs, negative TTL 2∆\n", regions, pops)

	// 3. The fleet: each RA pulls from its local PoP with jitter.
	var agents []*ritm.RA
	var fetchers []*ritm.Fetcher
	for r := 0; r < regions; r++ {
		for p := 0; p < pops; p++ {
			for i := 0; i < ras; i++ {
				agent, err := ritm.NewRA(ritm.RAConfig{
					Roots:  []*ritm.Certificate{authority.RootCertificate()},
					Origin: topo.PoP(r, p),
					Delta:  delta,
				})
				if err != nil {
					return err
				}
				agents = append(agents, agent)
				fetchers = append(fetchers, agent.StartFetcher(ritm.FetcherOptions{
					Jitter:  delta / 4,
					OnError: func(err error) { log.Printf("sync: %v", err) },
				}))
			}
		}
	}
	defer func() {
		for _, f := range fetchers {
			f.Shutdown()
		}
	}()
	fmt.Printf("③ %d RAs syncing through their local PoPs\n", len(agents))

	// 4. A misconfigured client hammers a CA the origin does not carry
	//    for the whole run; the negative cache absorbs the storm at the PoP.
	const runFor = 5 * delta
	end := time.Now().Add(runFor)
	var ghostTries, ghostAbsorbed atomic.Int64
	ghostDone := make(chan struct{})
	go func() {
		defer close(ghostDone)
		for time.Now().Before(end) {
			time.Sleep(delta / 20)
			ghostTries.Add(1)
			if _, err := topo.PoP(0, 0).Pull("GhostCA", 0); errors.Is(err, ritm.ErrUnknownCA) {
				ghostAbsorbed.Add(1)
			}
		}
	}()

	// 5. The CA keeps revoking while the fleet syncs.
	gen := serial.NewGenerator(0x41E6E, nil)
	fmt.Printf("④ revoking 25 certificates every ∆/3 for %v (plus an unknown-CA storm)…\n", runFor)
	revoked := 0
	for ; time.Now().Before(end); revoked += 25 {
		time.Sleep(delta / 3)
		if _, err := authority.Revoke(gen.NextN(25)...); err != nil {
			return err
		}
	}
	<-ghostDone
	time.Sleep(delta) // one last interval so the fleet converges

	// 6. The ledger: what each tier absorbed.
	st := topo.Stats()
	origin := dp.Stats().Pulls
	popTotal := st.PoP.Hits + st.PoP.Misses + st.PoP.CollapsedPulls
	fmt.Printf("⑤ fleet converged on %d revocations\n", revoked)
	for r, rs := range st.PerRegion {
		fmt.Printf("   region %d: PoP tier %.1f%% hit, regional %.1f%% hit\n",
			r, 100*ritm.EdgeHitRate(rs.PoP), 100*ritm.EdgeHitRate(rs.Regional))
	}
	fmt.Printf("⑥ PoP tier served %d pulls (%.1f%% without the regional edge)\n",
		popTotal, 100*ritm.EdgeHitRate(st.PoP))
	fmt.Printf("   regional tier absorbed %d of the PoPs' %d misses\n",
		st.PoP.Misses-st.Regional.Misses, st.PoP.Misses)
	fmt.Printf("   origin saw %d pulls for the fleet's %d — load is O(regions), not O(RAs)\n",
		origin, popTotal)
	// PoP-tier Errors counts the storm requests that got PAST the PoP's
	// negative cache (at most one per negative TTL window).
	fmt.Printf("⑦ unknown-CA storm: %d requests, %d answered from the PoP's negative cache, %d escalated upstream\n",
		ghostTries.Load(), st.PoP.NegativeHits, st.PoP.Errors)
	return nil
}
