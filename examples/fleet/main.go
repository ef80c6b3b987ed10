// Fleet: a multi-RA deployment sharing one edge server and one origin —
// the scaling story of RITM's dissemination tier (§II–III).
//
// Eight Revocation Agents replicate the same CA through a single
// TTL-caching edge server. Their fetchers start with an immediate first
// sync (no ∆ of ErrDesynchronized statuses after boot), pull with per-CA
// jitter (no fleet-wide stampede at ∆ boundaries), and concurrent misses
// for the same (ca, from) collapse into one origin fetch. The run prints
// how much of the fleet's pull traffic the edge absorbed.
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"log"
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
		delta = 1 * time.Second
		ras   = 8
	)

	// 1. CA → distribution point (the origin).
	dp := ritm.NewDistributionPoint(nil)
	authority, err := ritm.NewCA(ritm.CAConfig{ID: "FleetCA", Delta: delta, Publisher: dp})
	if err != nil {
		return err
	}
	if err := dp.RegisterCA("FleetCA", authority.PublicKey()); err != nil {
		return err
	}
	if err := authority.PublishRoot(); err != nil {
		return err
	}
	refresher := authority.StartRefresher(nil)
	defer refresher.Shutdown()
	fmt.Println("① origin online, CA refreshing at every period boundary")

	// 2. One edge server shields the origin; its cache key is (ca, from),
	//    its TTL ∆/2 — a freshness-only pull repeats its key, so the TTL
	//    must stay below ∆ or the edge could serve a statement two periods
	//    old. Stale entries and superseded counts are swept.
	edge := ritm.NewEdgeServer(dp, delta/2, nil)

	// 3. A fleet of RAs pulls through the edge, once per period of the
	//    CA's signed root. Jitter smears each RA's pull inside the period
	//    so the fleet does not stampede the edge at every period boundary;
	//    the first sync runs immediately.
	agents := make([]*ritm.RA, ras)
	fetchers := make([]*ritm.Fetcher, ras)
	for i := range agents {
		agents[i], err = ritm.NewRA(ritm.RAConfig{
			Roots:  []*ritm.Certificate{authority.RootCertificate()},
			Origin: edge,
			Delta:  delta,
		})
		if err != nil {
			return err
		}
		fetchers[i] = agents[i].StartFetcher(ritm.FetcherOptions{
			Jitter:  delta / 4,
			OnError: func(err error) { log.Printf("sync: %v", err) },
		})
	}
	defer func() {
		for _, f := range fetchers {
			f.Shutdown()
		}
	}()
	fmt.Printf("② %d RAs syncing through one edge (once per period, jitter ∆/4)\n", ras)

	// 4. The CA keeps revoking while the fleet syncs.
	gen := serial.NewGenerator(0xF1EE7, nil)
	const runFor = 5 * delta
	fmt.Printf("③ revoking 25 certificates every ∆/3 for %v…\n", runFor)
	revoked := 0
	for end := time.Now().Add(runFor); time.Now().Before(end); revoked += 25 {
		time.Sleep(delta / 3)
		if _, err := authority.Revoke(gen.NextN(25)...); err != nil {
			return err
		}
	}
	time.Sleep(delta) // one last interval so the fleet converges

	// 5. The ledger: how much fleet load the dissemination tier absorbed.
	st := edge.Stats()
	origin := dp.Stats().Pulls
	total := st.Hits + st.Misses + st.CollapsedPulls
	fmt.Printf("④ fleet converged on %d revocations\n", revoked)
	for i, a := range agents {
		r, err := a.Store().Replica("FleetCA")
		if err != nil {
			return err
		}
		fstats := fetchers[i].Stats()
		fmt.Printf("   RA%-2d count=%-4d syncs=%-3d errors=%d\n", i, r.Count(), fstats.Syncs, fstats.Errors)
	}
	fmt.Printf("⑤ edge: %d pulls served — %d hits, %d collapsed onto in-flight fetches, %d misses\n",
		total, st.Hits, st.CollapsedPulls, st.Misses)
	fmt.Printf("   cache: %d live entries, %d evicted (TTL + superseded counts)\n", st.Entries, st.Evictions)
	if total > 0 {
		fmt.Printf("   origin saw %d pulls for the fleet's %d — %.1f%% absorbed by the edge\n",
			origin, total, 100*float64(total-st.Misses)/float64(total))
	}
	return nil
}
