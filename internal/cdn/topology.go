package cdn

import (
	"fmt"
	"time"
)

// Topology wires the two-tier edge hierarchy of a production CDN: PoPs
// (the edges RAs actually talk to) pull from regional edges, regional
// edges pull from the origin. The fan-out arithmetic is the point (§VI,
// "any CDN that caches opaque bodies by URL"): per (ca, from) key, N RAs
// cost their PoP one miss, P PoPs cost their regional edge one miss, and
// R regional edges cost the origin at most R pulls — origin load is
// O(regions), independent of both the PoP count and the RA count. That is
// the arithmetic that lets one distribution point serve planet-scale RA
// fleets ("millions of users") at CA-side cost that does not grow with
// deployment size.
//
//	RA ─┐
//	RA ─┼─ PoP ─┐
//	RA ─┘       ├─ regional edge ─┐
//	   … P PoPs ┘                 ├─ origin (distribution point)
//	            … R regions ──────┘
type Topology struct {
	regionals []*EdgeServer
	pops      [][]*EdgeServer
}

// Tier names one level of the hierarchy, used by the Wrap hook.
type Tier int

const (
	// TierRegional is the regional-edge tier (pulls from the origin).
	TierRegional Tier = iota
	// TierPoP is the PoP tier (pulls from a regional edge).
	TierPoP
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierRegional:
		return "regional"
	case TierPoP:
		return "pop"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// TopologyConfig shapes a Topology.
type TopologyConfig struct {
	// Regions is the number of regional edges (≥ 1).
	Regions int
	// PoPsPerRegion is the number of PoP edges under each regional (≥ 1).
	PoPsPerRegion int
	// RegionalTTL is the regional tier's cache TTL. Regional edges sit
	// close to the origin, so their TTL bounds fleet-wide staleness;
	// choose ≤ ∆ so entries die before the next count is published.
	RegionalTTL time.Duration
	// PoPTTL is the PoP tier's cache TTL (usually ≤ RegionalTTL: total
	// staleness through the hierarchy is the sum of the tier TTLs, and
	// the client 2∆ policy bounds what is tolerable).
	PoPTTL time.Duration
	// NegativeTTL, when positive, enables ErrUnknownCA negative caching
	// at every edge of both tiers.
	NegativeTTL time.Duration
	// Now is the cache clock for every edge (nil = time.Now); scenario
	// tests inject virtual time.
	Now func() time.Time
	// Wrap, when non-nil, wraps the upstream each edge pulls from — the
	// hook scenario tests use to inject per-link latency, partitions, or
	// byte counters without re-wiring the hierarchy. For TierRegional the
	// pop index is -1 and upstream is the origin; for TierPoP upstream is
	// the region's regional edge. Returning upstream unchanged is valid.
	Wrap func(tier Tier, region, pop int, upstream Origin) Origin
}

// NewTopology builds the hierarchy over origin.
func NewTopology(origin Origin, cfg TopologyConfig) (*Topology, error) {
	if origin == nil {
		return nil, fmt.Errorf("cdn: topology requires an origin")
	}
	if cfg.Regions < 1 || cfg.PoPsPerRegion < 1 {
		return nil, fmt.Errorf("cdn: topology needs ≥1 region and ≥1 PoP per region (got %d×%d)",
			cfg.Regions, cfg.PoPsPerRegion)
	}
	wrap := cfg.Wrap
	if wrap == nil {
		wrap = func(_ Tier, _, _ int, up Origin) Origin { return up }
	}
	t := &Topology{
		regionals: make([]*EdgeServer, cfg.Regions),
		pops:      make([][]*EdgeServer, cfg.Regions),
	}
	for r := 0; r < cfg.Regions; r++ {
		regional := NewEdgeServer(wrap(TierRegional, r, -1, origin), cfg.RegionalTTL, cfg.Now)
		if cfg.NegativeTTL > 0 {
			regional.SetNegativeTTL(cfg.NegativeTTL)
		}
		t.regionals[r] = regional
		t.pops[r] = make([]*EdgeServer, cfg.PoPsPerRegion)
		for p := 0; p < cfg.PoPsPerRegion; p++ {
			pop := NewEdgeServer(wrap(TierPoP, r, p, regional), cfg.PoPTTL, cfg.Now)
			if cfg.NegativeTTL > 0 {
				pop.SetNegativeTTL(cfg.NegativeTTL)
			}
			t.pops[r][p] = pop
		}
	}
	return t, nil
}

// PoP returns PoP p of region r — the Origin an RA in that location pulls
// from.
func (t *Topology) PoP(r, p int) *EdgeServer { return t.pops[r][p] }

// TopologyStats is the per-tier roll-up of every edge's counters.
type TopologyStats struct {
	// PoP sums the counters of all Regions × PoPsPerRegion PoP edges —
	// the tier RAs talk to, so PoP.Hits/(total pulls) is the fleet-facing
	// hit rate.
	PoP EdgeStats
	// Regional sums the counters of all regional edges. Regional.Misses
	// (plus collapsed-pull leakage) is what the origin actually sees.
	Regional EdgeStats
	// PerRegion holds, for each region, the sum of that region's PoP
	// counters followed by its regional counters — the per-region ledger
	// operators alarm on (one cold region hides inside fleet-wide sums).
	PerRegion []RegionStats
}

// RegionStats is one region's slice of the roll-up.
type RegionStats struct {
	PoP      EdgeStats
	Regional EdgeStats
}

// Stats rolls up every edge's counters per tier and per region. Each
// edge's snapshot is internally consistent; the roll-up is not one atomic
// cut across edges, which no load metric needs.
func (t *Topology) Stats() TopologyStats {
	ts := TopologyStats{PerRegion: make([]RegionStats, len(t.regionals))}
	for r, regional := range t.regionals {
		rs := RegionStats{Regional: regional.Stats()}
		for _, pop := range t.pops[r] {
			rs.PoP = rs.PoP.add(pop.Stats())
		}
		ts.PerRegion[r] = rs
		ts.PoP = ts.PoP.add(rs.PoP)
		ts.Regional = ts.Regional.add(rs.Regional)
	}
	return ts
}

// HitRate reduces a stats snapshot to served-without-upstream fraction:
// hits and collapsed pulls over all successful pulls. Zero traffic reads
// as zero, not NaN.
func HitRate(s EdgeStats) float64 {
	total := s.Hits + s.Misses + s.CollapsedPulls
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.CollapsedPulls) / float64(total)
}
