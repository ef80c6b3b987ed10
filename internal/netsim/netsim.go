// Package netsim is the analytic network model replacing the paper's
// PlanetLab + Amazon CloudFront measurement testbed (§VII-B, Fig 5). The
// original experiment downloaded revocation messages of five sizes from 80
// PlanetLab nodes with edge caching disabled (TTL=0), so every request
// paid the full path: client → edge server → origin.
//
// The simulator reproduces that path analytically: each vantage point
// belongs to a region with characteristic client-edge RTT, edge-origin
// RTT, and bandwidth distributions (PlanetLab nodes are well-connected
// university hosts, concentrated in North America and Europe). A download
// costs connection setup to the edge, a cache-miss fetch from the origin,
// and store-and-forward transfer time on both legs, with seeded lognormal
// jitter per trial. No wall-clock sleeping is involved, so the full CDF
// regenerates in microseconds.
package netsim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// VantagePoints is the number of measurement nodes (80 PlanetLab hosts).
const VantagePoints = 80

// profile describes one region's network characteristics.
type profile struct {
	name string
	// nodes is how many of the 80 vantage points sit in this region
	// (PlanetLab's distribution was NA/EU-heavy).
	nodes int
	// edgeRTT is the median client→edge round trip (CDNs place edges near
	// clients, so this is small everywhere).
	edgeRTT time.Duration
	// originRTT is the median edge→origin round trip (the origin is a
	// single distribution point, so distance shows up here).
	originRTT time.Duration
	// bandwidth is the median bottleneck bandwidth in bits/s.
	bandwidth float64
}

// profiles partitions the 80 nodes. Counts sum to VantagePoints.
var profiles = []profile{
	{name: "North America", nodes: 34, edgeRTT: 8 * time.Millisecond, originRTT: 40 * time.Millisecond, bandwidth: 80e6},
	{name: "Europe", nodes: 28, edgeRTT: 10 * time.Millisecond, originRTT: 100 * time.Millisecond, bandwidth: 60e6},
	{name: "East Asia", nodes: 8, edgeRTT: 18 * time.Millisecond, originRTT: 170 * time.Millisecond, bandwidth: 40e6},
	{name: "South America", nodes: 4, edgeRTT: 25 * time.Millisecond, originRTT: 150 * time.Millisecond, bandwidth: 20e6},
	{name: "Oceania", nodes: 3, edgeRTT: 20 * time.Millisecond, originRTT: 190 * time.Millisecond, bandwidth: 30e6},
	{name: "Japan", nodes: 3, edgeRTT: 12 * time.Millisecond, originRTT: 160 * time.Millisecond, bandwidth: 70e6},
}

// Network is the seeded analytic model.
type Network struct {
	seed   uint64
	byNode []profile // len VantagePoints
}

// NewNetwork builds the model deterministically from seed.
func NewNetwork(seed uint64) *Network {
	byNode := make([]profile, 0, VantagePoints)
	for _, p := range profiles {
		for i := 0; i < p.nodes; i++ {
			byNode = append(byNode, p)
		}
	}
	return &Network{seed: seed, byNode: byNode}
}

// Nodes returns the number of vantage points.
func (n *Network) Nodes() int { return len(n.byNode) }

// lognormal draws a multiplicative jitter factor with the given sigma:
// median 1, right-skewed — the canonical shape of wide-area latency noise.
func lognormal(rng *rand.Rand, sigma float64) float64 {
	return math.Exp(rng.NormFloat64() * sigma)
}

// DownloadTime models one TTL=0 download of size bytes by the given
// vantage point: TCP+request to the edge (2 RTT), the edge's cache-miss
// fetch from the origin (2 RTT + transfer), and the edge→client transfer.
// The (node, trial) pair seeds the jitter, so repeated calls reproduce the
// same sample.
func (n *Network) DownloadTime(node, trial, bytes int) (time.Duration, error) {
	if node < 0 || node >= len(n.byNode) {
		return 0, fmt.Errorf("netsim: vantage point %d of %d", node, len(n.byNode))
	}
	p := n.byNode[node]
	rng := rand.New(rand.NewPCG(n.seed, uint64(node)<<32|uint64(trial)))

	edgeRTT := time.Duration(float64(p.edgeRTT) * lognormal(rng, 0.25))
	originRTT := time.Duration(float64(p.originRTT) * lognormal(rng, 0.25))
	bw := p.bandwidth * lognormal(rng, 0.35)
	transfer := time.Duration(float64(bytes) * 8 / bw * float64(time.Second))

	// Client→edge: TCP handshake + HTTP request/response = 2 RTT.
	// Edge→origin (TTL=0 miss): another connection + fetch = 2 RTT.
	// Transfer is paid on both legs (store-and-forward at the edge).
	total := 2*edgeRTT + 2*originRTT + 2*transfer
	return total, nil
}

// Sample runs trials downloads of size bytes from every vantage point and
// returns all samples, sorted ascending — the raw material of a CDF.
func (n *Network) Sample(bytes, trials int) []time.Duration {
	out := make([]time.Duration, 0, n.Nodes()*trials)
	for node := 0; node < n.Nodes(); node++ {
		for trial := 0; trial < trials; trial++ {
			d, err := n.DownloadTime(node, trial, bytes)
			if err != nil {
				continue // unreachable: node index is in range
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of sorted samples.
func Quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
