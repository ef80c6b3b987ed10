package netsim

import (
	"testing"
	"time"
)

func TestNetworkHas80VantagePoints(t *testing.T) {
	n := NewNetwork(1)
	if n.Nodes() != VantagePoints {
		t.Fatalf("nodes = %d, want %d", n.Nodes(), VantagePoints)
	}
	regions := map[string]int{}
	for i := 0; i < n.Nodes(); i++ {
		regions[n.Region(i)]++
	}
	// PlanetLab was NA/EU-heavy.
	if regions["North America"] < regions["East Asia"] {
		t.Error("vantage distribution not NA-heavy")
	}
	if len(regions) < 5 {
		t.Errorf("only %d regions represented", len(regions))
	}
}

func TestDownloadTimeDeterministic(t *testing.T) {
	n := NewNetwork(42)
	a, err := n.DownloadTime(3, 7, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.DownloadTime(3, 7, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same (node, trial) produced %v and %v", a, b)
	}
	c, err := n.DownloadTime(3, 8, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different trials produced identical samples")
	}
	if _, err := n.DownloadTime(99, 0, 1); err == nil {
		t.Error("out-of-range vantage point accepted")
	}
}

func TestDownloadTimeMonotoneInSize(t *testing.T) {
	n := NewNetwork(1)
	small, err := n.DownloadTime(0, 0, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	large, err := n.DownloadTime(0, 0, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if large <= small {
		t.Errorf("5 MB (%v) not slower than 1 KB (%v)", large, small)
	}
}

func TestFig5Property90PercentUnderOneSecond(t *testing.T) {
	// The headline claim of §VII-B: even the largest message (60 k
	// revocations, ≈ 0.5 MB) downloads in under a second for 90 % of the
	// vantage points, with caching disabled.
	n := NewNetwork(1)
	const largestMessageBytes = 550_000
	samples := n.Sample(largestMessageBytes, 10)
	if len(samples) != 800 {
		t.Fatalf("sample count = %d, want 800 (80 nodes × 10 trials)", len(samples))
	}
	p90 := Quantile(samples, 0.90)
	if p90 >= time.Second {
		t.Errorf("p90 = %v, want < 1 s", p90)
	}
	// And the CDF is ordered by size: the empty message is faster at the
	// median than the largest one.
	empty := n.Sample(200, 10)
	if Quantile(empty, 0.5) >= Quantile(samples, 0.5) {
		t.Error("median download not ordered by message size")
	}
}

func TestQuantileAndCDF(t *testing.T) {
	samples := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Quantile(samples, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(samples, 1); got != 10 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(samples, 0.5); got != 5 || got != samples[4] {
		t.Errorf("median = %v", got)
	}

	cdf := CDF(samples, 5)
	if len(cdf) != 5 {
		t.Fatalf("CDF points = %d", len(cdf))
	}
	if cdf[4].Fraction != 1.0 || cdf[4].Time != 10 {
		t.Errorf("last CDF point = %+v", cdf[4])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Time < cdf[i-1].Time || cdf[i].Fraction <= cdf[i-1].Fraction {
			t.Errorf("CDF not monotone at %d", i)
		}
	}
	if CDF(nil, 5) != nil {
		t.Error("empty CDF not nil")
	}
}

func TestHierarchyDownloadTimeOrdering(t *testing.T) {
	n := NewNetwork(42)
	const bytes = 12 * 1024
	for node := 0; node < n.Nodes(); node += 7 {
		for trial := 0; trial < 5; trial++ {
			popHit, err := n.HierarchyDownloadTime(node, trial, bytes, true, true)
			if err != nil {
				t.Fatal(err)
			}
			regionalHit, err := n.HierarchyDownloadTime(node, trial, bytes, false, true)
			if err != nil {
				t.Fatal(err)
			}
			miss, err := n.HierarchyDownloadTime(node, trial, bytes, false, false)
			if err != nil {
				t.Fatal(err)
			}
			// Deeper misses strictly cost more: each tier adds a round
			// trip and a store-and-forward transfer.
			if !(popHit < regionalHit && regionalHit < miss) {
				t.Fatalf("node %d trial %d: popHit=%v regionalHit=%v miss=%v — not increasing",
					node, trial, popHit, regionalHit, miss)
			}
			// Determinism: the same (node, trial) reproduces its sample.
			again, err := n.HierarchyDownloadTime(node, trial, bytes, false, false)
			if err != nil {
				t.Fatal(err)
			}
			if again != miss {
				t.Fatalf("node %d trial %d: non-deterministic sample", node, trial)
			}
		}
	}
	if _, err := n.HierarchyDownloadTime(n.Nodes(), 0, bytes, true, true); err == nil {
		t.Error("out-of-range vantage point accepted")
	}
}

func TestRegionsAccessor(t *testing.T) {
	regions := Regions()
	if len(regions) == 0 {
		t.Fatal("no regions")
	}
	total := 0
	for _, r := range regions {
		if r.Name == "" || r.EdgeRTT <= 0 || r.OriginRTT <= 0 || r.Bandwidth <= 0 {
			t.Errorf("malformed region %+v", r)
		}
		if r.EdgeRTT >= r.OriginRTT {
			t.Errorf("region %s: edge RTT %v ≥ origin RTT %v (edges must be nearer)", r.Name, r.EdgeRTT, r.OriginRTT)
		}
		total += r.Nodes
	}
	if total != VantagePoints {
		t.Errorf("region nodes sum to %d, want %d", total, VantagePoints)
	}
}
