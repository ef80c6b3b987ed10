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
		regions[n.byNode[i].name]++
	}
	// PlanetLab was NA/EU-heavy.
	if regions["North America"] < regions["East Asia"] {
		t.Error("vantage distribution not NA-heavy")
	}
	if len(regions) < 5 {
		t.Errorf("only %d regions represented", len(regions))
	}
	for _, p := range profiles {
		if p.name == "" || p.edgeRTT <= 0 || p.originRTT <= 0 || p.bandwidth <= 0 {
			t.Errorf("malformed region %+v", p)
		}
		if p.edgeRTT >= p.originRTT {
			t.Errorf("region %s: edge RTT %v ≥ origin RTT %v (edges must be nearer)", p.name, p.edgeRTT, p.originRTT)
		}
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

func TestQuantile(t *testing.T) {
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
}
