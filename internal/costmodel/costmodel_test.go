package costmodel

import (
	"math"
	"testing"
	"time"

	"ritm/internal/workload"
)

func TestBillForBytesTiering(t *testing.T) {
	// 5 TB entirely in the first US tier.
	usd, err := BillForBytes(workload.RegionUnitedStates, 5*tb)
	if err != nil {
		t.Fatal(err)
	}
	if want := 5000 * 0.085; math.Abs(usd-want) > 1 {
		t.Errorf("5 TB US = $%.2f, want $%.2f", usd, want)
	}
	// 60 TB spans three tiers: 10 @ 0.085 + 40 @ 0.080 + 10 @ 0.060.
	usd, err = BillForBytes(workload.RegionUnitedStates, 60*tb)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10_000*0.085 + 40_000*0.080 + 10_000*0.060; math.Abs(usd-want) > 1 {
		t.Errorf("60 TB US = $%.2f, want $%.2f", usd, want)
	}
	// South America is the most expensive region.
	sa, err := BillForBytes(workload.RegionSouthAmerica, 5*tb)
	if err != nil {
		t.Fatal(err)
	}
	if sa <= usd/12 {
		t.Error("South America not priced above the US rate")
	}
	if _, err := BillForBytes(workload.Region(99), 1); err == nil {
		t.Error("unknown region priced")
	}
}

func TestBytesPerRAComposition(t *testing.T) {
	tr := Traffic{Delta: 10 * time.Second}
	const month = int64(30 * 24 * 3600)

	// No revocations: pure freshness heartbeat, 20 B per pull.
	idle, err := tr.BytesPerRA(month, 0)
	if err != nil {
		t.Fatal(err)
	}
	pulls := float64(month) / 10
	if want := pulls * 20; math.Abs(idle-want) > 1 {
		t.Errorf("idle month = %f B, want %f", idle, want)
	}

	// Revocations add the per-entry cost once, independent of ∆ (3-byte
	// serials per §VII-A).
	busy, err := tr.BytesPerRA(month, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if extra := busy - idle; math.Abs(extra-10_000*SerialEntryBytes) > 1 {
		t.Errorf("10k revocations added %f B", extra)
	}

	// Charging full CRL-entry weight is possible explicitly.
	heavy, err := (Traffic{Delta: 10 * time.Second, EntryBytes: 22}).BytesPerRA(month, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if heavy <= busy {
		t.Error("explicit entry weight not applied")
	}

	if _, err := (Traffic{Delta: 0}).BytesPerRA(month, 0); err == nil {
		t.Error("zero ∆ accepted")
	}
}

func TestDeltaTradeoffMonotone(t *testing.T) {
	// Fig 6's core shape: the bill decreases monotonically as ∆ grows.
	cities := workload.NewCities(1)
	series := workload.NewSeries(1)
	sim := &Simulation{Cities: cities, Series: series, ClientsPerRA: 10}

	deltas := []time.Duration{10 * time.Second, time.Minute, time.Hour, 24 * time.Hour}
	var prev float64 = math.Inf(1)
	for _, d := range deltas {
		avg, err := sim.AverageBill(Traffic{Delta: d})
		if err != nil {
			t.Fatal(err)
		}
		if avg >= prev {
			t.Errorf("∆=%v bill $%.0f not below ∆-smaller bill $%.0f", d, avg, prev)
		}
		prev = avg
	}
}

func TestFig6Magnitudes(t *testing.T) {
	// Shape targets from Fig 6 (10 clients per RA, largest-CRL CA):
	// ∆ = 10 s lands in the tens of thousands of USD per month; ∆ = 1 day
	// in the hundreds. Absolute values differ from the paper's (unknown
	// internal pricing assumptions); the orders of magnitude must hold.
	cities := workload.NewCities(1)
	series := workload.NewSeries(1)
	sim := &Simulation{Cities: cities, Series: series, ClientsPerRA: 10}

	fast, err := sim.AverageBill(Traffic{Delta: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if fast < 20_000 || fast > 120_000 {
		t.Errorf("∆=10s average bill = $%.0f, want tens of thousands (Fig 6: ≈$55k)", fast)
	}
	minute, err := sim.AverageBill(Traffic{Delta: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if minute < 5_000 || minute > 25_000 {
		t.Errorf("∆=1m average bill = $%.0f, want ≈$10k (Fig 6)", minute)
	}
	hour, err := sim.AverageBill(Traffic{Delta: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if hour < 800 || hour > 5_000 {
		t.Errorf("∆=1h average bill = $%.0f, want $1.5k–3.5k (Fig 6)", hour)
	}
	slow, err := sim.AverageBill(Traffic{Delta: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if slow < 100 || slow > 3_000 {
		t.Errorf("∆=1d average bill = $%.0f, want low (Fig 6: hundreds)", slow)
	}
	if fast/slow < 10 {
		t.Errorf("∆ leverage = %.1f×, want ≫ 10×", fast/slow)
	}
}

func TestTableIIScalesInverselyWithClientsPerRA(t *testing.T) {
	// Table II: cost ∝ 1/(clients per RA), because the RA count is.
	cities := workload.NewCities(1)
	series := workload.NewSeries(1)
	tr := Traffic{Delta: time.Minute}

	bill := func(clients int) float64 {
		t.Helper()
		sim := &Simulation{Cities: cities, Series: series, ClientsPerRA: clients}
		avg, err := sim.AverageBill(tr)
		if err != nil {
			t.Fatal(err)
		}
		return avg
	}
	b30, b250, b1000 := bill(30), bill(250), bill(1000)
	if ratio := b30 / b250; ratio < 6 || ratio > 10 {
		t.Errorf("30→250 clients ratio = %.2f, want ≈ 250/30 (tiering bends it slightly)", ratio)
	}
	if ratio := b250 / b1000; ratio < 3 || ratio > 5 {
		t.Errorf("250→1000 clients ratio = %.2f, want ≈ 4", ratio)
	}
	if !(b30 > b250 && b250 > b1000) {
		t.Error("bills not decreasing in clients per RA")
	}
}

func TestHeartbleedCycleVisible(t *testing.T) {
	// Fig 6: the April 2014 cycle costs visibly more than its neighbors
	// for every ∆ (more revocation bytes), most prominently at large ∆
	// where revocation bytes dominate the freshness heartbeat.
	cities := workload.NewCities(1)
	series := workload.NewSeries(1)
	sim := &Simulation{Cities: cities, Series: series, ClientsPerRA: 10}
	bills, err := sim.Run(Traffic{Delta: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if len(bills) != 18 {
		t.Fatalf("cycles = %d, want 18 (Jan 2014 – Jun 2015)", len(bills))
	}
	var april, march float64
	for _, b := range bills {
		if b.Year == 2014 && b.Month == time.April {
			april = b.TotalUSD
		}
		if b.Year == 2014 && b.Month == time.March {
			march = b.TotalUSD
		}
	}
	if april <= march*1.5 {
		t.Errorf("Heartbleed cycle $%.0f not prominent vs March $%.0f", april, march)
	}
}

func TestMonthlyBillRegionalBreakdown(t *testing.T) {
	cities := workload.NewCities(1)
	bill, err := MonthlyBill(cities, 10, Traffic{Delta: time.Hour}, 30*24*3600, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range workload.Regions() {
		usd, ok := bill.ByRegion[r]
		if !ok || usd <= 0 {
			t.Errorf("region %v missing from bill", r)
		}
		sum += usd
	}
	if math.Abs(sum-bill.TotalUSD) > 0.01 {
		t.Errorf("regional sum $%.2f != total $%.2f", sum, bill.TotalUSD)
	}
}
