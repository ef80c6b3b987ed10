// Package costmodel reproduces the CDN cost evaluation of §VII-C (Fig 6,
// Table II): the monthly bill a CA pays a CloudFront-like CDN for
// disseminating its revocations to the worldwide RA population.
//
// The traffic model follows the dissemination protocol exactly: every RA
// pulls once per ∆, each pull carries the CA's 20-byte freshness
// statement, and each revocation issued during the month is downloaded
// once by each RA (at the dataset's CRL bytes-per-entry rate, §VII-A).
// Prices are CloudFront's 2015 regional, volume-tiered per-GB rates, and
// the RA population is proportional to city population (internal/workload).
package costmodel

import (
	"fmt"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/workload"
)

// Tier is one volume tier of a regional price list: the first UpToBytes of
// a month's regional traffic beyond the previous tiers costs USDPerGB.
type Tier struct {
	UpToBytes float64 // tier width in bytes; the last tier is unbounded
	USDPerGB  float64
}

const (
	tb = 1e12
	gb = 1e9
)

// pricing is CloudFront's 2015 per-GB data-transfer-out price list by
// region. Widths: 10 TB, 40 TB, 100 TB, 350 TB, 524 TB, 4 PB, then
// unbounded.
var pricing = map[workload.Region][]Tier{
	workload.RegionUnitedStates: tiers(0.085, 0.080, 0.060, 0.040, 0.030, 0.025, 0.020),
	workload.RegionEurope:       tiers(0.085, 0.080, 0.060, 0.040, 0.030, 0.025, 0.020),
	workload.RegionAsia:         tiers(0.140, 0.135, 0.120, 0.100, 0.080, 0.070, 0.060),
	workload.RegionJapan:        tiers(0.140, 0.135, 0.120, 0.100, 0.080, 0.070, 0.060),
	workload.RegionIndia:        tiers(0.170, 0.130, 0.110, 0.100, 0.100, 0.090, 0.080),
	workload.RegionSouthAmerica: tiers(0.250, 0.200, 0.180, 0.160, 0.140, 0.130, 0.125),
	workload.RegionAustralia:    tiers(0.140, 0.135, 0.120, 0.100, 0.095, 0.090, 0.085),
}

func tiers(rates ...float64) []Tier {
	widths := []float64{10 * tb, 40 * tb, 100 * tb, 350 * tb, 524 * tb, 4000 * tb, 0}
	out := make([]Tier, len(rates))
	for i, r := range rates {
		out[i] = Tier{UpToBytes: widths[i], USDPerGB: r}
	}
	return out
}

// BillForBytes prices bytes of monthly traffic in one region through its
// volume tiers.
func BillForBytes(region workload.Region, bytes float64) (float64, error) {
	ts, ok := pricing[region]
	if !ok {
		return 0, fmt.Errorf("costmodel: no pricing for region %v", region)
	}
	usd := 0.0
	remaining := bytes
	for i, t := range ts {
		width := t.UpToBytes
		if i == len(ts)-1 || width <= 0 || remaining < width {
			width = remaining
		}
		usd += width / gb * t.USDPerGB
		remaining -= width
		if remaining <= 0 {
			break
		}
	}
	return usd, nil
}

// SerialEntryBytes is the per-revocation dissemination payload the cost
// analysis charges for: the paper pins serial numbers at their 3-byte mode
// ("we use 3-byte serial numbers throughout this analysis", §VII-A).
const SerialEntryBytes = 3

// Traffic parameterizes one CA's dissemination load.
type Traffic struct {
	// Delta is the pull interval ∆.
	Delta time.Duration
	// FreshnessBytes is the per-pull heartbeat size. The default is the
	// 20-byte hash-chain value of §VI.
	FreshnessBytes int
	// EntryBytes is the bytes each revocation costs on the wire. The
	// default is SerialEntryBytes, the paper's 3-byte serial convention;
	// pass ≈22 B (the largest CRL's 7.5 MB over its 339,557 entries) to
	// charge full CRL-entry weight instead.
	EntryBytes float64
}

func (t Traffic) freshnessBytes() float64 {
	if t.FreshnessBytes > 0 {
		return float64(t.FreshnessBytes)
	}
	return cryptoutil.HashSize
}

func (t Traffic) entryBytes() float64 {
	if t.EntryBytes > 0 {
		return t.EntryBytes
	}
	return SerialEntryBytes
}

// BytesPerRA returns one RA's download volume over a period of
// periodSeconds during which the CA issued revocations new revocations:
// one freshness statement per pull plus every new revocation once.
func (t Traffic) BytesPerRA(periodSeconds int64, revocations int) (float64, error) {
	if t.Delta < time.Second {
		return 0, fmt.Errorf("costmodel: ∆ = %v, must be at least one second", t.Delta)
	}
	pulls := float64(periodSeconds) / t.Delta.Seconds()
	return pulls*t.freshnessBytes() + float64(revocations)*t.entryBytes(), nil
}

// Bill is one billing cycle's cost breakdown.
type Bill struct {
	// Cycle labels the billing cycle (1-based, as in Fig 6's x-axis).
	Cycle int
	// Year and Month identify the calendar month.
	Year  int
	Month time.Month
	// Revocations the CA issued during the cycle.
	Revocations int
	// BytesTotal is the global traffic the CA paid for.
	BytesTotal float64
	// ByRegion is the per-region cost in USD.
	ByRegion map[workload.Region]float64
	// TotalUSD is the cycle's bill.
	TotalUSD float64
}

// MonthlyBill prices one month (monthSeconds long, revocations issued) for
// a CA whose RAs are distributed per cities at clientsPerRA.
func MonthlyBill(cities *workload.Cities, clientsPerRA int, t Traffic, monthSeconds int64, revocations int) (*Bill, error) {
	perRA, err := t.BytesPerRA(monthSeconds, revocations)
	if err != nil {
		return nil, err
	}
	bill := &Bill{
		Revocations: revocations,
		ByRegion:    make(map[workload.Region]float64),
	}
	for region, ras := range cities.RAsByRegion(clientsPerRA) {
		bytes := perRA * float64(ras)
		usd, err := BillForBytes(region, bytes)
		if err != nil {
			return nil, err
		}
		bill.ByRegion[region] = usd
		bill.BytesTotal += bytes
		bill.TotalUSD += usd
	}
	return bill, nil
}

// Simulation reproduces Fig 6: per-billing-cycle bills for the CA owning
// the largest CRL, over the whole revocation series.
type Simulation struct {
	// Cities is the RA population model.
	Cities *workload.Cities
	// Series drives per-month revocation counts.
	Series *workload.Series
	// ClientsPerRA sizes the RA population (Fig 6 uses 10).
	ClientsPerRA int
	// CAShare is the fraction of all revocations issued by the billed CA.
	// Fig 6 bills the largest-CRL CA: ≈24.6 % of the dataset.
	CAShare float64
}

// LargestCAShare is the largest CRL's share of all revocations (§VII-A).
func LargestCAShare() float64 {
	return float64(workload.LargestCRLEntries) / float64(workload.TotalRevocations)
}

// Run produces one bill per calendar month of the series for the given ∆.
func (s *Simulation) Run(t Traffic) ([]*Bill, error) {
	share := s.CAShare
	if share == 0 {
		share = LargestCAShare()
	}
	months := s.Series.Monthly()
	bills := make([]*Bill, 0, len(months))
	for i, m := range months {
		monthSeconds := int64(daysIn(m.Year, m.Month)) * 24 * 3600
		revs := int(float64(m.Count) * share)
		bill, err := MonthlyBill(s.Cities, s.ClientsPerRA, t, monthSeconds, revs)
		if err != nil {
			return nil, err
		}
		bill.Cycle = i + 1
		bill.Year = m.Year
		bill.Month = m.Month
		bills = append(bills, bill)
	}
	return bills, nil
}

// AverageBill runs the simulation and averages the monthly totals — the
// quantity Table II reports per (∆, clients-per-RA) cell.
func (s *Simulation) AverageBill(t Traffic) (float64, error) {
	bills, err := s.Run(t)
	if err != nil {
		return 0, err
	}
	if len(bills) == 0 {
		return 0, nil
	}
	sum := 0.0
	for _, b := range bills {
		sum += b.TotalUSD
	}
	return sum / float64(len(bills)), nil
}

func daysIn(year int, month time.Month) int {
	return time.Date(year, month+1, 0, 0, 0, 0, 0, time.UTC).Day()
}
