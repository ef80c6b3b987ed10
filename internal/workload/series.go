// Package workload synthesizes the datasets the paper's evaluation
// consumes (§VII-A). The originals — the Internet Storm Center CRL
// collection, the CAcert CRL, and the MaxMind city database — are not
// redistributable, so this package generates deterministic substitutes
// whose aggregate statistics are pinned to the values the paper reports:
//
//   - 1,381,992 unique revocations across 254 CRLs, 5,440 per CRL on
//     average, largest CRL 339,557 entries / 7.5 MB;
//   - a revocation time series from January 2014 to June 2015 with the
//     Heartbleed burst peaking on 16–17 April 2014;
//   - 47,980 cities totalling 2.3 billion people for the RA population
//     model of §VII-C.
//
// Every generator is seeded, so experiments are reproducible bit-for-bit.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// Dataset constants reported in §VII-A.
const (
	// TotalRevocations is the number of unique revocations in the dataset.
	TotalRevocations = 1_381_992
	// NumCRLs is the number of distinct revocation lists (dictionaries).
	NumCRLs = 254
	// LargestCRLEntries is the entry count of the largest CRL (CAcert).
	LargestCRLEntries = 339_557
)

// SeriesStart and SeriesEnd bound the revocation time series (Fig 4).
var (
	SeriesStart = time.Date(2014, time.January, 1, 0, 0, 0, 0, time.UTC)
	SeriesEnd   = time.Date(2015, time.July, 1, 0, 0, 0, 0, time.UTC) // exclusive
)

// heartbleedExtra maps days in April 2014 to their burst multiplier
// relative to a normal day. The disclosure was 7 April 2014; mass
// revocation peaked on the 16th and 17th (Fig 4, bottom).
var heartbleedExtra = map[int]float64{
	8: 1.5, 9: 2, 10: 2.5, 11: 3, 12: 2.5, 13: 2.5,
	14: 3, 15: 5, 16: 9, 17: 8, 18: 4, 19: 2, 20: 1.5,
}

// burstProfile shapes hours within a Heartbleed day: mass-revocation jobs
// run in batches, so a few hours carry most of the load (Fig 4 bottom).
var burstProfile = [24]float64{
	1, 1, 1, 1, 2, 3, 10, 4, 2, 2, 3, 8,
	3, 2, 2, 2, 6, 2, 1, 1, 1, 1, 1, 1,
}

// calmProfile shapes hours of a normal day: mildly diurnal.
var calmProfile = [24]float64{
	2, 1, 1, 1, 1, 2, 3, 4, 5, 6, 6, 6,
	6, 6, 6, 5, 5, 4, 4, 3, 3, 3, 2, 2,
}

// Series is the synthetic revocation time series: one count per day from
// SeriesStart (inclusive) to SeriesEnd (exclusive), totalling exactly
// TotalRevocations.
type Series struct {
	start time.Time
	daily []int
}

// NewSeries generates the series deterministically from seed.
func NewSeries(seed uint64) *Series {
	rng := rand.New(rand.NewPCG(seed, seed^0xda7a5e7))
	days := int(SeriesEnd.Sub(SeriesStart).Hours() / 24)
	weights := make([]float64, days)
	var sum float64
	for i := range weights {
		date := SeriesStart.AddDate(0, 0, i)
		// Baseline: unit weight with ±15 % noise.
		w := 1 + 0.15*(2*rng.Float64()-1)
		if date.Year() == 2014 && date.Month() == time.April {
			if extra, ok := heartbleedExtra[date.Day()]; ok {
				w *= 1 + extra
			}
		}
		weights[i] = w
		sum += w
	}
	// Scale to the pinned total, assigning the rounding remainder to the
	// peak day so that the total is exact.
	daily := make([]int, days)
	total := 0
	peak := 0
	for i, w := range weights {
		daily[i] = int(math.Floor(w / sum * TotalRevocations))
		total += daily[i]
		if daily[i] > daily[peak] {
			peak = i
		}
	}
	daily[peak] += TotalRevocations - total
	return &Series{start: SeriesStart, daily: daily}
}

// dayIndex converts a date to a daily index.
func (s *Series) dayIndex(date time.Time) (int, error) {
	idx := int(date.UTC().Truncate(24*time.Hour).Sub(s.start).Hours() / 24)
	if idx < 0 || idx >= len(s.daily) {
		return 0, fmt.Errorf("workload: %v outside series range", date)
	}
	return idx, nil
}

// Weekly aggregates the series into calendar weeks of seven days from the
// start (the top plot of Fig 4). The final partial week is included.
func (s *Series) Weekly() []int {
	weeks := (len(s.daily) + 6) / 7
	out := make([]int, weeks)
	for i, d := range s.daily {
		out[i/7] += d
	}
	return out
}

// Monthly returns per-calendar-month totals in order, with labels.
type MonthCount struct {
	Year  int
	Month time.Month
	Count int
}

// Monthly aggregates the series into calendar months (the billing cycles
// of Fig 6).
func (s *Series) Monthly() []MonthCount {
	var out []MonthCount
	for i, d := range s.daily {
		date := s.start.AddDate(0, 0, i)
		if len(out) == 0 || out[len(out)-1].Year != date.Year() || out[len(out)-1].Month != date.Month() {
			out = append(out, MonthCount{Year: date.Year(), Month: date.Month()})
		}
		out[len(out)-1].Count += d
	}
	return out
}

// Hourly distributes a day's count over its 24 hours: bursty on Heartbleed
// days, mildly diurnal otherwise (Fig 4, bottom). The hourly counts sum
// exactly to the day's count.
func (s *Series) Hourly(date time.Time) ([24]int, error) {
	idx, err := s.dayIndex(date)
	if err != nil {
		return [24]int{}, err
	}
	profile := calmProfile
	if date.Year() == 2014 && date.Month() == time.April {
		if _, burst := heartbleedExtra[date.Day()]; burst {
			profile = burstProfile
		}
	}
	var profSum float64
	for _, p := range profile {
		profSum += p
	}
	var out [24]int
	day := s.daily[idx]
	assigned := 0
	maxH := 0
	for h := 0; h < 24; h++ {
		out[h] = int(float64(day) * profile[h] / profSum)
		assigned += out[h]
		if out[h] > out[maxH] {
			maxH = h
		}
	}
	out[maxH] += day - assigned
	return out, nil
}

// Bins aggregates the hours of [from, to) into bins of binHours hours,
// reproducing Fig 4's bottom plot at any granularity.
func (s *Series) Bins(from, to time.Time, binHours int) ([]int, error) {
	if binHours <= 0 {
		return nil, fmt.Errorf("workload: bin of %d hours", binHours)
	}
	var hours []int
	for day := from.UTC().Truncate(24 * time.Hour); day.Before(to); day = day.AddDate(0, 0, 1) {
		hourly, err := s.Hourly(day)
		if err != nil {
			return nil, err
		}
		for h := 0; h < 24; h++ {
			ts := day.Add(time.Duration(h) * time.Hour)
			if !ts.Before(from) && ts.Before(to) {
				hours = append(hours, hourly[h])
			}
		}
	}
	bins := make([]int, (len(hours)+binHours-1)/binHours)
	for i, h := range hours {
		bins[i/binHours] += h
	}
	return bins, nil
}

// HeartbleedWeek returns the bounds of the burst week the bandwidth
// experiment uses (Fig 7: 14–20 April 2014).
func HeartbleedWeek() (from, to time.Time) {
	return time.Date(2014, time.April, 14, 0, 0, 0, 0, time.UTC),
		time.Date(2014, time.April, 21, 0, 0, 0, 0, time.UTC)
}
