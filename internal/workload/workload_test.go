package workload

import (
	"testing"
	"time"
)

func TestSeriesTotalPinned(t *testing.T) {
	s := NewSeries(1)
	total := 0
	for _, d := range s.daily {
		total += d
	}
	if total != TotalRevocations {
		t.Fatalf("total = %d, want %d", total, TotalRevocations)
	}
	if got := len(s.daily); got != 546 {
		t.Errorf("days = %d, want 546 (Jan 2014 – Jun 2015)", got)
	}
}

func TestSeriesDeterministic(t *testing.T) {
	a, b := NewSeries(7), NewSeries(7)
	da, db := a.daily, b.daily
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("day %d differs: %d vs %d", i, da[i], db[i])
		}
	}
	c := NewSeries(8)
	diff := false
	for i, d := range c.daily {
		if d != da[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical series")
	}
}

func TestSeriesHeartbleedShape(t *testing.T) {
	s := NewSeries(1)
	weekly := s.Weekly()

	// Baseline weeks (before April 2014) sit in the ~16 k/week band.
	for w := 0; w < 13; w++ {
		if weekly[w] < 10_000 || weekly[w] > 25_000 {
			t.Errorf("baseline week %d = %d, want 10k–25k", w, weekly[w])
		}
	}

	// The Heartbleed week dominates every other week.
	hbFrom, hbTo := HeartbleedWeek()
	hbCount := 0
	for day := hbFrom; day.Before(hbTo); day = day.AddDate(0, 0, 1) {
		idx, err := s.dayIndex(day)
		if err != nil {
			t.Fatal(err)
		}
		hbCount += s.daily[idx]
	}
	if hbCount < 55_000 || hbCount > 100_000 {
		t.Errorf("Heartbleed week = %d, want 55k–100k (Fig 4 peak)", hbCount)
	}
	maxWeek := 0
	for _, w := range weekly {
		if w > maxWeek {
			maxWeek = w
		}
	}
	if hbCount < maxWeek*8/10 {
		t.Errorf("Heartbleed week (%d) is not the dominant peak (max %d)", hbCount, maxWeek)
	}

	// The peak day is April 16, 2014.
	idx, err := s.dayIndex(time.Date(2014, time.April, 16, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	peak := s.daily[idx]
	for _, d := range s.daily {
		if d > peak {
			t.Fatalf("a day exceeds April 16 (%d > %d)", d, peak)
		}
	}
}

func TestSeriesHourlySumsToDay(t *testing.T) {
	s := NewSeries(1)
	for _, date := range []time.Time{
		time.Date(2014, time.February, 3, 0, 0, 0, 0, time.UTC),
		time.Date(2014, time.April, 16, 0, 0, 0, 0, time.UTC),
	} {
		idx, err := s.dayIndex(date)
		if err != nil {
			t.Fatal(err)
		}
		day := s.daily[idx]
		hourly, err := s.Hourly(date)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, h := range hourly {
			if h < 0 {
				t.Fatalf("negative hourly count on %v", date)
			}
			sum += h
		}
		if sum != day {
			t.Errorf("%v: hourly sum %d != day %d", date, sum, day)
		}
	}
}

func TestSeriesBinsMatchFig4Bottom(t *testing.T) {
	s := NewSeries(1)
	from := time.Date(2014, time.April, 16, 0, 0, 0, 0, time.UTC)
	to := time.Date(2014, time.April, 18, 0, 0, 0, 0, time.UTC)
	bins, err := s.Bins(from, to, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 16 {
		t.Fatalf("3-hour bins over two days = %d, want 16", len(bins))
	}
	peak := 0
	for _, b := range bins {
		if b > peak {
			peak = b
		}
	}
	// Fig 4 bottom: bursts reaching the 6k–10k band.
	if peak < 4_000 || peak > 12_000 {
		t.Errorf("peak 3-hour bin = %d, want 4k–12k", peak)
	}
}

func TestSeriesRangeErrors(t *testing.T) {
	s := NewSeries(1)
	if _, err := s.dayIndex(time.Date(2013, time.December, 31, 0, 0, 0, 0, time.UTC)); err == nil {
		t.Error("date before series accepted")
	}
	if _, err := s.dayIndex(SeriesEnd); err == nil {
		t.Error("date at series end accepted")
	}
}

func TestCorpusAggregates(t *testing.T) {
	c := NewCorpus()
	if c.Len() != NumCRLs {
		t.Fatalf("len = %d, want %d", c.Len(), NumCRLs)
	}
	if c.Size(0) != LargestCRLEntries {
		t.Errorf("largest = %d, want %d", c.Size(0), LargestCRLEntries)
	}
	// The ≥1-entry floor may add a handful of entries over the pinned
	// total; it must stay within NumCRLs of it.
	total := 0
	for _, n := range c.sizes {
		total += n
	}
	if diff := total - TotalRevocations; diff < 0 || diff > NumCRLs {
		t.Errorf("total = %d, want %d (+≤%d)", total, TotalRevocations, NumCRLs)
	}
	// The paper reports 5,440 entries per CRL on average.
	if avg := float64(total) / float64(c.Len()); avg < 5_000 || avg > 6_000 {
		t.Errorf("average = %f, want ≈5,440", avg)
	}
	// Sizes are descending-ish: the head dominates the tail.
	if c.Size(1) >= c.Size(0) {
		t.Error("second CRL not smaller than the largest")
	}
	if c.Size(NumCRLs-1) < 1 {
		t.Error("tail CRL is empty")
	}
}

func TestCitiesAggregates(t *testing.T) {
	c := NewCities(1)
	if len(c.list) != NumCities {
		t.Fatalf("cities = %d, want %d", len(c.list), NumCities)
	}
	var people int64
	for _, city := range c.list {
		people += int64(city.Population)
	}
	if people != TotalPopulation {
		t.Fatalf("population = %d, want %d", people, TotalPopulation)
	}
	// §VII-C: 10 clients per RA → 230 M RAs.
	if ras := people / 10; ras != 230_000_000 {
		t.Errorf("RAs at 10 clients each = %d, want 230,000,000", ras)
	}
	// Every pricing region is populated and shares roughly follow the
	// configured distribution.
	byRegion := c.RAsByRegion(10)
	var sum int64
	for _, r := range Regions() {
		if byRegion[r] <= 0 {
			t.Errorf("region %v has no RAs", r)
		}
		sum += byRegion[r]
	}
	if diff := sum - 230_000_000; diff > int64(numRegions) || diff < -230_000_000/100 {
		t.Errorf("regional RAs sum to %d", sum)
	}
	// MaxMind's coverage skew: US + Europe carry the majority.
	west := float64(c.byRegion[RegionUnitedStates]+c.byRegion[RegionEurope]) /
		float64(TotalPopulation)
	if west < 0.55 || west > 0.75 {
		t.Errorf("US+EU share = %f, want ≈0.65", west)
	}
}
