package workload

import (
	"math"
)

// City-population model for the cost evaluation (§VII-C): the paper sizes
// the RA population proportionally to city populations from MaxMind —
// 47,980 cities, 2.3 billion people — and maps each city to the CDN
// pricing region serving it.

// Dataset constants reported in §VII-C.
const (
	// NumCities is the number of cities in the dataset.
	NumCities = 47_980
	// TotalPopulation is the dataset's total population.
	TotalPopulation = 2_300_000_000
)

// Region is a CDN pricing region (CloudFront's 2015 regional price list).
type Region int

// Pricing regions. Cities outside a listed region are served by the
// nearest one, as CloudFront does (Africa and the Middle East map to
// Europe, Canada to the United States rate).
const (
	RegionUnitedStates Region = iota + 1
	RegionEurope
	RegionAsia // Hong Kong, Singapore, South Korea, Taiwan
	RegionJapan
	RegionIndia
	RegionSouthAmerica
	RegionAustralia
	numRegions = int(RegionAustralia)
)

// String names the region.
func (r Region) String() string {
	switch r {
	case RegionUnitedStates:
		return "United States"
	case RegionEurope:
		return "Europe"
	case RegionAsia:
		return "Asia"
	case RegionJapan:
		return "Japan"
	case RegionIndia:
		return "India"
	case RegionSouthAmerica:
		return "South America"
	case RegionAustralia:
		return "Australia"
	default:
		return "Region(?)"
	}
}

// Regions lists all pricing regions.
func Regions() []Region {
	out := make([]Region, numRegions)
	for i := range out {
		out[i] = Region(i + 1)
	}
	return out
}

// regionShare is each region's share of the dataset population. MaxMind's
// city database covers 2.3 B people — roughly a third of the world — with
// coverage heavily skewed toward North America and Europe, which the
// shares reflect (Canada and Mexico are served at the US rate; Africa and
// the Middle East from European edges, as CloudFront routes them).
var regionShare = map[Region]float64{
	RegionUnitedStates: 0.22,
	RegionEurope:       0.43,
	RegionAsia:         0.12,
	RegionJapan:        0.04,
	RegionIndia:        0.06,
	RegionSouthAmerica: 0.10,
	RegionAustralia:    0.03,
}

// City is one entry of the synthetic city dataset.
type City struct {
	Population int
	Region     Region
}

// Cities is the synthetic city-population dataset.
type Cities struct {
	list     []City
	byRegion map[Region]int64
}

// NewCities builds the dataset deterministically from seed: NumCities
// cities with Zipf-distributed populations summing to TotalPopulation,
// each assigned a pricing region with probability proportional to the
// region shares.
func NewCities(seed uint64) *Cities {
	rng := rngFor(seed, 0xC171E5)
	// Zipf weights over city ranks: population of rank-k city ∝ 1/k^s.
	// s ≈ 0.8 reproduces the heavy head (megacities) and long tail of real
	// city-size distributions without leaving the tail at zero.
	const s = 0.8
	weights := make([]float64, NumCities)
	var sum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
		sum += weights[i]
	}
	c := &Cities{
		list:     make([]City, NumCities),
		byRegion: make(map[Region]int64, numRegions),
	}
	regions := Regions()
	assigned := int64(0)
	for i := range c.list {
		pop := int(float64(TotalPopulation) * weights[i] / sum)
		if pop < 1 {
			pop = 1
		}
		// Region sampled by share; independent of size so every region gets
		// its slice of megacities and villages.
		x := rng.Float64()
		region := regions[len(regions)-1]
		acc := 0.0
		for _, r := range regions {
			acc += regionShare[r]
			if x < acc {
				region = r
				break
			}
		}
		c.list[i] = City{Population: pop, Region: region}
		assigned += int64(pop)
	}
	// Pin the exact total on the largest city.
	c.list[0].Population += int(TotalPopulation - assigned)
	for _, city := range c.list {
		c.byRegion[city.Region] += int64(city.Population)
	}
	return c
}

// RAsByRegion distributes the RA population over pricing regions
// proportionally to city population.
func (c *Cities) RAsByRegion(clientsPerRA int) map[Region]int64 {
	out := make(map[Region]int64, numRegions)
	for r, pop := range c.byRegion {
		out[r] = pop / int64(clientsPerRA)
	}
	return out
}
