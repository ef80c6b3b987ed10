package workload

import (
	"math"
	"math/rand/v2"

	"ritm/internal/serial"
)

// Corpus is the synthetic 254-CRL collection: per-CRL entry counts whose
// aggregate statistics match §VII-A exactly — NumCRLs lists, the largest
// with LargestCRLEntries entries, TotalRevocations in total (and therefore
// the reported per-CRL average). Sizes follow a Zipf-like distribution, as
// real CRL populations do (a few huge lists, a long tail of small ones).
type Corpus struct {
	sizes []int // descending; sizes[0] == LargestCRLEntries
	seed  uint64
}

// NewCorpus builds the corpus deterministically from seed.
func NewCorpus(seed uint64) *Corpus {
	// The largest CRL is pinned; distribute the remaining mass over the
	// other 253 lists with Zipf weights 1/rank^s.
	remaining := TotalRevocations - LargestCRLEntries
	const s = 0.82 // tuned so the tail stays plausibly heavy but non-empty
	weights := make([]float64, NumCRLs-1)
	var sum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+2), s)
		sum += weights[i]
	}
	sizes := make([]int, NumCRLs)
	sizes[0] = LargestCRLEntries
	assigned := 0
	for i, w := range weights {
		sizes[i+1] = int(float64(remaining) * w / sum)
		assigned += sizes[i+1]
	}
	// Rounding remainder goes to the second-largest list; every list keeps
	// at least one entry.
	sizes[1] += remaining - assigned
	for i := range sizes {
		if sizes[i] < 1 {
			sizes[i] = 1
		}
	}
	return &Corpus{sizes: sizes, seed: seed}
}

// Len returns the number of CRLs (NumCRLs).
func (c *Corpus) Len() int { return len(c.sizes) }

// Size returns CRL i's entry count (i = 0 is the largest).
func (c *Corpus) Size(i int) int { return c.sizes[i] }

// Total returns the corpus total (TotalRevocations up to the ≥1-entry
// floor adjustment, which tests bound).
func (c *Corpus) Total() int {
	total := 0
	for _, n := range c.sizes {
		total += n
	}
	return total
}

// Average returns the mean entries per CRL.
func (c *Corpus) Average() float64 {
	return float64(c.Total()) / float64(c.Len())
}

// EntryBytes is the average bytes per CRL entry, derived from the largest
// CRL's reported size (7.5 MB / 339,557 entries ≈ 22 B: serial number,
// revocation date, and per-entry DER overhead).
func EntryBytes() float64 {
	return float64(LargestCRLBytes) / float64(LargestCRLEntries)
}

// SerialGenerator returns the deterministic serial generator for CRL i
// (one CA's serial space), using the paper's serial-size distribution with
// its 3-byte mode.
func (c *Corpus) SerialGenerator(i int) *serial.Generator {
	return serial.NewGenerator(c.seed^uint64(i)*0x9e3779b97f4a7c15+uint64(i), nil)
}

// Serials materializes CRL i's entries. The largest list allocates ~340 k
// serials; callers that only need counts should use Size.
func (c *Corpus) Serials(i int) []serial.Number {
	return c.SerialGenerator(i).NextN(c.sizes[i])
}

// SampleAbsent returns count serials guaranteed absent from CRL i's
// generated entries (drawn from a disjoint seeded stream and filtered),
// used by lookup benchmarks that need misses.
func (c *Corpus) SampleAbsent(i, count int) []serial.Number {
	present := make(map[string]struct{}, c.sizes[i])
	for _, sn := range c.Serials(i) {
		present[string(sn.Raw())] = struct{}{}
	}
	gen := serial.NewGenerator(c.seed^0xABBA^uint64(i), nil)
	out := make([]serial.Number, 0, count)
	for len(out) < count {
		sn := gen.Next()
		if _, dup := present[string(sn.Raw())]; !dup {
			out = append(out, sn)
		}
	}
	return out
}

// rngFor derives a sub-generator; shared helper for corpus consumers.
func rngFor(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}
