package workload

import (
	"math"
	"math/rand/v2"
)

// Corpus is the synthetic 254-CRL collection: per-CRL entry counts whose
// aggregate statistics match §VII-A exactly — NumCRLs lists, the largest
// with LargestCRLEntries entries, TotalRevocations in total (and therefore
// the reported per-CRL average). Sizes follow a Zipf-like distribution, as
// real CRL populations do (a few huge lists, a long tail of small ones).
type Corpus struct {
	sizes []int // descending; sizes[0] == LargestCRLEntries
}

// NewCorpus builds the corpus; its sizes are a fixed function of the
// paper's aggregates.
func NewCorpus() *Corpus {
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
	return &Corpus{sizes: sizes}
}

// Len returns the number of CRLs (NumCRLs).
func (c *Corpus) Len() int { return len(c.sizes) }

// Size returns CRL i's entry count (i = 0 is the largest).
func (c *Corpus) Size(i int) int { return c.sizes[i] }

// rngFor derives a sub-generator; shared helper for corpus consumers.
func rngFor(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}
