package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"ritm/internal/dictionary"
	"ritm/internal/serial"
)

// Fixed constants of the canonical benchmark. README.md gives the
// rationale for each; a run that overrides any of them is stamped
// canonical=false and must never be compared against the baseline.
const (
	caID = dictionary.CAID("BENCH-CA")

	// canonicalN is the standing corpus: the largest CRL in the paper and
	// the repo's reference dictionary size since PR 4.
	canonicalN = 339557
	// delta is ∆, the dissemination interval (the smallest the paper
	// analyses and the default of ca.Config and ra.Config).
	delta = 10 * time.Second
	// edgeTTL is the pull-cache TTL of every edge tier (∆/2, the value the
	// repo's own loadgen and README deploy with).
	edgeTTL = delta / 2

	// siteCount and zipfS shape the bump_steady host mix: 4,096 sites
	// against the 1,024-entry default mint cache, so a measured share of
	// handshakes leaves the fast path.
	siteCount = 4096
	zipfS     = 1.1

	// hotSetSize serials take hotPerMille of the lookup draws; the rest are
	// never-repeated absent serials. Every checkEvery-th status is verified
	// against the CA key, and lookups are timed in batches of that size
	// because one lookup is shorter than the clock's resolution.
	hotSetSize  = 4096
	hotPerMille = 900
	checkEvery  = 1024

	// churnBatch is the number of fresh revocations per ∆ cycle.
	churnBatch = 1000

	// Phase-B open-loop rates, about a quarter of the phase-A closed-loop
	// capacity measured at the commit that added the benchmark. Constants:
	// never scaled to the machine, so a slower build shows as latency.
	bumpOpenRate   = 300.0
	injectOpenRate = 700.0
	// maxInflight caps concurrent open-loop operations, far above what a
	// healthy run reaches (gen.max_inflight); time spent waiting for a slot
	// counts as generator lateness.
	maxInflight = 64

	// setupRepeats is how often a run builds its stack; setup_s is the
	// median, the last build is the one measured.
	setupRepeats = 3
)

// serialDist is the 16-byte randomized-serial regime every generator in
// the benchmark draws from.
var serialDist = serial.SizeDistribution{{Bytes: 16, Weight: 1}}

// Seed streams: one PCG stream per purpose so that changing how many
// draws one consumer makes never shifts another's inputs.
const (
	streamCorpus = iota + 1
	streamSites
	streamHosts
	streamArrivals
	streamHot
	streamCold
	streamChurn
	streamProbe
)

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// randomSerial draws a 16-byte serial with a non-zero leading byte (the
// dictionary's minimal-encoding rule) straight from rng. Unlike
// serial.Generator it keeps no issued-set, so a lookup loop can draw
// millions; 128-bit collisions do not happen.
func randomSerial(rng *rand.Rand) serial.Number {
	var b [16]byte
	for i := 0; i < 16; i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	if b[0] == 0 {
		b[0] = 1
	}
	sn, err := serial.New(b[:])
	if err != nil {
		panic(err) // 16 bytes with a non-zero lead is always valid
	}
	return sn
}

// virtualClock is the clock injected through every layer's Now hook. The
// steady workloads never advance it (statuses stay fresh without a
// refresher); churn_mixed advances it ∆ per cycle so TTLs expire and
// freshness periods move as deployed, with no sleeping.
type virtualClock struct{ unixNano atomic.Int64 }

func newVirtualClock() *virtualClock {
	c := &virtualClock{}
	c.unixNano.Store(time.Now().UnixNano())
	return c
}

func (c *virtualClock) Now() time.Time          { return time.Unix(0, c.unixNano.Load()) }
func (c *virtualClock) Advance(d time.Duration) { c.unixNano.Add(int64(d)) }

// percentile returns the p-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// tailPercentile picks the highest reporting percentile that still has at
// least ten samples beyond it.
func tailPercentile(n int) (label string, p float64) {
	for _, c := range []struct {
		label string
		p     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}} {
		if float64(n)*(1-c.p) >= 10 {
			return c.label, c.p
		}
	}
	return "p50", 0.5
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procSample is a point-in-time reading of process-wide cost counters;
// the difference of two samples brackets a measured window.
type procSample struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	gcPause time.Duration
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
		gcPause: time.Duration(m.PauseTotalNs),
	}
}

// heapInuseMB forces a collection and reports the live heap.
func heapInuseMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// releaseMemory returns a torn-down stack's heap to the OS so repeated
// set-ups start from the same footing.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// timeOp reports the mean nanoseconds of fn over iters calls.
func timeOp(iters int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(start)) / float64(iters)
}

// allocsPerOp reports heap allocations per call of fn, measured quiesced
// on one P like testing.AllocsPerRun.
func allocsPerOp(iters int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}
