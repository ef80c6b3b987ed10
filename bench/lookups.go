package main

import (
	"fmt"
	"math/rand/v2"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"ritm/internal/dictionary"
	"ritm/internal/ra"
	"ritm/internal/serial"
)

// lookupMix is the status-lookup traffic of status_read and churn_mixed:
// a hot set of serials, half revoked and half absent, and a stream of
// never-repeated absent serials that always prove, encode and fill the
// cache.
type lookupMix struct {
	hot     []serial.Number
	revoked []bool // hot[i] is in the corpus
}

func newLookupMix(seed uint64, corpus []serial.Number) *lookupMix {
	rng := newRNG(seed, streamHot)
	m := &lookupMix{}
	half := hotSetSize / 2
	if half > len(corpus) {
		half = len(corpus)
	}
	for _, i := range rng.Perm(len(corpus))[:half] {
		m.hot = append(m.hot, corpus[i])
		m.revoked = append(m.revoked, true)
	}
	for i := 0; i < half; i++ {
		m.hot = append(m.hot, randomSerial(rng))
		m.revoked = append(m.revoked, false)
	}
	return m
}

// batchSample is one timed batch of checkEvery lookups.
type batchSample struct {
	end time.Time
	ms  float64
	gc  uint64 // completed GC cycles when the batch ended
}

// lookupWorker is one closed-loop lookup goroutine's state.
type lookupWorker struct {
	mix   *lookupMix
	agent *ra.RA
	pub   []byte
	clk   *virtualClock
	draw  *rand.Rand // hot-set choices
	cold  *rand.Rand // never-repeated serials
	// hotPerMille of the draws come from the hot set, the rest are
	// never-repeated serials.
	hotPerMille int

	lookups int64
	failed  int64
	batches []batchSample
	firstEr error
	gcCount []metrics.Sample
}

func newLookupWorker(mix *lookupMix, agent *ra.RA, c *control, seed uint64, id uint64, hotPerMille int) *lookupWorker {
	return &lookupWorker{
		mix:         mix,
		agent:       agent,
		pub:         c.ca.PublicKey(),
		clk:         c.clk,
		draw:        newRNG(seed, streamHosts<<8|id),
		cold:        newRNG(seed, streamCold<<8|id),
		hotPerMille: hotPerMille,
		gcCount:     []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}},
	}
}

func (w *lookupWorker) fail(err error) {
	w.failed++
	if w.firstEr == nil {
		w.firstEr = err
	}
}

// batch runs checkEvery lookups; the last one is verified against the CA
// key the way a client would. Every status's proof kind is compared with
// what the generator knows about the serial.
func (w *lookupWorker) batch(hotPerMille int) {
	for i := 0; i < checkEvery; i++ {
		var sn serial.Number
		wantRevoked := false
		if w.draw.IntN(1000) < hotPerMille {
			j := w.draw.IntN(len(w.mix.hot))
			sn, wantRevoked = w.mix.hot[j], w.mix.revoked[j]
		} else {
			sn = randomSerial(w.cold)
		}
		w.lookups++
		st, enc, err := w.agent.StatusEncoded(caID, sn)
		if err != nil {
			w.fail(err)
			continue
		}
		if len(enc) == 0 || (st.Proof.Kind == dictionary.ProofPresence) != wantRevoked {
			w.fail(fmt.Errorf("status for %v: kind %v, want revoked=%v", sn, st.Proof.Kind, wantRevoked))
			continue
		}
		if i == checkEvery-1 {
			res, err := st.Check(sn, w.pub, w.clk.Now().Unix())
			if err != nil {
				w.fail(fmt.Errorf("check %v: %w", sn, err))
			} else if (res == dictionary.CheckRevoked) != wantRevoked {
				w.fail(fmt.Errorf("check %v: result %v, want revoked=%v", sn, res, wantRevoked))
			}
		}
	}
}

// fillCache looks up never-repeated serials until the agent's status
// cache starts evicting (or deadline passes), so the measured window
// starts with the cache — and the heap — at its steady size instead of
// spending its first seconds growing.
func (w *lookupWorker) fillCache(deadline time.Time) {
	before := w.lookups
	for time.Now().Before(deadline) && w.agent.CacheStats().Evictions == 0 {
		w.batch(0)
	}
	w.lookups = before
}

// run loops batches until deadline, recording each when record is set.
// Spans are per batch: one lookup is far below the cost of a span.
func (w *lookupWorker) run(deadline time.Time, record bool, tr *tracer, op int64) {
	for time.Now().Before(deadline) {
		id := tr.begin("ra.StatusEncoded×1024", -1, op)
		start := time.Now()
		before := w.lookups
		w.batch(w.hotPerMille)
		end := time.Now()
		tr.end(id)
		if !record {
			w.lookups = before
			continue
		}
		metrics.Read(w.gcCount)
		w.batches = append(w.batches, batchSample{end: end, ms: ms(end.Sub(start)), gc: w.gcCount[0].Value.Uint64()})
	}
}

// reset drops what the worker recorded so far (counts stay in the
// report's attempted total through the caller).
func (w *lookupWorker) reset() { w.lookups, w.batches = 0, nil }

// runLookupWindow runs the workers concurrently for d and returns the
// window's start and end.
func runLookupWindow(workers []*lookupWorker, d time.Duration, record bool, tr *tracer) (time.Time, time.Time) {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *lookupWorker) {
			defer wg.Done()
			w.run(deadline, record, tr, int64(i))
		}(i, w)
	}
	wg.Wait()
	return start, time.Now()
}

// bestGCCycle narrows [start, end] to the one whole garbage-collection
// cycle inside it — completion to completion, as seen by the workers'
// batch samples — during which the workers looked up fastest. With both
// 262 k-entry status caches full the live heap is 3 GB: a cycle lasts ~7 s,
// its mark phase ~3 s, and batches run 4× slower while it marks, so the
// rate over a fixed window depends on how many mark phases it happens to
// hold (±15 % from that alone). A whole cycle holds exactly one. The best
// of the window's cycles is taken, not their mean, because the sandbox's
// other tenants only ever slow a cycle down (see perSecond). With no whole
// cycle inside the window the whole window is used.
func bestGCCycle(workers []*lookupWorker, start, end time.Time) (from, to time.Time, cycles int) {
	// Completion times: the first batch end at which any worker saw the
	// collector's cycle counter at a new value.
	seen := map[uint64]time.Time{}
	for _, w := range workers {
		for i := 1; i < len(w.batches); i++ {
			gc, at := w.batches[i].gc, w.batches[i].end
			if gc == w.batches[i-1].gc {
				continue
			}
			if t, ok := seen[gc]; !ok || at.Before(t) {
				seen[gc] = at
			}
		}
	}
	var done []time.Time
	for _, t := range seen {
		done = append(done, t)
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	from, to = start, end
	best := 0.0
	for i := 1; i < len(done); i++ {
		var n int64
		for _, w := range workers {
			c, _ := w.lookupsWithin(done[i-1], done[i])
			n += c
		}
		if rate := float64(n) / done[i].Sub(done[i-1]).Seconds(); rate > best {
			best, from, to = rate, done[i-1], done[i]
		}
	}
	if len(done) > 1 {
		cycles = len(done) - 1
	}
	return from, to, cycles
}

// lookupsWithin counts a worker's lookups and collects its batch
// durations for the batches that ended in (from, to].
func (w *lookupWorker) lookupsWithin(from, to time.Time) (int64, []float64) {
	var n int64
	var durs []float64
	for _, b := range w.batches {
		if b.end.After(from) && !b.end.After(to) {
			n += checkEvery
			durs = append(durs, b.ms)
		}
	}
	return n, durs
}

// collectLookups folds the workers' counts and failures into the report.
func collectLookups(rep *report, workers []*lookupWorker) {
	for _, w := range workers {
		rep.attempted += w.lookups
		for i := int64(0); i < w.failed; i++ {
			rep.fail(w.firstEr)
		}
		w.failed = 0
	}
}

// meanStatusBytes is the status_bytes metric: the mean encoded size of
// the statuses for the hot set (half presence, half absence proofs) —
// what the RA attaches to a handshake at this dictionary size. A mean
// over 4,096 serials, because one serial's proof depth varies with where
// the seed happens to put it in the tree. The second result is the mean
// number of audit-path hashes per status.
func meanStatusBytes(agent *ra.RA, mix *lookupMix) (float64, float64, error) {
	var bytes, hashes float64
	for _, sn := range mix.hot {
		st, enc, err := agent.StatusEncoded(caID, sn)
		if err != nil {
			return 0, 0, err
		}
		bytes += float64(len(enc))
		for _, leaf := range []*dictionary.ProofLeaf{st.Proof.Left, st.Proof.Right} {
			if leaf != nil {
				hashes += float64(len(leaf.Path))
			}
		}
	}
	n := float64(len(mix.hot))
	return bytes / n, hashes / n, nil
}
