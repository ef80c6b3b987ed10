package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"ritm/internal/ra"
	"ritm/internal/storage"
)

// statusStack is everything status_read runs against: a heap writer RA
// persisting to a file backend and a shared reader RA serving from the
// writer's mapped checkpoint.
type statusStack struct {
	ctl    *control
	dir    string
	writer *ra.RA
	reader *ra.RA
	mix    *lookupMix
}

func buildStatusStack(cfg runConfig) (*statusStack, error) {
	s := &statusStack{}
	var err error
	if s.ctl, err = newControl(cfg, newVirtualClock()); err != nil {
		return nil, err
	}
	if s.dir, err = dataDir(cfg, "status_read"); err != nil {
		return nil, err
	}
	backend := storage.NewFileBackend(s.dir, false)
	if s.writer, err = s.ctl.persistedRA(cfg, s.ctl.dp, backend); err != nil {
		return nil, err
	}
	if s.reader, err = s.ctl.sharedReader(cfg, backend); err != nil {
		return nil, err
	}
	s.mix = newLookupMix(cfg.seed, s.ctl.corpus)
	return s, nil
}

func (s *statusStack) close() {
	if s.reader != nil {
		s.reader.Store().Close()
	}
	if s.writer != nil {
		s.writer.Store().Close()
	}
	if s.ctl != nil {
		s.ctl.close()
	}
	os.RemoveAll(s.dir)
}

func runStatusRead(cfg runConfig, tr *tracer) (*report, error) {
	rep := newReport()
	s, setupS, err := medianSetup(func() (*statusStack, error) { return buildStatusStack(cfg) })
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep.setN("setup_s", setupS, setupRepeats)
	cfg.logf("set-up: median %.3f s of %d builds (corpus %d; writer heap %.1f MB, reader mapped %.1f MB)",
		setupS, setupRepeats, cfg.n, float64(s.writer.Store().MemoryFootprint())/(1<<20),
		float64(s.reader.Store().MappedBytes())/(1<<20))

	statusBytes, proofHashes, err := meanStatusBytes(s.writer, s.mix)
	if err != nil {
		return nil, err
	}
	rep.setN("status_bytes", statusBytes, len(s.mix.hot))
	rep.set("dictionary.proof_hashes", proofHashes)

	// Worker 0 reads the heap writer, worker 1 the mapped reader.
	workers := []*lookupWorker{
		newLookupWorker(s.mix, s.writer, s.ctl, cfg.seed, 0, hotPerMille),
		newLookupWorker(s.mix, s.reader, s.ctl, cfg.seed, 1, hotPerMille),
	}
	// Warm-up: fill both caches to capacity, then run the mix unrecorded.
	fillStart := time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *lookupWorker) {
			defer wg.Done()
			w.fillCache(fillStart.Add(secondsDuration(5 * cfg.warmup)))
		}(w)
	}
	wg.Wait()
	cfg.logf("warm-up: caches filled to capacity in %.2f s (%d + %d entries), then %.0f s of the mix",
		time.Since(fillStart).Seconds(), s.writer.CacheStats().Entries, s.reader.CacheStats().Entries, cfg.warmup)
	runLookupWindow(workers, secondsDuration(cfg.warmup), false, nil)

	window := secondsDuration(cfg.seconds)
	var plainRate float64
	if tr != nil {
		// Traced run: first half untraced, second half traced.
		window /= 2
		start, end := runLookupWindow(workers, window, true, nil)
		plainRate = float64(workers[0].lookups+workers[1].lookups) / end.Sub(start).Seconds()
		collectLookups(rep, workers)
		for _, w := range workers {
			w.reset()
		}
	}
	cacheBefore := [2]ra.CacheStats{s.writer.CacheStats(), s.reader.CacheStats()}
	before := sampleProc()
	start, end := runLookupWindow(workers, window, true, tr)
	after := sampleProc()
	rep.set("heap_inuse_mb", heapInuseMB())
	collectLookups(rep, workers)

	from, to, gcCycles := bestGCCycle(workers, start, end)
	span := to.Sub(from).Seconds()
	var lookups [2]int64
	var batchMS []float64
	for i, w := range workers {
		n, durs := w.lookupsWithin(from, to)
		lookups[i] = n
		batchMS = append(batchMS, durs...)
	}
	total := lookups[0] + lookups[1]
	sorted := sortedCopy(batchMS)
	rep.setN("ops_per_s", float64(total)/span, int(total))
	rep.setN("latency_p50_ms", percentile(sorted, 0.5), len(sorted))
	rep.setN("diag.latency_p90_ms", percentile(sorted, 0.9), len(sorted))
	rep.setN("diag.latency_p99_ms", percentile(sorted, 0.99), len(sorted))
	rep.set("ra.lookups_per_s_heap", float64(lookups[0])/span)
	rep.set("ra.lookups_per_s_mapped", float64(lookups[1])/span)
	all := float64(workers[0].lookups + workers[1].lookups)
	elapsed := end.Sub(start).Seconds()
	rep.set("proc.cpu_s_per_op", (after.cpu-before.cpu).Seconds()/all)
	rep.set("proc.allocs_per_op", float64(after.mallocs-before.mallocs)/all)
	rep.set("proc.gc_pause_ms_per_s", ms(after.gcPause-before.gcPause)/elapsed)
	if plainRate > 0 {
		rep.set("trace.overhead_pct", 100*(1-all/elapsed/plainRate))
	}
	// Both stores' caches, pooled.
	var cb, ca ra.CacheStats
	for i, agent := range []*ra.RA{s.writer, s.reader} {
		now := agent.CacheStats()
		cb.Hits, cb.Misses, cb.Evictions = cb.Hits+cacheBefore[i].Hits, cb.Misses+cacheBefore[i].Misses, cb.Evictions+cacheBefore[i].Evictions
		ca.Hits, ca.Misses, ca.Evictions = ca.Hits+now.Hits, ca.Misses+now.Misses, ca.Evictions+now.Evictions
	}
	setCacheDeltas(rep, cb, ca)
	label, p := tailPercentile(len(sorted))
	cfg.logf("closed loop, 2 workers (heap writer + mapped reader): %.0f lookups in %.2f s; %d whole GC cycles in the window, rate and latency over the fastest (%.2f s): %d lookups, per-%d-lookup batch p50 %.3f ms p90 %.3f ms %s %.3f ms",
		all, elapsed, gcCycles, span, total, checkEvery, percentile(sorted, 0.5), percentile(sorted, 0.9), label, percentile(sorted, p))

	if tr != nil {
		if err := s.probes(cfg, rep); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	return rep, nil
}
