package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"ritm/internal/cdn"
	"ritm/internal/dictionary"
	"ritm/internal/ra"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// churnStack is the full dissemination stack over loopback HTTP:
// CA → origin → 1 region edge → 2 PoP edges → 2 writer RAs (writer 0
// checkpointing every batch) + 1 shared reader of writer 0's checkpoints.
type churnStack struct {
	ctl     *control
	dir     string
	origin  *httpTier
	region  *httpTier
	pops    [2]*httpTier
	writers [2]*ra.RA
	reader  *ra.RA
	mix     *lookupMix
}

func buildChurnStack(cfg runConfig) (*churnStack, error) {
	s := &churnStack{}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	var err error
	clk := newVirtualClock()
	if s.ctl, err = newControl(cfg, clk); err != nil {
		return nil, err
	}
	if s.origin, err = serveOrigin(s.ctl.dp, clk); err != nil {
		return nil, err
	}
	if s.region, err = serveEdge(s.origin.url(), clk); err != nil {
		return nil, err
	}
	for i := range s.pops {
		if s.pops[i], err = serveEdge(s.region.url(), clk); err != nil {
			return nil, err
		}
	}
	if s.dir, err = dataDir(cfg, "churn_mixed"); err != nil {
		return nil, err
	}
	// Writer 0 checkpoints into the in-memory backend: on a file backend
	// every install fsyncs ~24 MB, and on this sandbox's disk that takes
	// 150–1,300 ms from one cycle to the next, which buried every other
	// step of the cycle. The durable tier's own cost is probed on a
	// benchmark-owned file log (storage.* metrics); s.dir holds that log.
	backend := storage.NewMemory()
	if s.writers[0], err = s.ctl.persistedRA(cfg, &cdn.HTTPClient{BaseURL: s.pops[0].url()}, backend); err != nil {
		return nil, err
	}
	if s.writers[1], err = s.ctl.heapRA(cfg, &cdn.HTTPClient{BaseURL: s.pops[1].url()}); err != nil {
		return nil, err
	}
	if s.reader, err = s.ctl.sharedReader(cfg, backend); err != nil {
		return nil, err
	}
	s.mix = newLookupMix(cfg.seed, s.ctl.corpus)
	ok = true
	return s, nil
}

func (s *churnStack) close() {
	if s.reader != nil {
		s.reader.Store().Close()
	}
	for _, w := range s.writers {
		if w != nil {
			w.Store().Close()
		}
	}
	for _, t := range []*httpTier{s.pops[0], s.pops[1], s.region, s.origin} {
		if t != nil {
			t.close()
		}
	}
	if s.ctl != nil {
		s.ctl.close()
	}
	os.RemoveAll(s.dir)
}

// cycleResult is one ∆ cycle's measurements.
type cycleResult struct {
	propagationMS float64
	hashedNodes   uint64
	pullBytes     int64
	msg           *dictionary.IssuanceMessage
}

// cycle runs one ∆ end to end: the clock moves ∆, the CA revokes a fresh
// batch and refreshes, every writer pulls, the reader re-maps, and the
// batch's first serial — absent before — must now come back from the last
// RA as a presence proof the CA key verifies. Propagation runs from
// CA.Revoke's entry to that verified status.
func (s *churnStack) cycle(gen *serial.Generator, tr *tracer, op int64) (cycleResult, error) {
	var res cycleResult
	root := tr.begin("cycle", -1, op)
	defer tr.end(root)
	step := func(name string, fn func() error) error {
		id := tr.begin(name, root, op)
		err := fn()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	var batch []serial.Number
	var victim serial.Number
	err := step("bench.prepare", func() error {
		s.ctl.clk.Advance(delta)
		batch = gen.NextN(churnBatch)
		victim = batch[0]
		st, _, err := s.reader.StatusEncoded(caID, victim)
		if err != nil {
			return err
		}
		if st.Proof.Kind == dictionary.ProofPresence {
			return errors.New("victim already revoked before its cycle")
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	hashedBefore := s.ctl.ca.Authority().HashedNodes()
	bytesBefore := s.pops[0].edge.Stats().BytesServed

	start := time.Now()
	if err := step("ca.Revoke", func() error {
		msg, err := s.ctl.ca.Revoke(batch...)
		res.msg = msg
		return err
	}); err != nil {
		return res, err
	}
	if err := step("ca.PublishRefresh", s.ctl.ca.PublishRefresh); err != nil {
		return res, err
	}
	if err := step("ra.SyncOnce[writer0]", s.writers[0].SyncOnce); err != nil {
		return res, err
	}
	if err := step("ra.SyncOnce[writer1]", s.writers[1].SyncOnce); err != nil {
		return res, err
	}
	if err := step("ra.SyncOnce[reader]", s.reader.SyncOnce); err != nil {
		return res, err
	}
	var st *dictionary.Status
	if err := step("ra.StatusEncoded[reader]", func() error {
		var err error
		st, _, err = s.reader.StatusEncoded(caID, victim)
		return err
	}); err != nil {
		return res, err
	}
	if err := step("dictionary.Status.Check", func() error {
		got, err := st.Check(victim, s.ctl.ca.PublicKey(), s.ctl.clk.Now().Unix())
		if err != nil {
			return err
		}
		if got != dictionary.CheckRevoked {
			return errors.New("victim still absent on the reader after a full cycle")
		}
		return nil
	}); err != nil {
		return res, err
	}
	res.propagationMS = ms(time.Since(start))
	res.hashedNodes = s.ctl.ca.Authority().HashedNodes() - hashedBefore
	res.pullBytes = s.pops[0].edge.Stats().BytesServed - bytesBefore
	return res, nil
}

func runChurn(cfg runConfig, tr *tracer) (*report, error) {
	rep := newReport()
	s, setupS, err := medianSetup(func() (*churnStack, error) { return buildChurnStack(cfg) })
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep.setN("setup_s", setupS, setupRepeats)
	cfg.logf("set-up: median %.3f s of %d builds (corpus %d; origin %s → region %s → PoPs %s, %s)",
		setupS, setupRepeats, cfg.n, s.origin.url(), s.region.url(), s.pops[0].url(), s.pops[1].url())

	statusBytes, proofHashes, err := meanStatusBytes(s.writers[1], s.mix)
	if err != nil {
		return nil, err
	}
	rep.setN("status_bytes", statusBytes, len(s.mix.hot))
	rep.set("dictionary.proof_hashes", proofHashes)

	gen := serial.NewGenerator(cfg.seed<<8|streamChurn, serialDist)
	// Goroutine 2 looks up the hot set only. With the never-repeated share
	// of status_read in the mix, writer 1's cache holds 262k dead-but-
	// reachable statuses after every generation bump; marking that heap
	// took the collector seconds per cycle and the ∆ cycles' timing became
	// a measurement of where the mark phases fell (propagation p50
	// 410–1,080 ms over eight identical runs). The hot set still pays every
	// cycle's invalidation, and a rebuild that blocks readers still shows.
	reader := newLookupWorker(s.mix, s.writers[1], s.ctl, cfg.seed, 0, 1000)

	// window runs goroutine 1 (∆ cycles back to back) beside goroutine 2
	// (hot-set lookups against writer 1) for d.
	var op int64
	window := func(d time.Duration, record bool, tr *tracer) (cycles []cycleResult, elapsed time.Duration, err error) {
		start := time.Now()
		deadline := start.Add(d)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			reader.run(deadline, record, tr, -1)
		}()
		for time.Now().Before(deadline) {
			op++
			res, cerr := s.cycle(gen, tr, op)
			if record {
				rep.attempted++
			}
			if cerr != nil {
				rep.fail(cerr)
				if err == nil {
					err = cerr
				}
				break // a broken dissemination chain does not heal by retrying
			}
			if record {
				cycles = append(cycles, res)
			}
		}
		wg.Wait()
		return cycles, time.Since(start), err
	}

	if _, _, err := window(secondsDuration(cfg.warmup), false, nil); err != nil {
		return rep, nil // recorded as a failure; the result line says correct=false
	}
	d := secondsDuration(cfg.seconds)
	var plainCycles float64
	if tr != nil {
		d /= 2
		cycles, elapsed, err := window(d, true, nil)
		if err != nil {
			return rep, nil
		}
		plainCycles = float64(len(cycles)) / elapsed.Seconds()
		collectLookups(rep, []*lookupWorker{reader})
		reader.reset()
	}
	dpBefore := s.ctl.dp.Stats()
	regionBefore, popBefore := s.region.edge.Stats(), sumEdgeStats(s.pops[:])
	cacheBefore := s.writers[1].CacheStats()
	swapsBefore := s.writers[1].Store().SnapshotSwaps()
	before := sampleProc()
	cycles, elapsed, err := window(d, true, tr)
	after := sampleProc()
	if err != nil || len(cycles) == 0 {
		rep.fail(errors.New("no ∆ cycle completed in the measured window"))
		return rep, nil
	}
	rep.set("heap_inuse_mb", heapInuseMB())

	collectLookups(rep, []*lookupWorker{reader})
	lookups := reader.lookups
	var prop []float64
	var hashed, pulled []float64
	for _, c := range cycles {
		prop = append(prop, c.propagationMS)
		hashed = append(hashed, float64(c.hashedNodes))
		pulled = append(pulled, float64(c.pullBytes))
	}
	sorted := sortedCopy(prop)
	// The gated throughput is ∆ cycles per second. Lookups per second
	// beside the churn moved by ±25 % between identical runs (how the two
	// cores are shared between the cycle, the collector and the reader
	// differs run to run), so it is reported, never gated.
	rep.setN("ops_per_s", float64(len(cycles))/elapsed.Seconds(), len(cycles))
	rep.setN("latency_p50_ms", percentile(sorted, 0.5), len(sorted))
	rep.setN("diag.latency_p90_ms", percentile(sorted, 0.9), len(sorted))
	rep.setN("diag.latency_p99_ms", percentile(sorted, 0.99), len(sorted))
	rep.setN("churn.lookups_per_s", float64(lookups)/elapsed.Seconds(), int(lookups))
	rep.set("churn.pull_bytes_per_cycle", median(pulled))
	rep.set("churn.cycle_hashed_nodes", median(hashed))
	ops := float64(lookups) + float64(len(cycles))
	rep.set("proc.cpu_s_per_op", (after.cpu-before.cpu).Seconds()/ops)
	rep.set("proc.allocs_per_op", float64(after.mallocs-before.mallocs)/ops)
	rep.set("proc.gc_pause_ms_per_s", ms(after.gcPause-before.gcPause)/elapsed.Seconds())
	setCacheDeltas(rep, cacheBefore, s.writers[1].CacheStats())
	rep.set("ra.snapshot_swaps", float64(s.writers[1].Store().SnapshotSwaps()-swapsBefore))

	// Dissemination accounting over the window.
	dpAfter := s.ctl.dp.Stats()
	regionAfter, popAfter := s.region.edge.Stats(), sumEdgeStats(s.pops[:])
	rep.set("cdn.origin_pulls_per_cycle", float64(dpAfter.Pulls-dpBefore.Pulls)/float64(len(cycles)))
	rep.set("cdn.region_hit_ratio", hitRatio(regionBefore, regionAfter))
	rep.set("cdn.pop_hit_ratio", hitRatio(popBefore, popAfter))
	rep.set("cdn.collapsed_pulls", float64(regionAfter.CollapsedPulls-regionBefore.CollapsedPulls+popAfter.CollapsedPulls-popBefore.CollapsedPulls))
	if errs := regionAfter.Errors - regionBefore.Errors + popAfter.Errors - popBefore.Errors; errs > 0 {
		rep.fail(fmt.Errorf("edge tiers reported %d pull errors", errs))
	}
	label, p := tailPercentile(len(sorted))
	cfg.logf("goroutine 1: %d ∆ cycles of %d revocations in %.2f s; propagation p50 %.2f ms p90 %.2f ms %s %.2f ms; corpus now %d",
		len(cycles), churnBatch, elapsed.Seconds(), percentile(sorted, 0.5), percentile(sorted, 0.9), label, percentile(sorted, p),
		s.ctl.ca.Authority().Count())
	cfg.logf("goroutine 2: %d lookups against writer 1 beside the churn", lookups)

	if tr != nil {
		for name, metric := range map[string]string{
			"ca.Revoke":            "ca.revoke_ms",
			"ca.PublishRefresh":    "ca.publish_refresh_ms",
			"ra.SyncOnce[writer1]": "ra.sync_once_ms",
			"ra.SyncOnce[reader]":  "ra.reader_remap_ms",
		} {
			d := tr.durationsMS(name)
			rep.setN(metric, median(d), len(d))
		}
		rep.set("trace.cycle_coverage_pct", 100*tr.coverage("cycle"))
		if plainCycles > 0 {
			// Overhead on the blocking path (cycles) — the lookup loop
			// records one span per 1,024 lookups and cannot feel it.
			rep.set("trace.overhead_pct", 100*(1-float64(len(cycles))/elapsed.Seconds()/plainCycles))
		}
		if err := s.probes(cfg, rep, gen, cycles[len(cycles)-1].msg); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	return rep, nil
}

func sumEdgeStats(tiers []*httpTier) cdn.EdgeStats {
	var t cdn.EdgeStats
	for _, e := range tiers {
		st := e.edge.Stats()
		t.Hits += st.Hits
		t.Misses += st.Misses
		t.CollapsedPulls += st.CollapsedPulls
		t.Errors += st.Errors
	}
	return t
}

func hitRatio(before, after cdn.EdgeStats) float64 {
	hits := float64(after.Hits - before.Hits)
	misses := float64(after.Misses - before.Misses)
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
