package loadgen

import (
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"ritm/internal/netsim"
	"ritm/internal/ra"
	"ritm/internal/serial"
)

// Options configures one harness run.
type Options struct {
	Stack StackOptions

	// Process shapes arrivals on both driven tiers.
	Process netsim.ArrivalProcess
	// Rate is the handshake tier's offered arrivals/second: real TLS
	// clients dialing the interceptors over TCP. 0 disables the tier.
	Rate float64
	// StatusRate is the status tier's offered arrivals/second: in-process
	// open-loop Status lookups against the RA fleet. Full-TLS handshakes
	// are crypto-bound at a few hundred/second/core, so this tier is how
	// the harness pushes the revocation-check path itself to 10k+/s
	// under churn. 0 disables the tier.
	StatusRate float64

	// Duration is the measured steady-state window; Warmup runs the same
	// load beforehand without recording (caches fill, fetchers settle).
	Duration time.Duration
	Warmup   time.Duration

	// PreloadKeys revocations are published before the run starts (the
	// standing corpus); ChurnKeys more are spread across the run in one
	// batch + freshness refresh per ∆ tick (the churn).
	PreloadKeys int
	ChurnKeys   int

	// Seed drives every RNG in the run (schedules, serial generators).
	Seed int64

	// CPUProfile/MemProfile, when non-empty, capture pprof profiles
	// covering exactly the steady-state window.
	CPUProfile string
	MemProfile string

	// AllocRuns is the per-tier allocs/op sample count (0 = 200).
	AllocRuns int

	// Log receives progress lines (nil = silent).
	Log func(format string, args ...any)
}

func (o *Options) fill() error {
	o.Stack.fill()
	if o.Rate <= 0 && o.StatusRate <= 0 {
		return fmt.Errorf("loadgen: both tiers disabled (rate and status-rate are 0)")
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.PreloadKeys < 0 || o.ChurnKeys < 0 {
		return fmt.Errorf("loadgen: negative key counts")
	}
	if o.AllocRuns <= 0 {
		o.AllocRuns = 200
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return nil
}

// Report is the machine-readable outcome of a run.
type Report struct {
	Process  string        `json:"process"`
	Duration time.Duration `json:"duration"`

	Handshake  TierResult `json:"handshake"`
	StatusTier TierResult `json:"status_tier"`

	// Origin load and edge effectiveness over the steady-state window.
	OriginPulls       int     `json:"origin_pulls"`
	OriginPullsPerSec float64 `json:"origin_pulls_per_sec"`
	RegionHitRate     float64 `json:"region_hit_rate"`
	PoPHitRate        float64 `json:"pop_hit_rate"`
	CollapsedPulls    int     `json:"collapsed_pulls"`

	ChurnedKeys int `json:"churned_keys"`
	Refreshes   int `json:"refreshes"`

	// StatusCache sums the agents' status-cache counters at the end of
	// the steady-state window.
	StatusCache ra.CacheStats `json:"status_cache"`

	// AllocsPerOp holds the per-tier allocation samplers, keyed by tier
	// name (ra-status-miss, ra-status-miss-mapped, ra-status-hit,
	// cdn-edge-root).
	AllocsPerOp map[string]float64 `json:"allocs_per_op"`
}

// Run executes one full harness run: build, preload, sync, warm up,
// measure, profile, sample, tear down.
func Run(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	log := opts.Log

	log("building stack: %d region(s) × %d PoP(s), %d writer(s) + %d reader(s), ∆=%v",
		opts.Stack.Regions, opts.Stack.PoPs, opts.Stack.Writers, opts.Stack.Readers, opts.Stack.Delta)
	stack, err := BuildStack(opts.Stack)
	if err != nil {
		return nil, err
	}
	defer stack.Close()

	// Standing revocation corpus, published before anyone syncs.
	// All generators draw 16-byte randomized serials (disjoint seeded
	// streams): collision-free across preload/churn/probe pools, and the
	// high-cardinality regime the paper's randomized-serial CAs produce.
	loadDist := serial.SizeDistribution{{Bytes: 16, Weight: 1}}
	preloadGen := serial.NewGenerator(uint64(opts.Seed)+0x9E3779B9, loadDist)
	var revokedPool []serial.Number
	if opts.PreloadKeys > 0 {
		log("preloading %d revocations", opts.PreloadKeys)
		remaining := opts.PreloadKeys
		for remaining > 0 {
			n := remaining
			if n > 8192 {
				n = 8192
			}
			batch := preloadGen.NextN(n)
			if len(revokedPool) < 32768 {
				revokedPool = append(revokedPool, batch...)
			}
			if _, err := stack.CA.Revoke(batch...); err != nil {
				return nil, fmt.Errorf("preload revoke: %w", err)
			}
			remaining -= n
		}
		if err := stack.CA.PublishRefresh(); err != nil {
			return nil, fmt.Errorf("preload publish: %w", err)
		}
	}

	log("syncing fleet")
	if err := stack.SyncOnce(); err != nil {
		return nil, err
	}

	// Fail fast: one end-to-end handshake before opening the floodgates.
	clientCfg := &tls.Config{ServerName: siteHost, RootCAs: stack.MintPool}
	dialer := &net.Dialer{Timeout: 10 * time.Second}
	if opts.Rate > 0 {
		conn, err := tls.DialWithDialer(dialer, "tcp", stack.Interceptors[0].Addr().String(), clientCfg)
		if err != nil {
			return nil, fmt.Errorf("sanity handshake through interceptor 0: %w", err)
		}
		conn.Close()
	}

	stack.StartFetchers(opts.Stack.FetchInterval, opts.Stack.FetchInterval/4, func(err error) {
		log("fetcher: %v", err)
	})

	// Churn driver: one revocation batch + freshness refresh per ∆ tick.
	total := opts.Warmup + opts.Duration
	churnStop := make(chan struct{})
	var churnWG sync.WaitGroup
	var churned, refreshes int
	var churnMu sync.Mutex
	if opts.ChurnKeys > 0 {
		ticks := int(total/opts.Stack.Delta) + 1
		perTick := opts.ChurnKeys / ticks
		if perTick < 1 {
			perTick = 1
		}
		churnGen := serial.NewGenerator(uint64(opts.Seed)+0xC0FFEE, loadDist)
		log("churn: ~%d keys/tick every %v (%d total)", perTick, opts.Stack.Delta, opts.ChurnKeys)
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			ticker := time.NewTicker(opts.Stack.Delta)
			defer ticker.Stop()
			left := opts.ChurnKeys
			for left > 0 {
				select {
				case <-churnStop:
					return
				case <-ticker.C:
				}
				n := perTick
				if n > left {
					n = left
				}
				if _, err := stack.CA.Revoke(churnGen.NextN(n)...); err != nil {
					log("churn revoke: %v", err)
					return
				}
				if err := stack.CA.PublishRefresh(); err != nil {
					log("churn publish: %v", err)
					return
				}
				churnMu.Lock()
				churned += n
				refreshes++
				churnMu.Unlock()
				left -= n
			}
		}()
	}

	// Status-tier probe pool: alternate standing revocations (presence
	// proofs, cache-friendly until the next generation bump) and fresh
	// absent serials (absence proofs, permanently cache-hostile) — the
	// high-cardinality mix that stresses the status cache under churn.
	var probes []serial.Number
	if opts.StatusRate > 0 {
		absentGen := serial.NewGenerator(uint64(opts.Seed)+0xAB5E17, loadDist)
		absent := absentGen.NextN(32768)
		if len(revokedPool) == 0 {
			revokedPool = absent[:1] // preload disabled: probe absents only
		}
		probes = make([]serial.Number, 0, 65536)
		for i := 0; i < 32768; i++ {
			probes = append(probes, revokedPool[i%len(revokedPool)], absent[i%len(absent)])
		}
	}

	runTier := func(window time.Duration, record bool, hs, st *latencyRecorder) error {
		var wg sync.WaitGroup
		ctx := context.Background()
		start := time.Now().Add(50 * time.Millisecond) // shared anchor for both schedules
		if opts.Rate > 0 {
			sched, err := netsim.NewSchedule(opts.Process, opts.Rate, window, opts.Seed+1)
			if err != nil {
				return err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sched.RunAndWait(ctx, start, func(i int, scheduled time.Time) {
					it := stack.Interceptors[i%len(stack.Interceptors)]
					conn, err := tls.DialWithDialer(dialer, "tcp", it.Addr().String(), clientCfg)
					if err != nil {
						if record {
							hs.err()
						}
						return
					}
					conn.Close()
					if record {
						hs.ok(time.Since(scheduled))
					}
				})
			}()
		}
		if opts.StatusRate > 0 {
			sched, err := netsim.NewSchedule(opts.Process, opts.StatusRate, window, opts.Seed+2)
			if err != nil {
				return err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sched.RunAndWait(ctx, start, func(i int, scheduled time.Time) {
					agent := stack.Agents[i%len(stack.Agents)]
					_, _, err := agent.StatusEncoded(caID, probes[i%len(probes)])
					if err != nil {
						if record {
							st.err()
						}
						return
					}
					if record {
						st.ok(time.Since(scheduled))
					}
				})
			}()
		}
		wg.Wait()
		return nil
	}

	if opts.Warmup > 0 {
		log("warmup: %v", opts.Warmup)
		if err := runTier(opts.Warmup, false, nil, nil); err != nil {
			return nil, err
		}
	}

	// Steady state: snapshot control-plane counters, profile the window.
	hsRec := newLatencyRecorder(int(opts.Rate*opts.Duration.Seconds()) + 16)
	stRec := newLatencyRecorder(int(opts.StatusRate*opts.Duration.Seconds()) + 16)
	pullsBefore := stack.DP.Stats().Pulls
	regionBefore, popBefore := stack.EdgeStatsByTier()

	if opts.CPUProfile != "" {
		f, err := os.Create(opts.CPUProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}
	log("steady state: %v at %g handshakes/s + %g status/s (%v arrivals)",
		opts.Duration, opts.Rate, opts.StatusRate, opts.Process)
	steadyStart := time.Now()
	if err := runTier(opts.Duration, true, hsRec, stRec); err != nil {
		if opts.CPUProfile != "" {
			pprof.StopCPUProfile()
		}
		return nil, err
	}
	steadyWindow := time.Since(steadyStart)
	if opts.CPUProfile != "" {
		pprof.StopCPUProfile()
		log("cpu profile: %s", opts.CPUProfile)
	}
	if opts.MemProfile != "" {
		f, err := os.Create(opts.MemProfile)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		f.Close()
		log("heap profile: %s", opts.MemProfile)
	}

	pullsAfter := stack.DP.Stats().Pulls
	regionAfter, popAfter := stack.EdgeStatsByTier()

	// Quiesce background load before the allocation samplers.
	close(churnStop)
	churnWG.Wait()
	stack.StopFetchers()

	rep := &Report{
		Process:     opts.Process.String(),
		Duration:    opts.Duration,
		OriginPulls: pullsAfter - pullsBefore,
		AllocsPerOp: map[string]float64{},
	}
	if steadyWindow > 0 {
		rep.OriginPullsPerSec = float64(rep.OriginPulls) / steadyWindow.Seconds()
	}
	hitRate := func(hits, misses int) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	rep.RegionHitRate = hitRate(regionAfter.Hits-regionBefore.Hits, regionAfter.Misses-regionBefore.Misses)
	rep.PoPHitRate = hitRate(popAfter.Hits-popBefore.Hits, popAfter.Misses-popBefore.Misses)
	rep.CollapsedPulls = popAfter.CollapsedPulls - popBefore.CollapsedPulls +
		regionAfter.CollapsedPulls - regionBefore.CollapsedPulls
	churnMu.Lock()
	rep.ChurnedKeys = churned
	rep.Refreshes = refreshes
	churnMu.Unlock()
	if opts.Rate > 0 {
		rep.Handshake = hsRec.summarize(opts.Rate, steadyWindow)
	}
	if opts.StatusRate > 0 {
		rep.StatusTier = stRec.summarize(opts.StatusRate, steadyWindow)
	}

	for _, agent := range stack.Agents {
		st := agent.CacheStats()
		rep.StatusCache.Hits += st.Hits
		rep.StatusCache.Misses += st.Misses
		rep.StatusCache.Evictions += st.Evictions
		rep.StatusCache.Promotions += st.Promotions
		rep.StatusCache.Entries += st.Entries
		rep.StatusCache.Probation += st.Probation
		rep.StatusCache.Bytes += st.Bytes
	}

	// Per-tier allocs/op, sampled on the quiesced stack. The miss
	// sampler is the status-encode hot path end to end: prove + encode +
	// cache fill on a never-seen serial. It runs once per serving path —
	// the two are different code, not one number: a heap writer proves
	// straight off its arrays, a shared reader off the mapping, copying the
	// proof's serials out (it may be unmapped while the cached status lives
	// on) — about 6 allocations each.
	sampleAgent := stack.Writers[0]
	missGen := serial.NewGenerator(uint64(opts.Seed)+0x315513, loadDist)
	missProbes := missGen.NextN(2*opts.AllocRuns + 3)
	missIdx := 0
	sampleMiss := func(agent *ra.RA) float64 {
		return allocsPerRun(opts.AllocRuns, func() {
			if _, _, err := agent.StatusEncoded(caID, missProbes[missIdx]); err != nil {
				panic(fmt.Sprintf("loadgen alloc sampler: %v", err))
			}
			missIdx++
		})
	}
	rep.AllocsPerOp["ra-status-miss"] = sampleMiss(sampleAgent)
	if len(stack.Readers) > 0 {
		rep.AllocsPerOp["ra-status-miss-mapped"] = sampleMiss(stack.Readers[0])
	}
	hit := missProbes[len(missProbes)-1]
	if _, _, err := sampleAgent.StatusEncoded(caID, hit); err != nil {
		return nil, err
	}
	rep.AllocsPerOp["ra-status-hit"] = allocsPerRun(opts.AllocRuns, func() {
		if _, _, err := sampleAgent.StatusEncoded(caID, hit); err != nil {
			panic(fmt.Sprintf("loadgen alloc sampler: %v", err))
		}
	})
	popEdge := stack.pops[0].edge
	rep.AllocsPerOp["cdn-edge-root"] = allocsPerRun(opts.AllocRuns, func() {
		if _, err := popEdge.LatestRoot(caID); err != nil {
			panic(fmt.Sprintf("loadgen alloc sampler: %v", err))
		}
	})

	return rep, nil
}

// allocsPerRun is testing.AllocsPerRun without importing testing into a
// shipping binary: mean heap allocations across runs of f, single-proc.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up once outside the measured window
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
