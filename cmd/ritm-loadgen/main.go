// Command ritm-loadgen is the macro-benchmark harness: it stands up the
// full RITM stack in one process tree — CA/origin → region × PoP edge
// hierarchy → RA fleet (writers + shared-data readers) → real-TLS
// interceptors — over real TCP sockets, and drives it with an open-loop
// arrival schedule so coordinated omission cannot flatter the tail.
//
// Two tiers are driven concurrently: real TLS clients performing
// intercepted handshakes (crypto-bound; what a user feels), and
// in-process Status lookups against the fleet (how the revocation-check
// path itself is pushed to 10k+/s under revocation churn).
//
// Aggregate results are printed to stdout as benchjson-compatible JSON
// lines; pipe them into the perf trajectory:
//
//	ritm-loadgen -rate 200 -status-rate 10000 -churn 100000 \
//	    | go run ./tools/benchjson -out BENCH_9.json
//
// A human-readable summary goes to stderr, and -cpuprofile/-memprofile
// capture pprof profiles covering exactly the steady-state window.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ritm/internal/loadgen"
	"ritm/internal/netsim"
)

func main() {
	var (
		rate       = flag.Float64("rate", 100, "offered TLS-handshake arrivals/sec (0 disables the tier)")
		statusRate = flag.Float64("status-rate", 10000, "offered in-process status-check arrivals/sec (0 disables the tier)")
		process    = flag.String("process", "poisson", "arrival process: poisson or uniform")
		duration   = flag.Duration("duration", 5*time.Second, "measured steady-state window")
		warmup     = flag.Duration("warmup", 2*time.Second, "unrecorded warmup window")
		regions    = flag.Int("regions", 1, "regional edge servers")
		pops       = flag.Int("pops", 2, "PoP edges per region")
		writers    = flag.Int("writers", 2, "writer RAs (each pulls from a PoP and intercepts)")
		readers    = flag.Int("readers", 1, "shared-data reader RAs mapping writer 0's checkpoints")
		delta      = flag.Duration("delta", time.Second, "∆: CA refresh cadence and RA staleness unit (min 1s)")
		preload    = flag.Int("preload", 20000, "revocations published before the run")
		churn      = flag.Int("churn", 100000, "revocations spread across the run (batch + refresh per ∆)")
		seed       = flag.Int64("seed", 1, "seed for schedules and serial generators")
		dataDir    = flag.String("data-dir", "", "writer WAL/checkpoint dir for shared readers (default: temp dir)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the steady-state window")
		memProfile = flag.String("memprofile", "", "write a heap profile taken at steady-state end")
		allocRuns  = flag.Int("alloc-runs", 200, "samples per allocs/op tier")
		out        = flag.String("out", "", "write JSON-line records here instead of stdout")
		quiet      = flag.Bool("quiet", false, "suppress progress logging on stderr")
	)
	flag.Parse()

	proc, err := netsim.ParseArrivalProcess(*process)
	if err != nil {
		fatal(err)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ritm-loadgen: "+format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}

	rep, err := loadgen.Run(loadgen.Options{
		Stack: loadgen.StackOptions{
			Regions: *regions,
			PoPs:    *pops,
			Writers: *writers,
			Readers: *readers,
			Delta:   *delta,
			DataDir: *dataDir,
		},
		Process:     proc,
		Rate:        *rate,
		StatusRate:  *statusRate,
		Duration:    *duration,
		Warmup:      *warmup,
		PreloadKeys: *preload,
		ChurnKeys:   *churn,
		Seed:        *seed,
		CPUProfile:  *cpuProfile,
		MemProfile:  *memProfile,
		AllocRuns:   *allocRuns,
		Log:         logf,
	})
	if err != nil {
		fatal(err)
	}

	rep.WriteSummary(os.Stderr)
	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		dst = f
	}
	if err := rep.WriteJSONLines(dst); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ritm-loadgen:", err)
	os.Exit(1)
}
