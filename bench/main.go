// Command bench is the repository's benchmark: one process that assembles
// the real layers (ca, dictionary, storage, cdn, ra, interception, tlssim,
// ritmclient) through their public functions only, drives one workload
// against them, checks the outputs, and prints the declared metrics.
//
//	bash bench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// README.md documents the workloads, metrics and constants; BENCHMARK.json
// is the contract the driver checks the output against.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"ritm/internal/dictionary"
)

// runConfig is one run's parameters.
type runConfig struct {
	seed    uint64
	seconds float64 // measured window
	warmup  float64 // unrecorded warm-up before it
	n       int     // standing corpus size
	sites   int     // bump_steady upstream sites
	layout  dictionary.LayoutKind
	outDir  string // traces and file-backend data, inside the checkout
	log     io.Writer
}

func (c runConfig) logf(format string, args ...any) {
	fmt.Fprintf(c.log, "  "+format+"\n", args...)
}

// canonical reports whether the run uses the constants the baseline is
// measured with; anything else is an exploratory sweep.
func (c runConfig) canonical() bool {
	return c.n == canonicalN && c.sites == siteCount && c.layout == dictionary.LayoutSorted && c.warmup == 3
}

// workloads in the order "all" runs them.
var workloads = []struct {
	name string
	run  func(runConfig, *tracer) (*report, error)
}{
	{"bump_steady", runBump},
	{"inject_steady", runInject},
	{"status_read", runStatusRead},
	{"churn_mixed", runChurn},
}

func main() {
	if err := realMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "all", "bump_steady, inject_steady, status_read, churn_mixed or all")
		seed      = fs.Uint64("seed", 1, "seed of every generated input")
		seconds   = fs.Float64("seconds", 20, "measured window in seconds")
		trace     = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		selfcheck = fs.Int("selfcheck", 0, "run every workload N times and check the spread of each end-to-end metric against its bound")
		n         = fs.Int("n", canonicalN, "standing corpus size (exploratory; marks the run non-canonical)")
		layoutArg = fs.String("layout", "sorted", "dictionary layout (exploratory; marks the run non-canonical)")
		outDir    = fs.String("out", "bench/out", "directory for traces and file-backend data")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	layout, err := dictionary.ParseLayout(*layoutArg)
	if err != nil {
		return err
	}
	if *seconds < 1 || *n < 2*hotSetSize/2 {
		return fmt.Errorf("need --seconds >= 1 and -n >= %d", hotSetSize)
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, warmup: 3, n: *n, sites: siteCount,
		layout: layout, outDir: *outDir, log: stderr,
	}
	printHeader(stderr, cfg)

	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *selfcheck > 0 {
		return runSelfcheck(cfg, names, *selfcheck, stdout)
	}
	var failed []string
	for _, name := range names {
		line, err := runWorkload(cfg, name, *trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(stdout, line)
		if !line.Correct {
			failed = append(failed, name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("correctness check failed on %s", strings.Join(failed, ", "))
	}
	return nil
}

// runWorkload runs one workload once and returns its result line.
func runWorkload(cfg runConfig, name string, traced bool) (resultLine, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		fmt.Fprintf(cfg.log, "\n== %s seed=%d seconds=%g trace=%v\n", name, cfg.seed, cfg.seconds, traced)
		rep, err := w.run(cfg, tr)
		releaseMemory()
		if err != nil {
			return resultLine{}, err
		}
		if tr != nil {
			path, err := tr.write(cfg.outDir, name)
			if err != nil {
				return resultLine{}, fmt.Errorf("write trace: %w", err)
			}
			cfg.logf("trace: %d spans written to %s; by total time:", len(tr.spans), path)
			for _, s := range tr.summarize() {
				cfg.logf("  %-28s n=%-7d total %10.1f ms  self %10.1f ms  p50 %9.4f ms", s.Name, s.Count, s.TotalMS, s.SelfMS, s.P50MS)
			}
		}
		rep.printSummary(cfg.log, name, traced)
		return rep.result(traced)
	}
	return resultLine{}, errors.New("unknown workload")
}

// printHeader stamps the run's environment on stderr.
func printHeader(w io.Writer, cfg runConfig) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "ritm bench: commit=%s %s nproc=%d GOMAXPROCS=%d canonical=%v\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.canonical())
	fmt.Fprintf(w, "  corpus n=%d layout=%v ∆=%v; all traffic on the loopback interface; file backends run with fsync off (page-cache latency of this sandbox)\n",
		cfg.n, cfg.layout, delta)
}
