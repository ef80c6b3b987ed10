package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadBenchmarkFile finds BENCHMARK.json in the working directory or its
// parent (go test runs in bench/).
func loadBenchmarkFile() (*benchmarkFile, error) {
	for _, dir := range []string{".", ".."} {
		buf, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var f benchmarkFile
		if err := json.Unmarshal(buf, &f); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &f, nil
	}
	return nil, fs.ErrNotExist
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(values, n=4) (exclusive method) does — the
// driver's definition of spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		i := int(pos)
		if i < 1 {
			i = 1
		}
		if i > len(s)-1 {
			i = len(s) - 1
		}
		frac := pos - float64(i)
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return at(1), at(2), at(3)
}

// runSelfcheck runs every named workload n times on consecutive seeds
// and compares each end-to-end metric's relative inter-quartile spread
// with its bound in BENCHMARK.json. It is how the bounds were derived
// (README.md carries the output) and how a machine is checked for being
// quiet enough to measure on.
func runSelfcheck(cfg runConfig, names []string, n int, stdout io.Writer) error {
	if n < 2 {
		return fmt.Errorf("-selfcheck needs at least 2 runs")
	}
	decl, err := loadBenchmarkFile()
	if err != nil {
		return fmt.Errorf("self-check needs BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range decl.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var over []string
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			run := cfg
			run.seed = cfg.seed + uint64(i)
			line, err := runWorkload(run, name, false)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, run.seed, err)
			}
			if !line.Correct {
				return fmt.Errorf("%s seed %d: correctness check failed", name, run.seed)
			}
			for m, v := range line.Metrics {
				values[m] = append(values[m], v.Value)
			}
		}
		fmt.Fprintf(stdout, "%s: %d runs, seeds %d..%d, %g s each\n", name, n, cfg.seed, cfg.seed+uint64(n)-1, cfg.seconds)
		fmt.Fprintf(stdout, "  %-16s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		metrics := make([]string, 0, len(values))
		for m := range values {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			q1, q2, q3 := quartiles(values[m])
			spread := (q3 - q1) / q2
			mark := ""
			// setup_s is gated on its median only, never on its spread.
			if spread > bounds[m] && m != "setup_s" {
				mark = "  OVER"
				over = append(over, name+"/"+m)
			}
			fmt.Fprintf(stdout, "  %-16s %12.4f %12.4f %12.4f %7.2f%% %5.0f%%%s\n", m, q1, q2, q3, 100*spread, 100*bounds[m], mark)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread exceeds its bound on %v", over)
	}
	return nil
}
