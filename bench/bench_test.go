package main

import (
	"io"
	"math"
	"sort"
	"testing"

	"ritm/internal/dictionary"
)

// TestSmoke runs every workload at toy scale, traced and untraced, and
// checks that the metric names and units each run emits are exactly the
// ones BENCHMARK.json declares and that every value is finite.
func TestSmoke(t *testing.T) {
	decl, err := loadBenchmarkFile()
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range decl.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		want[true][m.Name] = m.Unit
	}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sort.Strings(declared)
	sort.Strings(have)
	if len(declared) != len(have) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program has %v", declared, have)
	}
	for i := range have {
		if have[i] != declared[i] {
			t.Fatalf("BENCHMARK.json declares workloads %v, the program has %v", declared, have)
		}
	}

	cfg := runConfig{
		seed: 1, seconds: 0.4, warmup: 0.1, n: 2 * hotSetSize, sites: 64,
		layout: dictionary.LayoutSorted, outDir: t.TempDir(), log: io.Discard,
	}
	if testing.Verbose() {
		cfg.log = testWriter{t}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			line, err := runWorkload(cfg, w.name, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, line.Correct, line.Attempted, line.Failed)
			}
			for name, unit := range want[traced] {
				got, ok := line.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: declared metric %s was not emitted", w.name, traced, name)
					continue
				}
				if got.Unit != unit {
					t.Errorf("%s traced=%v: %s has unit %q, BENCHMARK.json says %q", w.name, traced, name, got.Unit, unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, name, got.Value)
				}
			}
			for name := range line.Metrics {
				if _, ok := want[traced][name]; !ok {
					t.Errorf("%s traced=%v: emitted metric %s is not declared in BENCHMARK.json", w.name, traced, name)
				}
			}
		}
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// TestQuartiles pins the self-check's quartiles to the values Python's
// statistics.quantiles(values, n=4) gives, which is how the driver
// measures spread.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{4, 1, 3, 9, 7})
	if q1 != 2 || q2 != 4 || q3 != 8 {
		t.Errorf("quartiles(4 1 3 9 7) = %v %v %v, want 2 4 8", q1, q2, q3)
	}
}
