package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDecl declares one metric the benchmark emits. The two tables
// below are the Go-side copy of BENCHMARK.json; bench_test.go fails when
// they drift apart.
type metricDecl struct {
	name string
	unit string
}

// endToEnd metrics are emitted by every workload on an untraced run. Each
// has one meaning per workload (README.md, "Metric glossary").
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"status_bytes", "B"},
	{"heap_inuse_mb", "MB"},
}

// perLayer metrics are emitted by every workload on a traced run; a layer
// a workload leaves idle reports 0.
var perLayer = []metricDecl{
	{"interception.parse_hello_ns", "ns"},
	{"interception.identity_ns", "ns"},
	{"interception.mint_hit_us", "us"},
	{"interception.mint_miss_us", "us"},
	{"interception.mint_hit_ratio", "ratio"},
	{"interception.upstream_leg_ms", "ms"},
	{"interception.client_leg_ms", "ms"},
	{"interception.bump_added_ms", "ms"},
	{"interception.unattributed_ms", "ms"},
	{"interception.allocs_per_handshake", "count"},
	{"interception.refused", "count"},
	{"interception.errors", "count"},

	{"ra.status_hit_ns", "ns"},
	{"ra.status_miss_ns", "ns"},
	{"ra.status_hit_allocs", "count"},
	{"ra.status_miss_allocs", "count"},
	{"ra.cache_hit_ratio", "ratio"},
	{"ra.cache_evictions", "count"},
	{"ra.snapshot_swaps", "count"},
	{"ra.lookups_per_s_heap", "1/s"},
	{"ra.lookups_per_s_mapped", "1/s"},
	{"ra.sync_once_ms", "ms"},
	{"ra.reader_remap_ms", "ms"},
	{"ra.heap_mb_writer", "MB"},
	{"ra.mapped_mb_reader", "MB"},
	{"ra.proxy_added_ms", "ms"},

	{"dictionary.prove_present_ns", "ns"},
	{"dictionary.prove_absent_ns", "ns"},
	{"dictionary.mapped_prove_absent_ns", "ns"},
	{"dictionary.status_encode_ns", "ns"},
	{"dictionary.status_check_us", "us"},
	{"dictionary.proof_hashes", "count"},
	{"dictionary.replica_update_ms", "ms"},
	{"dictionary.decode_issuance_us", "us"},
	{"dictionary.checkpoint_encode_ms", "ms"},
	{"dictionary.checkpoint_bytes", "B"},

	{"cryptoutil.hash_node_ns", "ns"},
	{"cryptoutil.sign_us", "us"},
	{"cryptoutil.verify_us", "us"},

	{"ca.revoke_ms", "ms"},
	{"ca.publish_refresh_ms", "ms"},

	{"storage.wal_append_us", "us"},
	{"storage.checkpoint_install_ms", "ms"},
	{"storage.map_ms", "ms"},
	{"storage.bytes_written_per_cycle", "B"},

	{"cdn.origin_pull_ms", "ms"},
	{"cdn.edge_pull_hit_us", "us"},
	{"cdn.edge_pull_miss_ms", "ms"},
	{"cdn.edge_root_us", "us"},
	{"cdn.edge_root_allocs", "count"},
	{"cdn.pull_decode_us", "us"},
	{"cdn.origin_pulls_per_cycle", "count"},
	{"cdn.pop_hit_ratio", "ratio"},
	{"cdn.region_hit_ratio", "ratio"},
	{"cdn.collapsed_pulls", "count"},

	{"tlssim.direct_handshake_ms", "ms"},
	{"ritmclient.verify_us", "us"},

	{"churn.lookups_per_s", "1/s"},
	{"churn.pull_bytes_per_cycle", "B"},
	{"churn.cycle_hashed_nodes", "count"},

	{"gen.late_p99_us", "us"},
	{"gen.max_inflight", "count"},
	{"diag.latency_p90_ms", "ms"},
	{"diag.latency_p99_ms", "ms"},
	{"proc.cpu_s_per_op", "s"},
	{"proc.allocs_per_op", "count"},
	{"proc.gc_pause_ms_per_s", "ms/s"},
	{"trace.overhead_pct", "%"},
	{"trace.cycle_coverage_pct", "%"},
}

// report is what one workload run produced.
type report struct {
	attempted int64
	failed    int64
	errs      []string // first few failures, for the human summary

	values  map[string]float64
	samples map[string]int
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) setN(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// fail records one failed or wrongly answered operation.
func (r *report) fail(err error) {
	r.failed++
	if err != nil && len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// resultLine is the driver-facing result: the last line of stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result turns the report into the declared metric set: every end-to-end
// metric on an untraced run (each must have been measured and be
// positive), every per-layer metric on a traced one (unmeasured = idle =
// 0). A metric a workload set without declaring it is a bug.
func (r *report) result(traced bool) (resultLine, error) {
	decls := endToEnd
	if traced {
		decls = perLayer
	}
	declared := map[string]bool{}
	for _, d := range endToEnd {
		declared[d.name] = true
	}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	for name := range r.values {
		if !declared[name] {
			return resultLine{}, fmt.Errorf("metric %q is measured but not declared", name)
		}
	}
	out := resultLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range decls {
		v, ok := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return resultLine{}, fmt.Errorf("metric %s is not finite", d.name)
		}
		if !traced && (!ok || v <= 0) {
			return resultLine{}, fmt.Errorf("end-to-end metric %s was not measured (value %v)", d.name, v)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// printSummary writes the human-readable table to w (stderr).
func (r *report) printSummary(w io.Writer, workload string, traced bool) {
	fmt.Fprintf(w, "\n%s: attempted %d, failed %d (share %.6f)\n", workload, r.attempted, r.failed,
		float64(r.failed)/math.Max(1, float64(r.attempted)))
	for _, e := range r.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	names := make([]string, 0, len(r.values))
	for name := range r.values {
		names = append(names, name)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	for _, name := range names {
		line := fmt.Sprintf("  %-38s %14.6g %-6s", name, r.values[name], units[name])
		if n := r.samples[name]; n > 0 {
			line += fmt.Sprintf(" (%d samples)", n)
		}
		fmt.Fprintln(w, line)
	}
}

func (l resultLine) String() string {
	buf, err := json.Marshal(l)
	if err != nil {
		panic(err) // plain maps of floats and strings always encode
	}
	return string(buf)
}
