package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Record is one aggregate result in the shape tools/benchjson ingests
// (the same JSON field names as its Benchmark type), so a loadgen run
// can be piped into the BENCH_<pr>.json trajectory alongside `go test
// -bench` lines.
type Record struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Records flattens the report into benchjson aggregate records.
func (r *Report) Records() []Record {
	var recs []Record
	if r.Handshake.Count > 0 || r.Handshake.Errors > 0 {
		recs = append(recs, Record{
			Name:       "LoadgenHandshake/" + r.Process,
			Iterations: int64(r.Handshake.Count),
			Metrics: map[string]float64{
				"offered-qps":  r.Handshake.Offered,
				"achieved-qps": r.Handshake.Achieved,
				"p50-ms":       ms(r.Handshake.P50),
				"p99-ms":       ms(r.Handshake.P99),
				"p999-ms":      ms(r.Handshake.P999),
				"max-ms":       ms(r.Handshake.Max),
				"errors":       float64(r.Handshake.Errors),
			},
		})
	}
	if r.StatusTier.Count > 0 || r.StatusTier.Errors > 0 {
		recs = append(recs, Record{
			Name:       "LoadgenStatus/" + r.Process,
			Iterations: int64(r.StatusTier.Count),
			Metrics: map[string]float64{
				"offered-qps":  r.StatusTier.Offered,
				"achieved-qps": r.StatusTier.Achieved,
				"p50-us":       us(r.StatusTier.P50),
				"p99-us":       us(r.StatusTier.P99),
				"p999-us":      us(r.StatusTier.P999),
				"max-us":       us(r.StatusTier.Max),
				"errors":       float64(r.StatusTier.Errors),
			},
		})
	}
	recs = append(recs, Record{
		Name:       "LoadgenControlPlane",
		Iterations: 1,
		Metrics: map[string]float64{
			"origin-pulls/sec": r.OriginPullsPerSec,
			"origin-pulls":     float64(r.OriginPulls),
			"region-hit-rate":  r.RegionHitRate,
			"pop-hit-rate":     r.PoPHitRate,
			"collapsed-pulls":  float64(r.CollapsedPulls),
			"churned-keys":     float64(r.ChurnedKeys),
			"refreshes":        float64(r.Refreshes),
		},
	})
	recs = append(recs, Record{
		Name:       "LoadgenStatusCache",
		Iterations: r.StatusCache.Hits + r.StatusCache.Misses,
		Metrics: map[string]float64{
			"hit-rate":   r.StatusCache.HitRate(),
			"evictions":  float64(r.StatusCache.Evictions),
			"promotions": float64(r.StatusCache.Promotions),
			"entries":    float64(r.StatusCache.Entries),
			"probation":  float64(r.StatusCache.Probation),
			"bytes":      float64(r.StatusCache.Bytes),
		},
	})
	tiers := make([]string, 0, len(r.AllocsPerOp))
	for tier := range r.AllocsPerOp {
		tiers = append(tiers, tier)
	}
	sort.Strings(tiers)
	for _, tier := range tiers {
		recs = append(recs, Record{
			Name:       "LoadgenAllocs/" + tier,
			Iterations: 1,
			Metrics:    map[string]float64{"allocs/op": r.AllocsPerOp[tier]},
		})
	}
	return recs
}

// WriteJSONLines emits one benchjson-compatible JSON record per line.
func (r *Report) WriteJSONLines(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rec := range r.Records() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummary prints the human-readable run summary.
func (r *Report) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "loadgen: %s arrivals over %v steady state\n", r.Process, r.Duration)
	if r.Handshake.Count > 0 || r.Handshake.Errors > 0 {
		h := r.Handshake
		fmt.Fprintf(w, "  handshakes   offered %.1f/s achieved %.1f/s (%d ok, %d err)\n",
			h.Offered, h.Achieved, h.Count, h.Errors)
		fmt.Fprintf(w, "               p50 %v  p99 %v  p999 %v  max %v\n", h.P50, h.P99, h.P999, h.Max)
	}
	if r.StatusTier.Count > 0 || r.StatusTier.Errors > 0 {
		s := r.StatusTier
		fmt.Fprintf(w, "  status tier  offered %.0f/s achieved %.0f/s (%d ok, %d err)\n",
			s.Offered, s.Achieved, s.Count, s.Errors)
		fmt.Fprintf(w, "               p50 %v  p99 %v  p999 %v  max %v\n", s.P50, s.P99, s.P999, s.Max)
	}
	fmt.Fprintf(w, "  control      origin %.2f pulls/s (%d total), hit rate region %.1f%% pop %.1f%%, collapsed %d\n",
		r.OriginPullsPerSec, r.OriginPulls, 100*r.RegionHitRate, 100*r.PoPHitRate, r.CollapsedPulls)
	fmt.Fprintf(w, "  churn        %d keys across %d refreshes\n", r.ChurnedKeys, r.Refreshes)
	c := r.StatusCache
	fmt.Fprintf(w, "  status cache hit rate %.1f%%, %d entries (%d on probation, %.1f MB), %d promotions, %d evictions\n",
		100*c.HitRate(), c.Entries, c.Probation, float64(c.Bytes)/(1<<20), c.Promotions, c.Evictions)
	tiers := make([]string, 0, len(r.AllocsPerOp))
	for tier := range r.AllocsPerOp {
		tiers = append(tiers, tier)
	}
	sort.Strings(tiers)
	for _, tier := range tiers {
		fmt.Fprintf(w, "  allocs/op    %-22s %.1f\n", tier, r.AllocsPerOp[tier])
	}
}
