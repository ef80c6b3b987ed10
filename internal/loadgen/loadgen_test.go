package loadgen

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"ritm/internal/netsim"
)

// Smoke-scale end-to-end run: a real stack over real sockets, both tiers
// driven open-loop, churn on, every reported metric sane. This is the
// same path cmd/ritm-loadgen runs at full scale.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack run")
	}
	rep, err := Run(Options{
		Stack: StackOptions{
			Regions: 1, PoPs: 2, Writers: 2, Readers: 1,
			Delta: time.Second,
		},
		Process:     netsim.ArrivalPoisson,
		Rate:        20,
		StatusRate:  2000,
		Duration:    2 * time.Second,
		Warmup:      500 * time.Millisecond,
		PreloadKeys: 2000,
		ChurnKeys:   4000,
		Seed:        7,
		AllocRuns:   50,
		Log:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Handshake.Count == 0 {
		t.Fatal("no successful handshakes recorded")
	}
	if rep.Handshake.Errors > rep.Handshake.Count/4 {
		t.Fatalf("handshake errors %d vs %d ok: stack unhealthy", rep.Handshake.Errors, rep.Handshake.Count)
	}
	if rep.StatusTier.Count == 0 || rep.StatusTier.Errors > 0 {
		t.Fatalf("status tier: %d ok, %d err", rep.StatusTier.Count, rep.StatusTier.Errors)
	}
	if rep.StatusTier.P50 <= 0 || rep.StatusTier.P999 < rep.StatusTier.P99 || rep.StatusTier.P99 < rep.StatusTier.P50 {
		t.Fatalf("status quantiles not monotone: %+v", rep.StatusTier)
	}
	// Open-loop accounting: the achieved rate can lag the offered rate
	// but never exceed it by more than sampling slop.
	if rep.StatusTier.Achieved > rep.StatusTier.Offered*1.5 {
		t.Fatalf("achieved %v far above offered %v", rep.StatusTier.Achieved, rep.StatusTier.Offered)
	}
	if rep.ChurnedKeys == 0 || rep.Refreshes == 0 {
		t.Fatalf("churn driver idle: %+v", rep)
	}
	if rep.OriginPulls == 0 {
		t.Fatal("no origin pulls during steady state: fetchers idle")
	}
	if c := rep.StatusCache; c.Hits+c.Misses < int64(rep.StatusTier.Count) || c.Entries == 0 || c.Bytes == 0 {
		t.Fatalf("status-cache counters do not cover the status tier's %d lookups: %+v", rep.StatusTier.Count, c)
	}
	for _, tier := range []string{"ra-status-miss", "ra-status-miss-mapped", "ra-status-hit", "cdn-edge-root"} {
		if _, ok := rep.AllocsPerOp[tier]; !ok {
			t.Fatalf("missing allocs/op tier %q: %v", tier, rep.AllocsPerOp)
		}
	}
	// The hit path must be far cheaper than the miss path — that's the
	// cache working.
	if rep.AllocsPerOp["ra-status-hit"] >= rep.AllocsPerOp["ra-status-miss"] {
		t.Fatalf("status cache hit (%v allocs) not cheaper than miss (%v)",
			rep.AllocsPerOp["ra-status-hit"], rep.AllocsPerOp["ra-status-miss"])
	}

	// Records round-trip as benchjson-compatible JSON lines.
	var buf bytes.Buffer
	if err := rep.WriteJSONLines(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	n := 0
	for dec.More() {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec.Name == "" || rec.Metrics == nil {
			t.Fatalf("malformed record: %+v", rec)
		}
		n++
	}
	if n < 5 {
		t.Fatalf("expected ≥5 records (2 tiers + control plane + 3 alloc tiers), got %d", n)
	}
	rep.WriteSummary(testWriter{t})
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}
