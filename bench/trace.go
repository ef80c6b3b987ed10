package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans are recorded only here, around the calls; spans inside
// the layers are a later change.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the causing span, -1 for a root
	Op     int64  `json:"op"`     // spans of one operation share it
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durationsMS returns the durations of every finished span called name.
func (t *tracer) durationsMS(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// spanSummary aggregates one span name. Self time is the span's duration
// minus the part its children cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
}

func (t *tracer) summarize() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	childNS := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End > 0 {
			childNS[s.Parent] += s.End - s.Start
		}
	}
	type agg struct {
		total, self int64
		durs        []float64
	}
	byName := map[string]*agg{}
	for i, s := range t.spans {
		if s.End == 0 {
			continue
		}
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		d := s.End - s.Start
		a.total += d
		a.self += d - childNS[i]
		a.durs = append(a.durs, float64(d)/1e6)
	}
	out := make([]spanSummary, 0, len(byName))
	for name, a := range byName {
		out = append(out, spanSummary{
			Name:    name,
			Count:   len(a.durs),
			TotalMS: float64(a.total) / 1e6,
			SelfMS:  float64(a.self) / 1e6,
			P50MS:   median(a.durs),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}

// coverage reports, over every finished root span called root, the share
// of its wall time that its direct children cover.
func (t *tracer) coverage(root string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var wall, covered int64
	isRoot := make([]bool, len(t.spans))
	for i, s := range t.spans {
		if s.Name == root && s.End > 0 {
			isRoot[i] = true
			wall += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if s.Parent >= 0 && isRoot[s.Parent] && s.End > 0 {
			covered += s.End - s.Start
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(covered) / float64(wall)
}

// write dumps the spans and their per-name self times.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	summary := t.summarize()
	t.mu.Lock()
	doc := struct {
		Workload string        `json:"workload"`
		Summary  []spanSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}{workload, summary, t.spans}
	buf, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
