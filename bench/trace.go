package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Tracing wraps the bench's own calls into each layer in spans: name, start,
// end, the span that caused it, and the operation both belong to. Spans stay
// in memory and are written once, at exit. Spans inside the program under
// test are a later change; this file only ever sees the boundary.

// maxSpansWritten bounds the trace file; self times are still computed over
// every span recorded.
const maxSpansWritten = 200000

type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // operation the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0   time.Time
	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanBuf is one goroutine's span log, so recording takes no lock. A nil
// spanBuf records nothing: the untraced run pays one nil check per call.
type spanBuf struct {
	t0    time.Time
	base  int
	spans []span
}

// buffer returns a span log for one goroutine (nil when tracing is off).
func (t *tracer) buffer() *spanBuf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{t0: t.t0, base: len(t.bufs) << 32}
	t.bufs = append(t.bufs, b)
	return b
}

// begin opens a span and returns its id (0 when tracing is off).
func (b *spanBuf) begin(name string, parent, op int) int {
	if b == nil {
		return 0
	}
	id := b.base + len(b.spans) + 1
	b.spans = append(b.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: time.Since(b.t0).Nanoseconds()})
	return id
}

func (b *spanBuf) end(id int) {
	if b == nil {
		return
	}
	b.spans[id-b.base-1].End = time.Since(b.t0).Nanoseconds()
}

// do runs f inside a root span.
func (b *spanBuf) do(name string, op int, f func()) {
	id := b.begin(name, 0, op)
	f()
	b.end(id)
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover: the time spent in that layer itself.
func selfTimes(spans []span) map[string]float64 {
	child := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return out
}

type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Spans     int                `json:"spans_recorded"`
	Truncated bool               `json:"spans_truncated"`
	SelfMs    map[string]float64 `json:"self_time_ms"`
	Counters  map[string]float64 `json:"counters"`
	Budget    map[string]float64 `json:"budget_us_per_search,omitempty"`
	List      []span             `json:"spans"`
}

// write stores the spans with the run's counter deltas (the per-layer
// metrics) under bench/out/ and returns the path.
func (t *tracer) write(dir string, r *run) (string, error) {
	var all []span
	for _, b := range t.bufs {
		all = append(all, b.spans...)
	}
	tf := traceFile{
		Workload: r.def.Name, Seed: r.seed, Spans: len(all),
		SelfMs: selfTimes(all), Counters: r.layer, Budget: r.budget, List: all,
	}
	if len(all) > maxSpansWritten {
		tf.List, tf.Truncated = all[:maxSpansWritten], true
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", r.def.Name))
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
