package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the id of the span
// that made the call (0 for a root); spans of one operation share Op.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; a nil tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do wraps fn in a span.
func (t *tracer) do(name string, parent, op int, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// selfTimes returns, per span name, each span's self time in
// milliseconds: its duration minus the time its child spans cover.
// Children of one span run one after another, so their durations add.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], ms(s.End-s.Start-child[s.ID]))
	}
	return out
}

// opSums returns, per operation, the summed duration of its root
// spans: the time accounted to layers, the rest of the operation being
// the glue between them.
func (t *tracer) opSums() map[int]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent == 0 && s.Op != 0 {
			out[s.Op] += ms(s.End - s.Start)
		}
	}
	return out
}

// write saves the spans as JSON lines, ordered by start time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
