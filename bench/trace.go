package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the
// program. Times are nanoseconds since the tracer started.
type Span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// SelfNS is filled in when the spans are written: the span's
	// duration minus the part of it its children cover.
	SelfNS int64 `json:"self_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is
// the untraced run: every method is a no-op, so the timed code paths
// are the same whether or not a run is traced.
type Tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer(workload string) *Tracer {
	return &Tracer{workload: workload, epoch: time.Now()}
}

// tag names the workload the spans recorded from now on belong to.
func (t *Tracer) tag(workload string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.workload = workload
	t.mu.Unlock()
}

func noop() {}

// Begin opens a span under parent (0 for a root) and returns its id
// and the function that closes it.
func (t *Tracer) Begin(parent int64, name string) (int64, func()) {
	if t == nil {
		return 0, noop
	}
	start := time.Now()
	id := t.Add(parent, name, start, start)
	return id, func() {
		end := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].EndNS = end
		t.mu.Unlock()
	}
}

// Add records a span whose start and end are already known, such as a
// DSE batch seen only through the search's progress callbacks.
func (t *Tracer) Add(parent int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Workload: t.workload, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// Spans returns a copy of the recorded spans with self times filled in.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	fillSelfTimes(out)
	return out
}

// fillSelfTimes sets each span's SelfNS to its duration minus the union
// of its children's intervals, clipped to the span. Children may
// overlap each other when the benchmark fans calls out over workers.
func fillSelfTimes(spans []Span) {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.SelfNS = (s.EndNS - s.StartNS) - covered(s.StartNS, s.EndNS, children[s.ID])
	}
}

// covered is the length of [lo, hi) that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfByName totals self time per span name, in seconds.
func selfByName(spans []Span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.SelfNS) / 1e9
	}
	return out
}

// traceFile is the document written to a spans file.
type traceFile struct {
	Spans []Span `json:"spans"`
	// SelfSeconds totals self time per span name.
	SelfSeconds map[string]float64 `json:"self_seconds"`
}

func writeSpans(path string, spans []Span) error {
	b, err := json.MarshalIndent(traceFile{Spans: spans, SelfSeconds: selfByName(spans)}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

func readSpans(path string) ([]Span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read spans: %w", err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		return nil, fmt.Errorf("parse spans %s: %w", path, err)
	}
	return tf.Spans, nil
}
