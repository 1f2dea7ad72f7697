package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans of one operation share Trace; Parent names the span
// that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span named name in trace under parent (0 for a root).
func (t *tracer) start(trace, name string, parent uint64) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &openSpan{t: t, s: span{ID: id, Parent: parent, Trace: trace, Name: name, Start: int64(time.Since(t.t0))}}
}

// id returns the span's identifier, for use as a child's parent.
func (o *openSpan) id() uint64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span and keeps it.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// durations returns the duration in seconds of every kept span named
// name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	t.mu.Unlock()
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
