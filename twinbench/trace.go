package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer records spans around the benchmark's own calls into each
// layer. Spans stay in memory and are written out once, after the run.
// A nil *tracer is the untraced mode: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

// span is one timed call: its name (the layer metric it feeds), start
// and end offsets from the run start, and the span that caused it (0 =
// none).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(name string, parent int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	id := t.newID()
	return id, func() { t.add(id, parent, name, start, time.Now()) }
}

// record adds a span timed by the caller.
func (t *tracer) record(name string, parent int64, start, end time.Time) {
	if t != nil {
		t.add(t.newID(), parent, name, start, end)
	}
}

func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(id, parent int64, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
}

// durations returns the duration in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// writeNDJSON writes every span as one JSON line.
func (t *tracer) writeNDJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
