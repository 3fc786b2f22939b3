package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// traceSample is how many client calls of one kind share a span: one
// call in 64 is recorded, so that tracing stays cheap enough for
// trace.overhead_share to be near zero.
const traceSample = 64

// span is one timed interval recorded by the benchmark's own code
// around a call into a layer. Parent links a span to the span that
// caused it (0 for a root); Op is the identifier the spans of one
// operation share.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Op      uint64 `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span records a finished interval and returns its identifier.
func (t *tracer) span(name string, parent, op uint64, start, end time.Time) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartNs: int64(start.Sub(t.epoch)), EndNs: int64(end.Sub(t.epoch))})
	return id
}

// open records the start of an interval whose children are recorded
// before it ends; close sets its end.
func (t *tracer) open(name string, parent uint64, start time.Time) uint64 {
	return t.span(name, parent, 0, start, start)
}

func (t *tracer) close(id uint64, end time.Time) {
	t.mu.Lock()
	t.spans[id-1].EndNs = int64(end.Sub(t.epoch))
	t.mu.Unlock()
}

// traceFile is what a traced run writes: the spans, and the counts
// taken at the same boundaries.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Sample   int                  `json:"client_call_sample"`
	Counts   map[string]callCount `json:"counts"`
	Retries  int64                `json:"client_retries"`
	Spans    []span               `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
