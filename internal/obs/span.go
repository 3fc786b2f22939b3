package obs

import (
	"context"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// SpanContext identifies one span within one trace. It is the unit
// propagated across the wire in the trace-extension frame (see
// internal/wire): 8-byte trace ID, 8-byte span ID.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context carries a live trace.
func (s SpanContext) Valid() bool { return s.TraceID != 0 }

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sc. Data-path calls made with
// the returned context propagate sc to the peer.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext extracts the propagated span context, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok
}

// idState seeds the lock-free ID generator: a splitmix64 walk over an
// atomic counter, seeded once per process from the clock and pid so
// concurrent processes don't collide.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32)
}

// NewID returns a non-zero pseudo-random 64-bit identifier for traces
// and spans. One atomic add, no locks, no allocation.
func NewID() uint64 {
	for {
		x := idState.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// SpanEvent is one completed span: a lifecycle record of a named
// operation within a trace. Events are fixed-size (no attribute maps)
// so recording stays allocation-light.
type SpanEvent struct {
	TraceID  uint64        `json:"trace_id"`
	SpanID   uint64        `json:"span_id"`
	ParentID uint64        `json:"parent_id,omitempty"`
	Name     string        `json:"name"`
	Peer     string        `json:"peer,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Err      string        `json:"err,omitempty"`
}

// SpanExporter receives completed spans. Exporters must be safe for
// concurrent use and must not block.
type SpanExporter interface {
	ExportSpan(SpanEvent)
}

// RingExporter keeps the most recent spans in a fixed ring buffer —
// the default exporter behind the admin endpoint's /spans dump.
type RingExporter struct {
	mu    sync.Mutex
	buf   []SpanEvent
	next  int
	total int64
}

// NewRingExporter creates a ring holding up to n spans (min 1).
func NewRingExporter(n int) *RingExporter {
	if n < 1 {
		n = 1
	}
	return &RingExporter{buf: make([]SpanEvent, 0, n)}
}

// ExportSpan records e, evicting the oldest span once full.
func (r *RingExporter) ExportSpan(e SpanEvent) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
	r.mu.Unlock()
}

// Total returns the number of spans ever exported (including evicted).
func (r *RingExporter) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the buffered spans, oldest first.
func (r *RingExporter) Snapshot() []SpanEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Tracer creates spans and hands completed ones to an exporter,
// optionally logging each as a structured lifecycle event. A nil
// *Tracer is inert: Begin returns a no-op span, so call sites need no
// nil checks.
type Tracer struct {
	exp SpanExporter
	log *slog.Logger
}

// NewTracer builds a tracer around exp (required) and logger
// (optional; spans are logged at debug level when set).
func NewTracer(exp SpanExporter, logger *slog.Logger) *Tracer {
	return &Tracer{exp: exp, log: logger}
}

// Span is one in-progress operation. Value type: creating and ending a
// span performs no heap allocation beyond the exporter's record.
type Span struct {
	t      *Tracer
	sc     SpanContext
	parent uint64
	name   string
	peer   string
	start  time.Time
}

// Begin starts a span named name. If ctx already carries a span the
// new one becomes its child within the same trace; otherwise a new
// root trace starts. The returned context carries the new span for
// downstream propagation.
func (t *Tracer) Begin(ctx context.Context, name, peer string) (context.Context, Span) {
	if t == nil {
		return ctx, Span{}
	}
	parent, _ := SpanFromContext(ctx)
	sc := SpanContext{TraceID: parent.TraceID, SpanID: NewID()}
	if sc.TraceID == 0 {
		sc.TraceID = NewID()
	}
	sp := Span{t: t, sc: sc, parent: parent.SpanID, name: name, peer: peer, start: time.Now()}
	return ContextWithSpan(ctx, sc), sp
}

// End completes the span, exporting (and optionally logging) its
// lifecycle event. No-op on a zero Span.
func (s Span) End(err error) {
	if s.t == nil {
		return
	}
	e := SpanEvent{
		TraceID:  s.sc.TraceID,
		SpanID:   s.sc.SpanID,
		ParentID: s.parent,
		Name:     s.name,
		Peer:     s.peer,
		Start:    s.start,
		Duration: time.Since(s.start),
	}
	if err != nil {
		e.Err = err.Error()
	}
	if s.t.exp != nil {
		s.t.exp.ExportSpan(e)
	}
	if s.t.log != nil {
		s.t.log.Debug("span",
			"trace", e.TraceID, "span", e.SpanID, "parent", e.ParentID,
			"name", e.Name, "peer", e.Peer, "dur", e.Duration, "err", e.Err)
	}
}

// Record exports a pre-built event directly (server-side dispatch uses
// this to avoid threading a Span value through the handler stack).
func (t *Tracer) Record(e SpanEvent) {
	if t == nil {
		return
	}
	if t.exp != nil {
		t.exp.ExportSpan(e)
	}
	if t.log != nil {
		t.log.Debug("span",
			"trace", e.TraceID, "span", e.SpanID, "parent", e.ParentID,
			"name", e.Name, "peer", e.Peer, "dur", e.Duration, "err", e.Err)
	}
}
