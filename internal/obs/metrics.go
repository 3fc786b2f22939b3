// Package obs is the live observability layer: lock-light runtime
// telemetry for a running cluster, as opposed to internal/metrics and
// internal/trace, which serve the offline experiment harness with
// exact-sample recording. Everything here is built for the hot path —
// atomic counters and gauges, fixed-bucket histograms with no
// per-sample allocation — plus span-style trace propagation and an
// admin HTTP endpoint exposing Prometheus text-format metrics.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the process-wide telemetry switch. It exists so the
// telemetry-overhead gate (internal/bench/hotpath, behind
// jiffy-regress -overhead) can A/B the always-on instrumentation;
// production code never turns it off.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled flips the process-wide telemetry switch and reports the
// previous value. Benchmark-only; not intended for production use.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// On reports whether telemetry is enabled. Hot paths check it once per
// operation; a single atomic load.
func On() bool { return enabled.Load() }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of histogram buckets. Bucket i counts
// observations v with v <= 2^i (power-of-two bounds); the final bucket
// is the +Inf overflow. 2^26 µs ≈ 67s comfortably covers RPC latency,
// and 2^26 covers any batch size.
const histBuckets = 28

// Histogram is a fixed-bucket histogram with power-of-two bounds and
// no per-sample allocation: one atomic add per observation (plus the
// sum and count), unlike the harness's exact-sample metrics.Histogram.
// Values are unitless; latency callers observe microseconds (see
// ObserveDuration), size callers observe counts or bytes.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
}

// Observe records one sample. Values <= 0 land in the first bucket.
func (h *Histogram) Observe(v int64) {
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v - 1))
		if idx >= histBuckets {
			idx = histBuckets - 1
		}
	}
	h.counts[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a latency sample in microseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(int64(d / time.Microsecond))
}

// Count returns the total number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// bucketBound returns the inclusive upper bound of bucket i, or -1 for
// the +Inf bucket.
func bucketBound(i int) int64 {
	if i >= histBuckets-1 {
		return -1
	}
	return int64(1) << uint(i)
}

// Registry is a set of named metrics rendered together in Prometheus
// text exposition format. Components own a Registry each; the admin
// endpoint serves it at /metrics.
type Registry struct {
	mu         sync.Mutex
	collectors []func(w io.Writer)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// RegisterCollector adds a raw collector invoked at scrape time.
// Collectors must emit complete Prometheus text-format lines.
func (r *Registry) RegisterCollector(fn func(w io.Writer)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Counter creates, registers and returns a named counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.RegisterCollector(func(w io.Writer) {
		WriteHeader(w, name, help, "counter")
		WriteSample(w, name, "", c.Value())
	})
	return c
}

// Gauge creates, registers and returns a named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.RegisterCollector(func(w io.Writer) {
		WriteHeader(w, name, help, "gauge")
		WriteSample(w, name, "", g.Value())
	})
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.RegisterCollector(func(w io.Writer) {
		WriteHeader(w, name, help, "gauge")
		WriteSample(w, name, "", fn())
	})
}

// Histogram creates, registers and returns a named histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.RegisterCollector(func(w io.Writer) {
		WriteHeader(w, name, help, "histogram")
		WriteHistogram(w, name, "", h)
	})
	return h
}

// WritePrometheus renders every registered metric in text exposition
// format.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	collectors := make([]func(w io.Writer), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, fn := range collectors {
		fn(bw)
	}
	bw.Flush()
}

// WriteHeader emits the # HELP / # TYPE preamble for a metric.
func WriteHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WriteSample emits one sample line. labels is either empty or a
// preformatted `{k="v",...}` block.
func WriteSample(w io.Writer, name, labels string, v int64) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, v)
}

// WriteHistogram emits the cumulative _bucket/_sum/_count series for h.
// labels is either empty or a preformatted `{k="v",...}` block whose
// keys must not include "le".
func WriteHistogram(w io.Writer, name, labels string, h *Histogram) {
	inner := ""
	if labels != "" {
		inner = labels[1:len(labels)-1] + ","
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		le := "+Inf"
		if b := bucketBound(i); b >= 0 {
			le = strconv.FormatInt(b, 10)
		}
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, inner, le, cum)
	}
	fmt.Fprintf(w, "%s_sum%s %d\n", name, labels, h.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
}

// ParsePrometheus parses text exposition format into a map from
// `name{labels}` (exactly as rendered) to value. Helper for tests and
// the CLI watch mode; histogram buckets appear as individual entries.
func ParsePrometheus(data []byte) map[string]float64 {
	out := make(map[string]float64)
	start := 0
	for i := 0; i <= len(data); i++ {
		if i != len(data) && data[i] != '\n' {
			continue
		}
		line := string(data[start:i])
		start = i + 1
		if line == "" || line[0] == '#' {
			continue
		}
		sp := -1
		depth := 0
		for j := 0; j < len(line); j++ {
			switch line[j] {
			case '{':
				depth++
			case '}':
				depth--
			case ' ':
				if depth == 0 {
					sp = j
				}
			}
			if sp >= 0 {
				break
			}
		}
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

// SortedKeys returns the keys of a parsed metric map in stable order.
func SortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
