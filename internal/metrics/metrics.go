// Package metrics provides the measurement primitives used by the
// experiment harness: latency histograms with percentile queries, CDF
// extraction (Figs. 11b, 13a of the paper), time series of
// allocated/used capacity (Figs. 1, 11a, 14), and text tables.
//
// All types are safe for concurrent use unless noted otherwise.
package metrics

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// Quantile sorts samples in place and returns the sample at index
// floor(q·(n-1)), 0 <= q <= 1: the one sorted-sample quantile the soak
// report, the tail gate and the figure histograms grade latency with.
// Returns 0 for no samples.
func Quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	return samples[int(q*float64(len(samples)-1))]
}

// Histogram records duration samples and answers percentile queries.
// Samples are kept exactly (the experiments here record at most a few
// million points), which keeps percentiles precise for CDF plots.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	h.samples = append(h.samples, d)
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Percentile returns the p-th percentile (0 <= p <= 100) by Quantile's
// rank rule. Returns 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Quantile(h.samples, p/100)
}

// Mean returns the arithmetic mean of the samples.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range h.samples {
		sum += s
	}
	return sum / time.Duration(len(h.samples))
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	return slices.Max(h.samples)
}

// CDF returns (value, cumulative-fraction) pairs at n evenly spaced
// quantiles, suitable for plotting the paper's CDF figures.
func (h *Histogram) CDF(n int) []CDFPoint {
	if n < 2 {
		n = 2
	}
	pts := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n-1)
		pts = append(pts, CDFPoint{
			Value:    h.Percentile(frac * 100),
			Fraction: frac,
		})
	}
	return pts
}

// CDFPoint is one point on a latency CDF.
type CDFPoint struct {
	Value    time.Duration
	Fraction float64
}

// Summary formats count/mean/p50/p99/max on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(95),
		h.Percentile(99), h.Max())
}

// Series is a time series of float64 samples, used for the
// allocated-vs-used capacity plots. Not safe for concurrent use; the
// simulator appends from a single goroutine.
type Series struct {
	Name   string
	Points []SeriesPoint
}

// SeriesPoint is one (time, value) sample.
type SeriesPoint struct {
	T time.Time
	V float64
}

// Add appends a sample.
func (s *Series) Add(t time.Time, v float64) {
	s.Points = append(s.Points, SeriesPoint{T: t, V: v})
}

// Max returns the maximum value in the series (0 when empty).
func (s *Series) Max() float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Mean returns the arithmetic mean of the values (0 when empty).
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// Integral returns the time integral of the series (value × seconds),
// treating the series as a step function held constant between samples.
func (s *Series) Integral() float64 {
	if len(s.Points) < 2 {
		return 0
	}
	total := 0.0
	for i := 1; i < len(s.Points); i++ {
		dt := s.Points[i].T.Sub(s.Points[i-1].T).Seconds()
		total += s.Points[i-1].V * dt
	}
	return total
}

// Normalize returns a copy of the series with every value divided by
// denom. A zero denom yields an all-zero copy.
func (s *Series) Normalize(denom float64) *Series {
	out := &Series{Name: s.Name}
	for _, p := range s.Points {
		v := 0.0
		if denom != 0 {
			v = p.V / denom
		}
		out.Add(p.T, v)
	}
	return out
}

// Downsample returns a copy with at most n points, picked evenly.
func (s *Series) Downsample(n int) *Series {
	if n <= 0 || len(s.Points) <= n {
		cp := &Series{Name: s.Name, Points: append([]SeriesPoint(nil), s.Points...)}
		return cp
	}
	out := &Series{Name: s.Name}
	step := float64(len(s.Points)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out.Points = append(out.Points, s.Points[int(float64(i)*step)])
	}
	return out
}

// Table accumulates labelled rows for experiment output; every figure
// reproduction prints one Table whose rows mirror the paper's series.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
