package metrics

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// TestQuantile: floor-rank on a sorted copy of the input, which may
// arrive in any order; no samples is zero.
func TestQuantile(t *testing.T) {
	if got := Quantile(nil, 0.99); got != 0 {
		t.Errorf("Quantile(nil) = %v", got)
	}
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(100-i) * time.Millisecond // 100ms … 1ms
	}
	for q, want := range map[float64]time.Duration{
		0: time.Millisecond, 0.5: 50 * time.Millisecond, 0.99: 99 * time.Millisecond, 1: 100 * time.Millisecond,
	} {
		if got := Quantile(samples, q); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if got := h.Percentile(0); got != time.Millisecond {
		t.Errorf("p0 = %v", got)
	}
	if got := h.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("p100 = %v", got)
	}
	// Quantile's rank rule, floor(q·(n-1)): no interpolation.
	if got := h.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := h.Percentile(99); got != 99*time.Millisecond {
		t.Errorf("p99 = %v", got)
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Errorf("mean = %v", got)
	}
	if h.Max() != 100*time.Millisecond {
		t.Errorf("max = %v", h.Max())
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	// Property: percentiles are monotonically non-decreasing in p.
	f := func(raw []int16) bool {
		h := NewHistogram()
		for _, r := range raw {
			d := time.Duration(r)
			if d < 0 {
				d = -d
			}
			h.Record(d)
		}
		prev := time.Duration(-1)
		for p := 0.0; p <= 100; p += 7.3 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	cdf := h.CDF(11)
	if len(cdf) != 11 {
		t.Fatalf("CDF points = %d", len(cdf))
	}
	if cdf[0].Fraction != 0 || cdf[10].Fraction != 1 {
		t.Errorf("CDF fractions endpoints = %v, %v", cdf[0].Fraction, cdf[10].Fraction)
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value {
			t.Errorf("CDF not monotonic at %d", i)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Millisecond)
	s := h.Summary()
	if !strings.Contains(s, "n=1") {
		t.Errorf("summary = %q", s)
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "used"}
	t0 := time.Unix(0, 0)
	s.Add(t0, 10)
	s.Add(t0.Add(time.Second), 20)
	s.Add(t0.Add(2*time.Second), 30)
	if s.Max() != 30 {
		t.Errorf("max = %v", s.Max())
	}
	if s.Mean() != 20 {
		t.Errorf("mean = %v", s.Mean())
	}
	// Step integral: 10*1 + 20*1 = 30.
	if got := s.Integral(); got != 30 {
		t.Errorf("integral = %v", got)
	}
}

func TestSeriesNormalize(t *testing.T) {
	s := &Series{}
	s.Add(time.Unix(0, 0), 50)
	n := s.Normalize(100)
	if n.Points[0].V != 0.5 {
		t.Errorf("normalized = %v", n.Points[0].V)
	}
	z := s.Normalize(0)
	if z.Points[0].V != 0 {
		t.Errorf("zero-denominator normalize = %v", z.Points[0].V)
	}
}

func TestSeriesDownsample(t *testing.T) {
	s := &Series{}
	for i := 0; i < 100; i++ {
		s.Add(time.Unix(int64(i), 0), float64(i))
	}
	d := s.Downsample(10)
	if len(d.Points) != 10 {
		t.Fatalf("downsampled to %d points", len(d.Points))
	}
	if d.Points[0].V != 0 || d.Points[9].V != 99 {
		t.Errorf("endpoints = %v, %v", d.Points[0].V, d.Points[9].V)
	}
	// Downsampling to more points than exist returns a copy.
	all := s.Downsample(1000)
	if len(all.Points) != 100 {
		t.Errorf("oversized downsample = %d points", len(all.Points))
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := &Series{}
	if s.Max() != 0 || s.Mean() != 0 || s.Integral() != 0 {
		t.Error("empty series should report zeros")
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Fig. 9(a)", "capacity", "slowdown")
	tb.AddRow("100%", 1.0)
	tb.AddRow("20%", 2.5)
	out := tb.String()
	if !strings.Contains(out, "Fig. 9(a)") || !strings.Contains(out, "2.500") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("table has %d lines:\n%s", len(lines), out)
	}
}
