package stats

import (
	"math"
	"sort"
	"testing"
	"time"
)

// TestHistQuantileError checks the histogram's promise: any quantile
// it reports is within 1 % of the exact one.
func TestHistQuantileError(t *testing.T) {
	r := NewRand(1, 0)
	var h Hist
	exact := make([]float64, 200_000)
	for i := range exact {
		// Log-uniform over 100 ns .. 100 ms, the range latencies span.
		v := int64(100 * math.Pow(1e6, r.Float64()))
		exact[i] = float64(v)
		h.Record(v)
	}
	sort.Float64s(exact)
	if h.Count() != uint64(len(exact)) {
		t.Fatalf("count %d, want %d", h.Count(), len(exact))
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		want := exact[int(math.Ceil(q*float64(len(exact))))-1]
		got := h.Quantile(q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%v = %v, exact %v: off by more than 1%%", q, got, want)
		}
	}
}

func TestHistSmallValuesExactAndMerge(t *testing.T) {
	var a, b Hist
	for v := int64(0); v < 100; v++ {
		a.Record(v)
		b.Record(v + 100)
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged count %d", a.Count())
	}
	if got := a.Quantile(0.25); got != 49 {
		t.Errorf("q0.25 = %v, want 49 (values below 128 are exact)", got)
	}
	if got := (&Hist{}).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram reports %v", got)
	}
	var big Hist
	big.Record(math.MaxInt64)
	big.Record(-5)
	if big.Count() != 2 || big.Quantile(1) <= 0 {
		t.Errorf("out-of-range samples not clamped: count %d, max %v", big.Count(), big.Quantile(1))
	}
}

// TestTailQuantile checks the "at least ten samples beyond" rule.
func TestTailQuantile(t *testing.T) {
	fill := func(n int) *Hist {
		var h Hist
		for i := 1; i <= n; i++ {
			h.Record(int64(i) * 1000)
		}
		return &h
	}
	if q, _ := fill(5000).TailQuantile(0.99, 10); q != 0.99 {
		t.Errorf("5000 samples: quantile %v, want 0.99", q)
	}
	// 200 samples hold 10 beyond p95, not beyond p99.
	q, v := fill(200).TailQuantile(0.99, 10)
	if q != 0.95 {
		t.Errorf("200 samples: quantile %v, want 0.95", q)
	}
	if want := 190_000.0; math.Abs(v-want)/want > 0.01 {
		t.Errorf("200 samples: value %v, want about %v", v, want)
	}
	if q, _ := fill(12).TailQuantile(0.99, 10); q != 0.5 {
		t.Errorf("12 samples: quantile %v, want the median", q)
	}
}

func TestWindowsMedianIgnoresAStall(t *testing.T) {
	w := NewWindows(time.Second)
	var ops uint64
	elapsed := time.Duration(0)
	step := func(d time.Duration, n uint64) {
		elapsed += d
		ops += n
		w.Observe(elapsed, ops)
	}
	for i := 0; i < 3000; i++ { // three seconds at 1000 ops/s
		step(time.Millisecond, 1)
	}
	step(900*time.Millisecond, 1) // a stall
	for i := 0; i < 3000; i++ {
		step(time.Millisecond, 1)
	}
	// The 900 ms after the last full second are an incomplete window
	// and do not count.
	if w.Len() != 6 {
		t.Fatalf("%d windows, want 6", w.Len())
	}
	if got := w.Median(); math.Abs(got-1000) > 5 {
		t.Errorf("median window rate %v, want 1000 despite the stall", got)
	}
	if total := float64(ops) / elapsed.Seconds(); total > 900 {
		t.Errorf("test is vacuous: total/elapsed %v also hides the stall", total)
	}
}

func TestWindowsCloseAndMedian(t *testing.T) {
	w := NewWindows(time.Hour)
	w.Close(100*time.Millisecond, 50)  // 500/s
	w.Close(300*time.Millisecond, 250) // 1000/s
	w.Close(300*time.Millisecond, 260) // zero-length window ignored
	if w.Len() != 2 || w.Median() != 750 {
		t.Errorf("%d windows, median %v; want 2 and 750", w.Len(), w.Median())
	}
	if Median(nil) != 0 || Median([]float64{3, 1, 2}) != 2 {
		t.Error("Median of empty or odd-length slice wrong")
	}
}

// draw returns the hash of n operations drawn from a seeded zipf.
func draw(seed uint64, n int) (OpHash, []int) {
	z := NewZipf(NewRand(seed, 1), 1000, 0.99)
	h := NewOpHash()
	counts := make([]int, 1000)
	for i := 0; i < n; i++ {
		k := z.Next()
		counts[k]++
		h.Add(uint64(Scatter(k, 1000)))
	}
	return h, counts
}

func TestSeedFixesTheOpSequence(t *testing.T) {
	a, _ := draw(1, 4096)
	b, _ := draw(1, 4096)
	c, _ := draw(2, 4096)
	if a != b {
		t.Errorf("same seed, different hashes: %x and %x", a, b)
	}
	if a == c {
		t.Errorf("different seeds, same hash %x", a)
	}
}

func TestZipfShape(t *testing.T) {
	const n = 400_000
	_, counts := draw(3, n)
	// With theta 0.99 over 1000 items rank 0 draws about 13 % and the
	// frequencies fall off roughly as 1/rank.
	if share := float64(counts[0]) / n; share < 0.11 || share > 0.16 {
		t.Errorf("rank 0 drew %.3f of the samples", share)
	}
	if ratio := float64(counts[0]) / float64(counts[9]); ratio < 7 || ratio > 13 {
		t.Errorf("rank 0 / rank 9 = %.1f, want about 10", ratio)
	}
	for k, c := range counts {
		if c == 0 && k < 500 {
			t.Errorf("rank %d never drawn", k)
		}
	}
	seen := make(map[int]bool)
	for k := 0; k < 1000; k++ {
		i := Scatter(k, 1000)
		if i < 0 || i >= 1000 {
			t.Fatalf("Scatter(%d) = %d out of range", k, i)
		}
		seen[i] = true
	}
	if len(seen) != 1000 {
		t.Errorf("Scatter maps 1000 ranks onto %d items, want a bijection", len(seen))
	}
}
