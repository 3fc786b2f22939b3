// Package stats holds the benchmark's measurement helpers: a
// log-bucket latency histogram, window-median throughput and the
// seeded input generators. Nothing here imports jiffy, so the helpers
// can be tested on their own.
package stats

import (
	"math"
	"math/bits"
)

// subBits fixes the histogram's resolution: every power of two is
// split into 1<<subBits buckets, so a bucket is at most 1/128 (0.78 %)
// wide relative to its lower edge, which bounds the error of any
// quantile read from it.
const subBits = 7

const (
	subCount = 1 << subBits
	// maxExp bounds recordable values at 2^40 ns (about 18 minutes);
	// larger samples land in the last bucket.
	maxExp   = 40
	nBuckets = (maxExp - subBits + 1) * subCount
)

// Hist is a fixed-size log-bucket histogram of non-negative int64
// samples (nanoseconds in this benchmark). Record never allocates. It
// is not safe for concurrent use: each load-generator goroutine owns
// one and the owner merges them after the goroutines have stopped.
type Hist struct {
	counts [nBuckets]uint64
	n      uint64
}

// bucketOf maps a sample to its bucket index. Values below subCount
// get one bucket each (exact); above that the index is the exponent
// followed by the top subBits bits of the mantissa.
func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // v in [2^exp, 2^(exp+1))
	if exp >= maxExp {
		return nBuckets - 1
	}
	sub := int(uint64(v)>>(exp-subBits)) & (subCount - 1)
	return (exp-subBits+1)*subCount + sub
}

// bucketRange returns a bucket's lowest value and its width.
func bucketRange(i int) (lo, width float64) {
	if i < subCount {
		return float64(i), 0 // one value per bucket
	}
	exp := i/subCount + subBits - 1
	sub := i % subCount
	width = float64(uint64(1) << (exp - subBits))
	return float64(uint64(1)<<exp) + float64(sub)*width, width
}

// Record adds one sample.
func (h *Hist) Record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

// Count is the number of samples recorded.
func (h *Hist) Count() uint64 { return h.n }

// Merge adds every sample of o into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Quantile returns the value at quantile q in [0,1]: the sample of
// rank ceil(q*n), placed inside its bucket by assuming the bucket's
// samples are spread evenly over it. The result is therefore not
// quantised to bucket edges and is within one bucket width (0.78 %) of
// the exact quantile. It is 0 for an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	rank = min(max(rank, 1), h.n)
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, width := bucketRange(i)
			return lo + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	return 0 // unreachable: the counts sum to n
}

// TailQuantile picks the quantile to report for a tail latency: target
// (0.99 here) when at least minBeyond samples lie beyond it, otherwise
// the highest quantile that still has minBeyond samples beyond it, and
// never below the median. It returns the quantile used and its value.
func (h *Hist) TailQuantile(target float64, minBeyond int) (q, v float64) {
	q = target
	if h.n > 0 {
		if most := 1 - float64(minBeyond)/float64(h.n); most < q {
			q = most
		}
	}
	if q < 0.5 {
		q = 0.5
	}
	return q, h.Quantile(q)
}
