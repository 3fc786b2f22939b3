package stats

import (
	"sort"
	"time"
)

// Windows turns a running count of completed operations into a list of
// per-window rates, so that throughput can be reported as the median
// window rate: a stall caused by a neighbour on the machine spoils one
// window, not the whole run. A window closes either on a fixed width
// (Observe) or where the caller says (Close), and only complete
// windows count.
type Windows struct {
	width   time.Duration
	lastT   time.Duration
	lastOps uint64
	rates   []float64
}

// NewWindows returns a recorder whose Observe closes a window every
// width of elapsed time.
func NewWindows(width time.Duration) *Windows {
	// 256 windows is more than any run here produces, so recording a
	// rate does not allocate inside the measured phase.
	return &Windows{width: width, rates: make([]float64, 0, 256)}
}

// Observe is called after an operation completes with the time since
// the measured phase began and the operations completed so far. It
// closes the current window once it is at least width long.
func (w *Windows) Observe(elapsed time.Duration, ops uint64) {
	if elapsed-w.lastT >= w.width {
		w.Close(elapsed, ops)
	}
}

// Close ends the current window at elapsed, whatever its length. A
// workload whose unit of work is a whole job closes one window per
// job.
func (w *Windows) Close(elapsed time.Duration, ops uint64) {
	dt := elapsed - w.lastT
	if dt <= 0 {
		return
	}
	w.rates = append(w.rates, float64(ops-w.lastOps)/dt.Seconds())
	w.lastT, w.lastOps = elapsed, ops
}

// Len is the number of complete windows.
func (w *Windows) Len() int { return len(w.rates) }

// Median is the median window rate in operations per second, or 0
// when no window completed.
func (w *Windows) Median() float64 { return Median(w.rates) }

// Median returns the median of vs (the mean of the middle two for an
// even count) without reordering vs; 0 for an empty slice.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
