// Package clock abstracts time so that the same Jiffy mechanisms (lease
// expiry, repartition pacing, latency models) run against either the
// wall clock (live deployments) or a virtual clock (the trace-replay
// simulator in internal/sim, which replays hours of the Snowflake-like
// workload in milliseconds, deterministically).
package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the time source used by every time-dependent Jiffy component.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks the caller for d. On the virtual clock this blocks
	// until the simulation advances past the deadline.
	Sleep(d time.Duration)
	// After returns a channel that delivers the (then-current) time
	// once d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// Real is the wall-clock implementation.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Virtual is a manually advanced clock. Time only moves when Advance or
// AdvanceTo is called; timers created via After/Sleep fire during the
// advance, in deadline order. Virtual is safe for concurrent use.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	timers timerHeap
}

// NewVirtual returns a virtual clock positioned at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// After implements Clock. The returned channel has capacity 1 so firing
// never blocks the advancing goroutine.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.mu.Lock()
	defer v.mu.Unlock()
	if d <= 0 {
		ch <- v.now
		return ch
	}
	heap.Push(&v.timers, &timer{at: v.now.Add(d), ch: ch})
	return ch
}

// Sleep implements Clock. It blocks until another goroutine advances
// the clock past the deadline — callers must arrange for that advance.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-v.After(d)
}

// Advance moves the clock forward by d, firing timers in deadline order.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.now.Add(d)
	v.mu.Unlock()
	v.AdvanceTo(target)
}

// AdvanceTo moves the clock to t (no-op if t is not after now), firing
// every timer whose deadline is <= t. Each timer fires with the clock
// positioned exactly at its deadline, so chains of timers see
// monotonically non-decreasing time.
func (v *Virtual) AdvanceTo(t time.Time) {
	for {
		v.mu.Lock()
		if len(v.timers) == 0 || v.timers[0].at.After(t) {
			if t.After(v.now) {
				v.now = t
			}
			v.mu.Unlock()
			return
		}
		tm := heap.Pop(&v.timers).(*timer)
		if tm.at.After(v.now) {
			v.now = tm.at
		}
		now := v.now
		v.mu.Unlock()
		tm.ch <- now
	}
}

// PendingTimers reports how many timers are waiting to fire; useful for
// simulator drain loops and tests.
func (v *Virtual) PendingTimers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.timers)
}

type timer struct {
	at time.Time
	ch chan time.Time
}

type timerHeap []*timer

func (h timerHeap) Len() int            { return len(h) }
func (h timerHeap) Less(i, j int) bool  { return h[i].at.Before(h[j].at) }
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
