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
	// NewTimer returns a timer that delivers the (then-current) time on
	// its channel once d has elapsed.
	NewTimer(d time.Duration) Timer
}

// Timer is one pending wake-up of a periodic loop, re-armed in place: a
// loop that owns one allocates nothing per tick, where a fresh timer
// per wait costs a timer and a channel.
type Timer interface {
	// C is the channel the timer fires on, once per arming.
	C() <-chan time.Time
	// Reset re-arms the timer to fire d after the clock's Now. Call it
	// only once the timer has fired and its value was received, or it
	// was stopped.
	Reset(d time.Duration)
	// Stop disarms the timer; it reports whether the timer was armed.
	Stop() bool
}

// Real is the wall-clock implementation.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// NewTimer implements Clock with one *time.Timer.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time   { return r.t.C }
func (r realTimer) Reset(d time.Duration) { r.t.Reset(d) }
func (r realTimer) Stop() bool            { return r.t.Stop() }

// Virtual is a manually advanced clock. Time only moves when Advance or
// AdvanceTo is called; timers (NewTimer, Sleep) fire during the
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

// NewTimer implements Clock. The timer is one heap entry, which Reset
// re-arms in place; its channel has capacity 1 so firing never blocks
// the advancing goroutine.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	t := &timer{v: v, ch: make(chan time.Time, 1), index: -1}
	t.Reset(d)
	return t
}

// Sleep implements Clock. It blocks until another goroutine advances
// the clock past the deadline — callers must arrange for that advance.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-v.NewTimer(d).C()
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
		// As a real timer does, a timer whose last value was never taken
		// drops this one rather than block the advance.
		select {
		case tm.ch <- now:
		default:
		}
	}
}

// PendingTimers reports how many timers are waiting to fire; useful for
// simulator drain loops and tests.
func (v *Virtual) PendingTimers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.timers)
}

// timer is a virtual timer: its heap entry while armed (index >= 0).
type timer struct {
	v     *Virtual
	at    time.Time
	ch    chan time.Time
	index int
}

func (t *timer) C() <-chan time.Time { return t.ch }

// Reset re-arms t at d after Now, moving its entry if it is still
// armed; d <= 0 fires it at once.
func (t *timer) Reset(d time.Duration) {
	v := t.v
	v.mu.Lock()
	defer v.mu.Unlock()
	if d <= 0 {
		if t.index >= 0 {
			heap.Remove(&v.timers, t.index)
		}
		select {
		case t.ch <- v.now:
		default:
		}
		return
	}
	t.at = v.now.Add(d)
	if t.index >= 0 {
		heap.Fix(&v.timers, t.index)
	} else {
		heap.Push(&v.timers, t)
	}
}

// Stop removes t's entry and drains a value it fired but nobody took.
func (t *timer) Stop() bool {
	v := t.v
	v.mu.Lock()
	defer v.mu.Unlock()
	armed := t.index >= 0
	if armed {
		heap.Remove(&v.timers, t.index)
	}
	select {
	case <-t.ch:
	default:
	}
	return armed
}

type timerHeap []*timer

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *timerHeap) Push(x interface{}) {
	t := x.(*timer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
