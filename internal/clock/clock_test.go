package clock

import (
	"sync"
	"testing"
	"time"
)

func TestRealNow(t *testing.T) {
	var c Real
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Errorf("Real.Now() = %v outside [%v, %v]", got, before, after)
	}
}

func TestVirtualAdvance(t *testing.T) {
	start := time.Unix(1000, 0)
	v := NewVirtual(start)
	if !v.Now().Equal(start) {
		t.Fatalf("Now() = %v, want %v", v.Now(), start)
	}
	v.Advance(5 * time.Second)
	if want := start.Add(5 * time.Second); !v.Now().Equal(want) {
		t.Errorf("Now() = %v, want %v", v.Now(), want)
	}
}

func TestVirtualAdvanceToBackwardsNoop(t *testing.T) {
	start := time.Unix(1000, 0)
	v := NewVirtual(start)
	v.AdvanceTo(start.Add(-time.Hour))
	if !v.Now().Equal(start) {
		t.Errorf("backwards AdvanceTo moved the clock to %v", v.Now())
	}
}

func TestVirtualAfterFiresInOrder(t *testing.T) {
	start := time.Unix(0, 0)
	v := NewVirtual(start)
	c3 := v.After(3 * time.Second)
	c1 := v.After(1 * time.Second)
	c2 := v.After(2 * time.Second)
	if v.PendingTimers() != 3 {
		t.Fatalf("pending = %d, want 3", v.PendingTimers())
	}
	v.Advance(10 * time.Second)
	t1, t2, t3 := <-c1, <-c2, <-c3
	if !t1.Equal(start.Add(1 * time.Second)) {
		t.Errorf("timer1 fired at %v", t1)
	}
	if !t2.Equal(start.Add(2 * time.Second)) {
		t.Errorf("timer2 fired at %v", t2)
	}
	if !t3.Equal(start.Add(3 * time.Second)) {
		t.Errorf("timer3 fired at %v", t3)
	}
	if v.PendingTimers() != 0 {
		t.Errorf("pending = %d after advance", v.PendingTimers())
	}
}

func TestVirtualAfterZeroFiresImmediately(t *testing.T) {
	v := NewVirtual(time.Unix(50, 0))
	select {
	case <-v.After(0):
	default:
		t.Error("After(0) should fire immediately")
	}
}

func TestVirtualPartialAdvance(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	far := v.After(10 * time.Second)
	v.Advance(5 * time.Second)
	select {
	case <-far:
		t.Fatal("timer fired early")
	default:
	}
	v.Advance(5 * time.Second)
	select {
	case <-far:
	default:
		t.Fatal("timer did not fire at its deadline")
	}
}

func TestVirtualSleepBlocksUntilAdvance(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v.Sleep(time.Second)
		close(done)
	}()
	// Give the sleeper a chance to register its timer.
	for v.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("Sleep returned before advance")
	default:
	}
	v.Advance(2 * time.Second)
	wg.Wait()
}

func TestVirtualConcurrentTimers(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	const n = 100
	var wg sync.WaitGroup
	fired := make(chan time.Time, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fired <- <-v.After(time.Duration(i+1) * time.Millisecond)
		}(i)
	}
	for v.PendingTimers() < n {
		time.Sleep(time.Millisecond)
	}
	v.Advance(time.Second)
	wg.Wait()
	close(fired)
	count := 0
	for range fired {
		count++
	}
	if count != n {
		t.Errorf("fired %d timers, want %d", count, n)
	}
}
