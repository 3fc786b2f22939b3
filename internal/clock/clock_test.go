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

func TestVirtualTimersFireInOrder(t *testing.T) {
	start := time.Unix(0, 0)
	v := NewVirtual(start)
	c3 := v.NewTimer(3 * time.Second).C()
	c1 := v.NewTimer(1 * time.Second).C()
	c2 := v.NewTimer(2 * time.Second).C()
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

func TestVirtualTimerZeroFiresImmediately(t *testing.T) {
	v := NewVirtual(time.Unix(50, 0))
	select {
	case <-v.NewTimer(0).C():
	default:
		t.Error("NewTimer(0) should fire immediately")
	}
}

func TestVirtualPartialAdvance(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	far := v.NewTimer(10 * time.Second).C()
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
			fired <- <-v.NewTimer(time.Duration(i+1) * time.Millisecond).C()
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

// TestVirtualTimerFiresOncePerArming: a timer fires once for each
// arming, and Reset re-arms it relative to the clock's Now, not to its
// last deadline — so a loop that re-arms after its work wakes at the
// same virtual instants as one that made a new timer there.
func TestVirtualTimerFiresOncePerArming(t *testing.T) {
	start := time.Unix(0, 0)
	v := NewVirtual(start)
	tm := v.NewTimer(time.Second)
	v.Advance(5 * time.Second)
	if got := <-tm.C(); !got.Equal(start.Add(time.Second)) {
		t.Fatalf("first arming fired at %v", got)
	}
	select {
	case got := <-tm.C():
		t.Fatalf("fired twice for one arming, again at %v", got)
	default:
	}
	if n := v.PendingTimers(); n != 0 {
		t.Fatalf("pending = %d after the timer fired", n)
	}
	tm.Reset(2 * time.Second) // Now is start+5s
	if n := v.PendingTimers(); n != 1 {
		t.Fatalf("pending = %d after Reset, want 1", n)
	}
	v.Advance(time.Second)
	select {
	case got := <-tm.C():
		t.Fatalf("re-armed timer fired early at %v", got)
	default:
	}
	v.Advance(time.Second)
	if got := <-tm.C(); !got.Equal(start.Add(7 * time.Second)) {
		t.Fatalf("re-armed timer fired at %v, want Now+2s = %v", got, start.Add(7*time.Second))
	}
	// Reset while armed moves the one entry instead of adding another.
	tm.Reset(time.Second)
	tm.Reset(3 * time.Second)
	if n := v.PendingTimers(); n != 1 {
		t.Fatalf("pending = %d after two Resets, want 1", n)
	}
	v.Advance(2 * time.Second)
	select {
	case got := <-tm.C():
		t.Fatalf("the earlier arming fired at %v after a later Reset", got)
	default:
	}
	v.Advance(time.Second)
	<-tm.C()
}

// TestVirtualTimerStop: Stop removes the timer's entry, so a loop that
// exits leaves no pending timer behind, and drains a value it fired but
// nobody took.
func TestVirtualTimerStop(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	tm := v.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop of an armed timer reported it disarmed")
	}
	if n := v.PendingTimers(); n != 0 {
		t.Fatalf("pending = %d after Stop, want 0", n)
	}
	v.Advance(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("a stopped timer fired")
	default:
	}
	tm.Reset(time.Second)
	v.Advance(time.Second)
	if tm.Stop() {
		t.Fatal("Stop of a fired timer reported it armed")
	}
	select {
	case <-tm.C():
		t.Fatal("Stop left the fired value in the channel")
	default:
	}
	if n := v.PendingTimers(); n != 0 {
		t.Fatalf("pending = %d after Stop, want 0", n)
	}
}

// TestTimerResetAllocs: re-arming a timer allocates nothing on either
// clock, which is what lets a periodic loop own one.
func TestTimerResetAllocs(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	for _, c := range []struct {
		name string
		clk  Clock
		tick func(Timer)
	}{
		{"virtual", v, func(tm Timer) { v.Advance(time.Millisecond); <-tm.C() }},
		{"real", Real{}, func(tm Timer) { <-tm.C() }},
	} {
		tm := c.clk.NewTimer(time.Microsecond)
		c.tick(tm)
		allocs := testing.AllocsPerRun(100, func() {
			tm.Reset(time.Microsecond)
			c.tick(tm)
		})
		tm.Stop()
		if allocs != 0 {
			t.Errorf("%s: a Reset and its tick allocate %.1f objects, want 0", c.name, allocs)
		}
	}
}
