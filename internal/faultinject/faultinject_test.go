package faultinject

import (
	"errors"
	"net"
	"testing"
	"time"

	"jiffy/internal/clock"
	"jiffy/internal/persist"
)

// TestScheduleDeterminism is the reproducibility contract: the same
// seed and rule set produce the identical fault schedule, and a
// different seed produces a different one.
func TestScheduleDeterminism(t *testing.T) {
	mk := func(seed int64) []Decision {
		inj := New(seed, nil)
		inj.AddRule(Rule{
			Name: "flaky", Match: "send:", DropProb: 0.3, ResetProb: 0.05,
			Latency: time.Millisecond, Jitter: time.Millisecond,
		})
		return inj.Schedule("flaky", 256)
	}
	a, b := mk(42), mk(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := mk(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical schedules")
	}
	// The schedule has roughly the configured drop rate.
	drops := 0
	for _, d := range a {
		if d.Drop {
			drops++
		}
	}
	if drops < len(a)/5 || drops > len(a)/2 {
		t.Errorf("drop rate %d/%d far from configured 0.3", drops, len(a))
	}
}

// TestDecideMatchesSchedule: live decisions consume the same schedule
// that Schedule reports, independent of other rules' traffic.
func TestDecideMatchesSchedule(t *testing.T) {
	inj := New(7, nil)
	inj.AddRule(Rule{Name: "r1", Match: "send:a", DropProb: 0.5})
	inj.AddRule(Rule{Name: "r2", Match: "send:b", DropProb: 0.5})
	want := inj.Schedule("r1", 64)
	for i := 0; i < 64; i++ {
		// Interleave unrelated traffic; r1's schedule must not shift.
		inj.decide("send:b", 0)
		got := inj.decide("send:a", 0)
		if got.Drop != want[i].Drop {
			t.Fatalf("op %d: live drop=%v, schedule drop=%v", i, got.Drop, want[i].Drop)
		}
	}
}

// TestConnDropAndPartition exercises the wrapper over a real pipe.
func TestConnDropAndPartition(t *testing.T) {
	inj := New(1, nil)
	client, server := net.Pipe()
	wrapped := inj.WrapConnAs("", "peer", client)
	defer server.Close()

	read := func() chan []byte {
		ch := make(chan []byte, 1)
		go func() {
			buf := make([]byte, 16)
			n, err := server.Read(buf)
			if err != nil {
				close(ch)
				return
			}
			ch <- buf[:n]
		}()
		return ch
	}

	// No rules: bytes flow.
	ch := read()
	if _, err := wrapped.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := <-ch; string(got) != "hello" {
		t.Fatalf("passthrough read %q", got)
	}

	// Partitioned: the write "succeeds" but the peer never sees it.
	inj.Partition("send:peer")
	if n, err := wrapped.Write([]byte("lost")); err != nil || n != 4 {
		t.Fatalf("partitioned write = %d, %v", n, err)
	}
	ch = read()
	select {
	case got, ok := <-ch:
		if ok {
			t.Fatalf("partitioned message arrived: %q", got)
		}
	case <-time.After(50 * time.Millisecond):
		// Expected: nothing arrives.
	}

	// Healed: flow resumes (the pending read above is still waiting).
	inj.HealAll()
	if _, err := wrapped.Write([]byte("back")); err != nil {
		t.Fatal(err)
	}
	if got := <-ch; string(got) != "back" {
		t.Fatalf("post-heal read %q", got)
	}
}

// TestConnReset: a reset rule closes the transport and errors the write.
func TestConnReset(t *testing.T) {
	inj := New(1, nil)
	inj.AddRule(Rule{Name: "kill", Match: "send:victim", ResetProb: 1})
	client, server := net.Pipe()
	defer server.Close()
	wrapped := inj.WrapConnAs("", "victim", client)
	if _, err := wrapped.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("reset write err = %v", err)
	}
	// The underlying conn is closed.
	if _, err := client.Write([]byte("y")); err == nil {
		t.Error("underlying conn still open after reset")
	}
}

// TestBreakConns severs live wrapped connections by endpoint match.
func TestBreakConns(t *testing.T) {
	inj := New(1, nil)
	c1, s1 := net.Pipe()
	c2, s2 := net.Pipe()
	defer s1.Close()
	defer s2.Close()
	w1 := inj.WrapConnAs("", "mem://srv-1", c1)
	w2 := inj.WrapConnAs("", "mem://srv-2", c2)
	if n := inj.BreakConns("srv-1"); n != 1 {
		t.Fatalf("broke %d conns, want 1", n)
	}
	if _, err := w1.Write([]byte("x")); err == nil {
		t.Error("broken conn still writable")
	}
	go s2.Read(make([]byte, 1)) // net.Pipe writes rendezvous with a reader
	if _, err := w2.Write([]byte("x")); err != nil {
		t.Errorf("unmatched conn was severed: %v", err)
	}
}

// TestStoreInjection: persist faults fire deterministically and wrap
// ErrInjected; removing the rule restores the inner store.
func TestStoreInjection(t *testing.T) {
	inj := New(99, nil)
	inj.AddRule(Rule{Name: "s3down", Match: "persist:put", ErrProb: 1})
	st := inj.Store(persist.NewMemStore())
	if err := st.Put("k", []byte("v")); !errors.Is(err, ErrInjected) {
		t.Fatalf("put err = %v", err)
	}
	inj.RemoveRule("s3down")
	if err := st.Put("k", []byte("v")); err != nil {
		t.Fatalf("put with injection disabled: %v", err)
	}
	if got, err := st.Get("k"); err != nil || string(got) != "v" {
		t.Fatalf("get = %q, %v", got, err)
	}
}

// TestBandwidthThrottle: a bandwidth rule charges delay proportional to
// the operation's byte count, measured on the virtual clock.
func TestBandwidthThrottle(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	inj := New(5, vc)
	// 1 MB/s: a 256KB write must cost 250ms of injected delay.
	inj.AddRule(Rule{Name: "nic", Match: "send:slow", BandwidthBps: 1 << 20})
	d := inj.decide("send:slow", 256<<10)
	if want := 250 * time.Millisecond; d.Delay != want {
		t.Fatalf("256KB at 1MB/s delayed %v, want %v", d.Delay, want)
	}
	// Zero bytes cost nothing.
	if d := inj.decide("send:slow", 0); d.Delay != 0 {
		t.Fatalf("zero-byte op delayed %v", d.Delay)
	}
}

// TestBrownoutRamp: a RampOver rule scales its delay linearly from zero
// at install time to full strength, on the injector's clock.
func TestBrownoutRamp(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	inj := New(5, vc)
	inj.AddRule(Rule{
		Name: "brownout", Match: "send:fading",
		Latency: 100 * time.Millisecond, RampOver: 10 * time.Second,
	})
	if d := inj.decide("send:fading", 0); d.Delay != 0 {
		t.Fatalf("at install time delay = %v, want 0", d.Delay)
	}
	vc.Advance(5 * time.Second) // halfway through the ramp
	if d := inj.decide("send:fading", 0); d.Delay != 50*time.Millisecond {
		t.Fatalf("at ramp midpoint delay = %v, want 50ms", d.Delay)
	}
	vc.Advance(10 * time.Second) // past the ramp: full strength
	if d := inj.decide("send:fading", 0); d.Delay != 100*time.Millisecond {
		t.Fatalf("past ramp delay = %v, want 100ms", d.Delay)
	}
	// The ramp also scales bandwidth charges.
	inj.AddRule(Rule{
		Name: "bw-brownout", Match: "recv:fading",
		BandwidthBps: 1 << 20, RampOver: 10 * time.Second,
	})
	vc.Advance(5 * time.Second)
	if d := inj.decide("recv:fading", 256<<10); d.Delay != 125*time.Millisecond {
		t.Fatalf("ramped bandwidth delay = %v, want 125ms", d.Delay)
	}
}

// TestPartitionOneWay: a directed partition blackholes only the tagged
// owner's sends toward the target; other owners and the reverse
// direction still flow.
func TestPartitionOneWay(t *testing.T) {
	inj := New(1, nil)
	mkPair := func(owner, endpoint string) (net.Conn, net.Conn) {
		c, s := net.Pipe()
		t.Cleanup(func() { s.Close() })
		return inj.WrapConnAs(owner, endpoint, c), s
	}
	ab, abPeer := mkPair("mem://a", "mem://b") // a → b
	cb, cbPeer := mkPair("mem://c", "mem://b") // c → b
	ba, baPeer := mkPair("mem://b", "mem://a") // b → a

	inj.PartitionOneWay("mem://a", "mem://b")

	read := func(peer net.Conn) chan []byte {
		ch := make(chan []byte, 1)
		go func() {
			buf := make([]byte, 16)
			n, err := peer.Read(buf)
			if err != nil {
				close(ch)
				return
			}
			ch <- buf[:n]
		}()
		return ch
	}

	// a → b is blackholed: write succeeds, nothing arrives.
	ch := read(abPeer)
	if n, err := ab.Write([]byte("lost")); err != nil || n != 4 {
		t.Fatalf("partitioned write = %d, %v", n, err)
	}
	select {
	case got, ok := <-ch:
		if ok {
			t.Fatalf("a→b message crossed the directed partition: %q", got)
		}
	case <-time.After(50 * time.Millisecond):
	}

	// c → b and b → a still flow.
	ch2 := read(cbPeer)
	if _, err := cb.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if got := <-ch2; string(got) != "ok" {
		t.Fatalf("c→b read %q", got)
	}
	ch3 := read(baPeer)
	if _, err := ba.Write([]byte("rev")); err != nil {
		t.Fatal(err)
	}
	if got := <-ch3; string(got) != "rev" {
		t.Fatalf("b→a read %q", got)
	}

	// Healing restores a → b (the pending read above is still waiting).
	inj.HealOneWay("mem://a", "mem://b")
	if _, err := ab.Write([]byte("back")); err != nil {
		t.Fatal(err)
	}
	if got := <-ch; string(got) != "back" {
		t.Fatalf("post-heal a→b read %q", got)
	}
}

// TestBreakConnsRuleVisibility is the regression test for the
// rule-mutation/redial race: a rule added before BreakConns must shape
// the very first operation on the redialed connection. Seeded so the
// drop schedule is reproducible.
func TestBreakConnsRuleVisibility(t *testing.T) {
	inj := New(42, nil)
	c1, s1 := net.Pipe()
	defer s1.Close()
	w1 := inj.WrapConnAs("", "mem://victim", c1)

	// Install the new fault plan FIRST, then break: per the ordering
	// contract, no post-redial op may miss the rule.
	inj.AddRule(Rule{Name: "always-drop", Match: "send:mem://victim", DropProb: 1})
	if n := inj.BreakConns("victim"); n != 1 {
		t.Fatalf("broke %d conns, want 1", n)
	}
	// The underlying transport is severed (checked directly: the drop
	// rule would mask the close by swallowing w1's writes "successfully").
	if _, err := c1.Write([]byte("x")); err == nil {
		t.Fatal("broken conn's transport still writable")
	}
	_ = w1

	// Simulate the pool's redial and verify the rule applies to op #1.
	c2, s2 := net.Pipe()
	defer s2.Close()
	w2 := inj.WrapConnAs("", "mem://victim", c2)
	got := make(chan struct{}, 1)
	go func() {
		buf := make([]byte, 4)
		if n, _ := s2.Read(buf); n > 0 {
			got <- struct{}{}
		}
	}()
	if n, err := w2.Write([]byte("drop")); err != nil || n != 4 {
		t.Fatalf("post-redial write = %d, %v", n, err)
	}
	select {
	case <-got:
		t.Fatal("first op on redialed conn escaped the pre-break rule")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestLatencyOnVirtualClock: injected delays sleep on the supplied
// clock, so a virtual clock makes them free and steerable.
func TestLatencyOnVirtualClock(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	inj := New(5, vc)
	inj.AddRule(Rule{Name: "wan", Match: "persist:get", Latency: time.Hour})
	st := inj.Store(persist.NewMemStore())
	st.Put("k", []byte("v")) // no rule on put: immediate

	done := make(chan error, 1)
	go func() {
		_, err := st.Get("k")
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("get returned before the virtual clock advanced")
	case <-time.After(20 * time.Millisecond):
	}
	// Wait for the Get goroutine to park its timer, then advance.
	for vc.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	vc.Advance(time.Hour)
	if err := <-done; err != nil {
		t.Fatalf("get after advance: %v", err)
	}
}
