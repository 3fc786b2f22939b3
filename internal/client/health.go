package client

import (
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Per-server health tracking: every answered data-plane call feeds an
// EWMA and a windowed latency quantile for the server it hit. The
// record path runs on the small-op hot path, so it is allocation-free
// and lock-free past the first call per server: all mutable state lives
// in atomics, and the tracker map is read under an RWMutex read lock.

// healthWindow is the per-server latency sample ring size; the windowed
// p95 is computed over it.
const healthWindow = 128

// p95Every is how many new samples a recomputation of the quantile
// waits for; until then the cached value serves hedging decisions and
// snapshots.
const p95Every = 16

// Hedged-read constants (WithHedgedReads): the values with which the
// tail gate (jiffy-regress -tail) and
// TestChaosGrayFailureHedgedTailLatency hold the hedged p99 to 3× the
// healthy baseline.
const (
	// hedgeMultiplier scales the primary server's windowed p95 into the
	// hedge delay: the backup fires only when the primary is already
	// slower than hedgeMultiplier× its own tail.
	hedgeMultiplier = 3
	// hedgeMinDelay floors the hedge delay, so a very fast server's
	// noise cannot fire hedges on every call.
	hedgeMinDelay = 500 * time.Microsecond
	// hedgeMinSamples is how many latency samples a server needs before
	// its quantile is trusted to set a hedge delay.
	hedgeMinSamples = 8
)

// serverHealth is one server's tracked state. All fields are atomics:
// the record path takes no locks and allocates nothing.
type serverHealth struct {
	// ewma holds the exponentially weighted moving average of observed
	// call latency, in float64 bits (nanoseconds), alpha 1/8.
	ewma atomic.Uint64
	// samples is the latency ring (nanoseconds) behind the windowed
	// quantile; count is the total samples ever recorded.
	samples [healthWindow]atomic.Int64
	count   atomic.Uint64
	// p95 caches the windowed 95th percentile (nanoseconds), computed
	// when a hedge delay or a snapshot reads it, at most once per
	// p95Every samples; p95At is the count it was computed at.
	p95   atomic.Int64
	p95At atomic.Uint64
	// probation mirrors the controller's judgment (via OpenResp): the
	// server is alive but degraded, so hedge-target ranking skips it.
	probation atomic.Bool
}

// healthTracker owns per-server health state for one Client.
type healthTracker struct {
	mu sync.RWMutex
	m  map[string]*serverHealth
}

func newHealthTracker() *healthTracker {
	return &healthTracker{m: make(map[string]*serverHealth)}
}

// get returns addr's state, creating it on first contact. The fast path
// is one map read under an RLock.
func (t *healthTracker) get(addr string) *serverHealth {
	t.mu.RLock()
	sh := t.m[addr]
	t.mu.RUnlock()
	if sh != nil {
		return sh
	}
	t.mu.Lock()
	sh = t.m[addr]
	if sh == nil {
		sh = &serverHealth{}
		t.m[addr] = sh
	}
	t.mu.Unlock()
	return sh
}

// peek returns addr's state without creating it.
func (t *healthTracker) peek(addr string) *serverHealth {
	t.mu.RLock()
	sh := t.m[addr]
	t.mu.RUnlock()
	return sh
}

// record feeds one answered call's latency into addr's health.
// Operation-level errors count: the server answered.
func (t *healthTracker) record(addr string, d time.Duration) {
	sh := t.get(addr)
	n := sh.count.Add(1)
	sh.samples[(n-1)%healthWindow].Store(int64(d))
	for {
		old := sh.ewma.Load()
		var next float64
		if n == 1 {
			next = float64(d)
		} else {
			prev := math.Float64frombits(old)
			next = prev + (float64(d)-prev)/8
		}
		if sh.ewma.CompareAndSwap(old, math.Float64bits(next)) {
			break
		}
	}
}

// windowP95 returns the windowed quantile, recomputed first when
// p95Every samples have arrived since it last was: only hedged reads
// and snapshots read it, so the record path never sorts. One reader
// claims each recomputation; the others serve the cached value. The
// sort works on a stack copy of the ring.
func (sh *serverHealth) windowP95() time.Duration {
	n, at := sh.count.Load(), sh.p95At.Load()
	if n-at >= p95Every && sh.p95At.CompareAndSwap(at, n) {
		sh.recomputeP95(n)
	}
	return time.Duration(sh.p95.Load())
}

// recomputeP95 refreshes the cached quantile over the ring as it holds
// n samples.
func (sh *serverHealth) recomputeP95(n uint64) {
	var buf [healthWindow]int64
	m := int(min(n, healthWindow))
	for i := 0; i < m; i++ {
		buf[i] = sh.samples[i].Load()
	}
	slices.Sort(buf[:m])
	sh.p95.Store(buf[m*95/100])
}

// setProbation replaces the probation set with the controller's latest
// judgment (shipped on partition-map opens/refreshes).
func (t *healthTracker) setProbation(addrs []string) {
	t.mu.Lock()
	for addr, sh := range t.m {
		sh.probation.Store(slices.Contains(addrs, addr))
	}
	for _, addr := range addrs {
		if _, ok := t.m[addr]; !ok {
			sh := &serverHealth{}
			sh.probation.Store(true)
			t.m[addr] = sh
		}
	}
	t.mu.Unlock()
}

// usable reports whether addr is a sensible hedge target: known or
// unknown is fine, but not probated.
func (t *healthTracker) usable(addr string) bool {
	sh := t.peek(addr)
	return sh == nil || !sh.probation.Load()
}

// ewmaOf returns addr's smoothed latency for ranking, +Inf when the
// server is unknown (prefer servers with evidence).
func (t *healthTracker) ewmaOf(addr string) float64 {
	sh := t.peek(addr)
	if sh == nil || sh.count.Load() == 0 {
		return math.Inf(1)
	}
	return math.Float64frombits(sh.ewma.Load())
}

// hedgeDelay returns when a backup read against another chain member
// should fire for a primary at addr: hedgeMultiplier× its windowed
// p95, floored at hedgeMinDelay. False while the primary lacks the
// samples for its quantile to mean anything.
func (t *healthTracker) hedgeDelay(addr string) (time.Duration, bool) {
	sh := t.peek(addr)
	if sh == nil || sh.count.Load() < hedgeMinSamples {
		return 0, false
	}
	p95 := sh.windowP95()
	if p95 <= 0 {
		return 0, false
	}
	return max(hedgeMultiplier*p95, hedgeMinDelay), true
}

// ServerHealthInfo is one server's health snapshot, exposed for
// operator tooling and tests.
type ServerHealthInfo struct {
	Server    string
	Samples   uint64
	EWMA      time.Duration
	P95       time.Duration
	Probation bool
}

// snapshot returns the tracked servers' health, sorted by address.
func (t *healthTracker) snapshot() []ServerHealthInfo {
	t.mu.RLock()
	out := make([]ServerHealthInfo, 0, len(t.m))
	for addr, sh := range t.m {
		out = append(out, ServerHealthInfo{
			Server:    addr,
			Samples:   sh.count.Load(),
			EWMA:      time.Duration(math.Float64frombits(sh.ewma.Load())),
			P95:       sh.windowP95(),
			Probation: sh.probation.Load(),
		})
	}
	t.mu.RUnlock()
	slices.SortFunc(out, func(a, b ServerHealthInfo) int {
		return strings.Compare(a.Server, b.Server)
	})
	return out
}
