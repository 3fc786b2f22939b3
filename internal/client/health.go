package client

import (
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Per-server health tracking: every data-plane call feeds an EWMA and a
// windowed latency quantile for the server it hit, and (when a breaker
// policy is installed) a three-state circuit breaker. The record path
// runs on the small-op hot path, so it is allocation-free and lock-free
// past the first call per server: all mutable state lives in atomics,
// and the tracker map is read under an RWMutex read lock.

// healthWindow is the per-server latency sample ring size; the windowed
// p95 is computed over it.
const healthWindow = 128

// p95Every is how many samples pass between quantile recomputations;
// between recomputes the cached value serves hedging decisions.
const p95Every = 16

// Breaker states.
const (
	breakerClosed   int32 = iota // healthy: all traffic flows
	breakerOpen                  // tripped: fail fast until the cooldown expires
	breakerHalfOpen              // cooldown over: one probe in flight decides
)

// BreakerPolicy configures the per-server circuit breaker installed
// with WithBreaker. The breaker trips open after Failures consecutive
// connection-level failures (or successes over LatencyCeiling), fails
// calls fast with a typed *core.DegradedError while open, and after
// Cooldown admits a single half-open probe whose outcome closes or
// re-opens it.
type BreakerPolicy struct {
	// Failures is the consecutive-strike count that opens the breaker
	// (default 5). A strike is a connection-level failure (died or timed
	// out) or, when LatencyCeiling is set, a success slower than it.
	Failures int
	// LatencyCeiling, when positive, makes any call slower than it count
	// as a strike even if it succeeds — the fail-slow trigger. Zero
	// means only connection failures strike.
	LatencyCeiling time.Duration
	// Cooldown is how long an open breaker fails fast before admitting a
	// half-open probe (default 200ms). It doubles as the RetryAfter hint
	// on the typed error.
	Cooldown time.Duration
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Failures <= 0 {
		p.Failures = 5
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 200 * time.Millisecond
	}
	return p
}

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
	// p95 caches the windowed 95th percentile (nanoseconds), recomputed
	// every p95Every samples.
	p95 atomic.Int64
	// Breaker state machine.
	state    atomic.Int32
	strikes  atomic.Int32
	openedAt atomic.Int64 // wall ns when the breaker last opened
	probe    atomic.Int32 // 1 while a half-open probe is in flight
	// probation mirrors the controller's judgment (via OpenResp): the
	// server is alive but degraded, so hedge-target ranking skips it.
	probation atomic.Bool
}

// healthTracker owns per-server health state for one Client.
type healthTracker struct {
	policy  BreakerPolicy
	breakOn bool

	mu sync.RWMutex
	m  map[string]*serverHealth
}

func newHealthTracker(policy BreakerPolicy, breakOn bool) *healthTracker {
	return &healthTracker{
		policy:  policy.withDefaults(),
		breakOn: breakOn,
		m:       make(map[string]*serverHealth),
	}
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

// record feeds one call's outcome into addr's health. failure means the
// session died or the call timed out (caller-context expiry excluded);
// operation-level errors are successes here — the server answered.
func (t *healthTracker) record(addr string, d time.Duration, failure bool) {
	sh := t.get(addr)
	if failure {
		t.strike(sh)
		return
	}
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
	if n%p95Every == 0 {
		sh.recomputeP95(n)
	}
	if !t.breakOn {
		return
	}
	if c := t.policy.LatencyCeiling; c > 0 && d > c {
		// A slow success is gray-failure evidence: strike.
		t.strike(sh)
		return
	}
	sh.strikes.Store(0)
	if sh.state.Load() == breakerHalfOpen {
		// The probe came back healthy: close.
		sh.state.Store(breakerClosed)
		sh.probe.Store(0)
	}
}

// recomputeP95 refreshes the cached windowed quantile. Runs once per
// p95Every samples; the sort works on a stack copy of the ring.
func (sh *serverHealth) recomputeP95(n uint64) {
	var buf [healthWindow]int64
	m := int(min(n, healthWindow))
	for i := 0; i < m; i++ {
		buf[i] = sh.samples[i].Load()
	}
	slices.Sort(buf[:m])
	sh.p95.Store(buf[m*95/100])
}

// strike records one failure (or over-ceiling success) toward opening
// addr's breaker. In half-open, any strike re-opens immediately.
func (t *healthTracker) strike(sh *serverHealth) {
	if !t.breakOn {
		return
	}
	if sh.state.Load() == breakerHalfOpen {
		sh.openedAt.Store(time.Now().UnixNano())
		sh.state.Store(breakerOpen)
		sh.probe.Store(0)
		return
	}
	if sh.strikes.Add(1) >= int32(t.policy.Failures) &&
		sh.state.CompareAndSwap(breakerClosed, breakerOpen) {
		sh.openedAt.Store(time.Now().UnixNano())
	}
}

// allow gates one call toward addr through its breaker. Not-ok means
// the breaker is open: the caller should fail fast with a typed
// degraded error carrying the returned retry-after hint. In half-open,
// exactly one caller is admitted as the probe; the rest fail fast.
func (t *healthTracker) allow(addr string) (time.Duration, bool) {
	if !t.breakOn {
		return 0, true
	}
	sh := t.get(addr)
	for {
		switch sh.state.Load() {
		case breakerClosed:
			return 0, true
		case breakerOpen:
			remain := sh.openedAt.Load() + int64(t.policy.Cooldown) - time.Now().UnixNano()
			if remain > 0 {
				return time.Duration(remain), false
			}
			if sh.state.CompareAndSwap(breakerOpen, breakerHalfOpen) {
				sh.probe.Store(1)
				return 0, true // this caller is the probe
			}
			// Lost the transition race: re-evaluate the new state.
		case breakerHalfOpen:
			if sh.probe.CompareAndSwap(0, 1) {
				return 0, true
			}
			return t.policy.Cooldown, false
		}
	}
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
// unknown is fine, but not probated and not behind an open breaker.
func (t *healthTracker) usable(addr string) bool {
	sh := t.peek(addr)
	if sh == nil {
		return true
	}
	if sh.probation.Load() {
		return false
	}
	return !t.breakOn || sh.state.Load() == breakerClosed
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
	p95 := time.Duration(sh.p95.Load())
	if p95 <= 0 {
		return 0, false
	}
	return max(hedgeMultiplier*p95, hedgeMinDelay), true
}

// ServerHealthInfo is one server's health snapshot, exposed for
// operator tooling and tests.
type ServerHealthInfo struct {
	Server    string
	State     string // "closed", "open", "half-open"
	Strikes   int
	Samples   uint64
	EWMA      time.Duration
	P95       time.Duration
	Probation bool
}

// breakerStateName renders a breaker state for humans and metrics
// labels.
func breakerStateName(s int32) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// snapshot returns the tracked servers' health, sorted by address.
func (t *healthTracker) snapshot() []ServerHealthInfo {
	t.mu.RLock()
	out := make([]ServerHealthInfo, 0, len(t.m))
	for addr, sh := range t.m {
		out = append(out, ServerHealthInfo{
			Server:    addr,
			State:     breakerStateName(sh.state.Load()),
			Strikes:   int(sh.strikes.Load()),
			Samples:   sh.count.Load(),
			EWMA:      time.Duration(math.Float64frombits(sh.ewma.Load())),
			P95:       time.Duration(sh.p95.Load()),
			Probation: sh.probation.Load(),
		})
	}
	t.mu.RUnlock()
	slices.SortFunc(out, func(a, b ServerHealthInfo) int {
		return strings.Compare(a.Server, b.Server)
	})
	return out
}
