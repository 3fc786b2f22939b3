// Package qos implements server-side multi-tenant admission control:
// per-tenant token buckets enforcing the rate dimensions of core.Quota
// (ops/sec, bytes/sec) plus deficit-round-robin (DRR) scheduling of a
// bounded server concurrency across tenants. The hierarchy (§3 of the
// paper) promises per-tenant isolation; this package is the mechanism
// that makes one tenant's burst unable to starve the others on the
// data-plane hot path.
//
// Admission is two-staged. First the tenant's own token buckets are
// charged: a tenant over its registered rate is refused immediately
// with a *core.ThrottleError carrying a retry-after estimate. Second,
// when the gate is configured with a concurrency bound and all slots
// are busy, the op parks in its tenant's FIFO queue; queues are served
// in DRR order (each round a tenant's deficit grows by quantum ×
// weight and ops are granted while the deficit covers their cost), so
// a backlogged tenant cannot monopolize the server. An op that waits
// longer than the configured bound is refused — with its bucket charge
// refunded — rather than silently parked forever.
//
// Refills are computed against an injected clock so deterministic
// virtual-clock soaks exercise the same code as production; queue
// waits are bounded in wall time, because nothing advances a virtual
// clock while workers block.
//
// A gate with no registered quotas and no concurrency bound is
// inactive and its Admit path is a single atomic load — existing
// single-tenant deployments pay nothing.
package qos

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"jiffy/internal/clock"
	"jiffy/internal/core"
)

// costUnit is the byte span that costs one DRR unit on top of the
// per-op unit, so large transfers consume proportionally more of a
// tenant's turn.
const costUnit = 4096

// quantum is the base deficit added per DRR round for weight 1.
const quantum = 16

// Options configures a Gate.
type Options struct {
	// Clock drives token-bucket refill (defaults to the wall clock).
	Clock clock.Clock
	// Concurrency bounds simultaneously admitted ops; 0 disables
	// capacity scheduling (buckets only).
	Concurrency int
	// MaxWait bounds the queue wait before an op is throttled; 0 means
	// core.DefaultQoSMaxWait.
	MaxWait time.Duration
}

// Gate is one memory server's admission controller.
type Gate struct {
	clk     clock.Clock
	cap     int
	maxWait time.Duration

	// active is false until a quota is registered (or a concurrency
	// bound is configured); the inactive fast path is one atomic load.
	active atomic.Bool

	mu       sync.Mutex
	tenants  map[string]*tenantState
	ring     []*tenantState // tenants with queued waiters, DRR order
	ringIdx  int
	inflight int
}

// tenantState is the per-tenant admission state.
type tenantState struct {
	name    string
	quota   core.Quota
	hasQ    bool
	ops     bucket
	bytes   bucket
	deficit int64
	waiters []*waiter
	inRing  bool

	// Stats, guarded by the gate mutex.
	admitted      int64
	throttled     int64
	admittedBytes int64
}

type waiter struct {
	cost    int64
	ops     int64
	bytes   int64
	granted chan struct{}
	done    bool // granted or canceled; guarded by the gate mutex
}

// bucket is a token bucket refilled against the gate clock. rate <= 0
// means unlimited.
type bucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func (b *bucket) refill(now time.Time) {
	if b.rate <= 0 {
		return
	}
	if b.last.IsZero() {
		b.tokens = b.burst
		b.last = now
		return
	}
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens += b.rate * dt.Seconds()
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// wait estimates how long until n tokens accumulate.
func (b *bucket) wait(n float64) time.Duration {
	if b.rate <= 0 || b.tokens >= n {
		return 0
	}
	return time.Duration((n - b.tokens) / b.rate * float64(time.Second))
}

// NewGate builds a gate. A zero Options gate is inactive until the
// first SetQuota.
func NewGate(opts Options) *Gate {
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.MaxWait <= 0 {
		opts.MaxWait = core.DefaultQoSMaxWait
	}
	g := &Gate{
		clk:     opts.Clock,
		cap:     opts.Concurrency,
		maxWait: opts.MaxWait,
		tenants: make(map[string]*tenantState),
	}
	if g.cap > 0 {
		g.active.Store(true)
	}
	return g
}

// SetQuota installs (or replaces) a tenant's quota. A zero quota
// removes rate enforcement for a tenant the gate holds state for but
// keeps its stats, and creates nothing for one it holds no state for,
// so a job that never had a quota leaves no trace when it goes. The
// gate deactivates again when no quota remains and no concurrency
// bound is configured, restoring the single-atomic-load fast path.
func (g *Gate) SetQuota(tenant string, q core.Quota) {
	g.mu.Lock()
	if _, ok := g.tenants[tenant]; !ok && q.IsZero() {
		g.mu.Unlock()
		return
	}
	ts := g.tenantLocked(tenant)
	ts.quota = q
	ts.hasQ = !q.IsZero()
	ts.ops = bucket{rate: q.OpsPerSec, burst: burstFor(q.OpsPerSec, 1)}
	ts.bytes = bucket{rate: q.BytesPerSec, burst: burstFor(q.BytesPerSec, costUnit)}
	active := g.cap > 0
	if !active {
		for _, t := range g.tenants {
			if t.hasQ {
				active = true
				break
			}
		}
	}
	g.active.Store(active)
	g.mu.Unlock()
}

// burstFor sizes a bucket at one second of rate, floored at min so a
// single op always fits.
func burstFor(rate, min float64) float64 {
	if rate <= 0 {
		return 0
	}
	if rate < min {
		return min
	}
	return rate
}

// Quota returns the tenant's registered quota (zero when none).
func (g *Gate) Quota(tenant string) core.Quota {
	g.mu.Lock()
	defer g.mu.Unlock()
	if ts, ok := g.tenants[tenant]; ok {
		return ts.quota
	}
	return core.Quota{}
}

func (g *Gate) tenantLocked(name string) *tenantState {
	ts, ok := g.tenants[name]
	if !ok {
		ts = &tenantState{name: name}
		g.tenants[name] = ts
	}
	return ts
}

// Admit charges admission for ops operations totalling bytes ingress
// bytes on behalf of tenant. On success it returns a release func the
// caller MUST call once the work completes (it frees the concurrency
// slot and dispatches queued waiters). On refusal it returns a
// *core.ThrottleError. ctx cancellation while queued returns ctx.Err.
func (g *Gate) Admit(ctx context.Context, tenant string, ops, bytes int64) (func(), error) {
	if !g.active.Load() {
		return nil, nil
	}
	if ops <= 0 {
		ops = 1
	}

	g.mu.Lock()
	ts := g.tenantLocked(tenant)
	now := g.clk.Now()
	if ts.hasQ {
		ts.ops.refill(now)
		ts.bytes.refill(now)
		opsNeed, bytesNeed := float64(ops), float64(bytes)
		if (ts.ops.rate > 0 && ts.ops.tokens < opsNeed) ||
			(ts.bytes.rate > 0 && ts.bytes.tokens < bytesNeed) {
			ts.throttled += ops
			ra := ts.ops.wait(opsNeed)
			if bw := ts.bytes.wait(bytesNeed); bw > ra {
				ra = bw
			}
			g.mu.Unlock()
			return nil, &core.ThrottleError{Tenant: tenant, RetryAfter: ra}
		}
		if ts.ops.rate > 0 {
			ts.ops.tokens -= opsNeed
		}
		if ts.bytes.rate > 0 {
			ts.bytes.tokens -= bytesNeed
		}
	}

	if g.cap <= 0 {
		ts.admitted += ops
		ts.admittedBytes += bytes
		g.mu.Unlock()
		return func() {}, nil
	}

	cost := ops + bytes/costUnit
	if g.inflight < g.cap && len(g.ring) == 0 {
		g.inflight++
		ts.admitted += ops
		ts.admittedBytes += bytes
		g.mu.Unlock()
		return g.releaseFunc(), nil
	}

	// Saturated: park in the tenant's FIFO queue and wait for a DRR
	// grant, a wall-clock timeout, or caller cancellation.
	w := &waiter{cost: cost, ops: ops, bytes: bytes, granted: make(chan struct{})}
	ts.waiters = append(ts.waiters, w)
	if !ts.inRing {
		ts.inRing = true
		g.ring = append(g.ring, ts)
	}
	g.mu.Unlock()

	timer := time.NewTimer(g.maxWait)
	defer timer.Stop()
	select {
	case <-w.granted:
		return g.releaseFunc(), nil
	case <-timer.C:
	case <-ctx.Done():
	}

	g.mu.Lock()
	if w.done {
		// The grant raced the timeout/cancel and won: the slot is ours.
		g.mu.Unlock()
		return g.releaseFunc(), nil
	}
	w.done = true // dispatch will skip and drop this waiter
	// Refund the bucket charge: the op never ran.
	if ts.hasQ {
		if ts.ops.rate > 0 {
			ts.ops.tokens += float64(ops)
			if ts.ops.tokens > ts.ops.burst {
				ts.ops.tokens = ts.ops.burst
			}
		}
		if ts.bytes.rate > 0 {
			ts.bytes.tokens += float64(bytes)
			if ts.bytes.tokens > ts.bytes.burst {
				ts.bytes.tokens = ts.bytes.burst
			}
		}
	}
	ts.throttled += ops
	g.mu.Unlock()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return nil, &core.ThrottleError{Tenant: tenant, RetryAfter: g.maxWait}
}

// releaseFunc frees one concurrency slot exactly once and hands it to
// the next DRR grantee.
func (g *Gate) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.inflight--
			g.dispatchLocked()
			g.mu.Unlock()
		})
	}
}

// dispatchLocked grants queued waiters while capacity is free, in DRR
// order: each tenant visit tops its deficit up by quantum × weight and
// grants from its FIFO while the deficit covers the head's cost.
func (g *Gate) dispatchLocked() {
	for g.inflight < g.cap && len(g.ring) > 0 {
		if g.ringIdx >= len(g.ring) {
			g.ringIdx = 0
		}
		ts := g.ring[g.ringIdx]
		ts.deficit += int64(quantum * weightOf(ts.quota))
		for len(ts.waiters) > 0 && g.inflight < g.cap {
			w := ts.waiters[0]
			if w.done { // timed out or canceled; drop
				ts.waiters = ts.waiters[1:]
				continue
			}
			if w.cost > ts.deficit && ts.deficit < maxDeficit(ts) {
				break
			}
			// An op costlier than the deficit cap is granted once the
			// cap is reached (at zeroed deficit) instead of spinning.
			ts.waiters = ts.waiters[1:]
			ts.deficit -= w.cost
			if ts.deficit < 0 {
				ts.deficit = 0
			}
			w.done = true
			g.inflight++
			ts.admitted += w.ops
			ts.admittedBytes += w.bytes
			close(w.granted)
		}
		if len(ts.waiters) == 0 {
			// Empty queue leaves the ring and forfeits its deficit.
			ts.deficit = 0
			ts.inRing = false
			g.ring = append(g.ring[:g.ringIdx], g.ring[g.ringIdx+1:]...)
			continue
		}
		if g.inflight >= g.cap {
			return
		}
		g.ringIdx++
	}
}

// maxDeficit bounds accumulated deficit at several rounds' worth so an
// idle tenant cannot bank an unbounded burst allowance.
func maxDeficit(ts *tenantState) int64 {
	return int64(8 * quantum * weightOf(ts.quota))
}

func weightOf(q core.Quota) int {
	if q.Weight <= 0 {
		return 1
	}
	return q.Weight
}

// TenantStats is a snapshot of one tenant's admission counters.
type TenantStats struct {
	Tenant        string
	Admitted      int64
	Throttled     int64
	AdmittedBytes int64
	HasQuota      bool
}

// Stats snapshots every tenant the gate has seen, in map order.
func (g *Gate) Stats() []TenantStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]TenantStats, 0, len(g.tenants))
	for _, ts := range g.tenants {
		out = append(out, TenantStats{
			Tenant:        ts.name,
			Admitted:      ts.admitted,
			Throttled:     ts.throttled,
			AdmittedBytes: ts.admittedBytes,
			HasQuota:      ts.hasQ,
		})
	}
	return out
}

// Active reports whether admission control is engaged.
func (g *Gate) Active() bool { return g.active.Load() }
