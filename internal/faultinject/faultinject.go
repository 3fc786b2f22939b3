// Package faultinject is a deterministic, seed-driven fault layer for
// chaos-testing the live RPC stack and the persistent tier. It wraps
// the transports under internal/wire (both TCP and the in-process
// mem:// pipes speak net.Conn, so one wrapper covers both) and the
// persist.Store interface, injecting:
//
//   - latency and jitter (slept on a clock.Clock, so a virtual clock
//     makes injected delays free and steerable in simulations)
//   - persistent fail-slow degradation: fixed per-endpoint latency,
//     bandwidth throttling (delay proportional to bytes moved), and
//     ramped "brownout" schedules that fade the degradation in over a
//     configured window instead of switching it on at full strength
//   - message drops (a swallowed Write: the peer never sees the frame)
//   - connection resets (the conn is closed mid-operation)
//   - one-way partitions (every send toward a matching endpoint is
//     blackholed until healed; the reverse direction still flows),
//     including asymmetric owner-scoped partitions (PartitionOneWay:
//     A's sends to B vanish while C→B and B→A still flow)
//   - persist-tier errors (Put/Get/Delete/List fail with ErrInjected)
//
// Reproducibility contract: every probabilistic decision is a pure
// function of (seed, rule name, per-rule operation index) — not of
// goroutine interleaving or a shared RNG stream — so a fixed seed
// fixes the entire fault schedule. Schedule exposes that schedule for
// inspection; the chaos suite asserts same-seed runs agree. Brownout
// ramps and bandwidth delays depend additionally on the injector's
// clock and the operation's byte count; under a virtual clock both are
// deterministic too.
//
// Memory-ordering contract (rule visibility vs redial): every rule,
// partition, and connection-registry mutation and every fault decision
// serializes on one injector mutex. A rule added (or removed) before
// BreakConns returns is therefore visible to the first operation of
// any connection dialed afterwards — including the automatic redial a
// connection pool performs when the break fails its pooled session.
// To retire a fault plan atomically with the connections it shaped,
// mutate the rules first, then call BreakConns; the break severs the
// old conns while holding the mutex, so no operation can observe the
// old connection set with the new rule set or vice versa.
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"jiffy/internal/clock"
)

// ErrInjected marks every error produced by the fault layer, so tests
// can distinguish injected faults from organic ones.
var ErrInjected = errors.New("faultinject: injected fault")

// Rule describes one fault source. Match is a substring tested against
// the operation's point label; labels are "send:<addr>" and
// "recv:<addr>" for connection traffic and "persist:put", "persist:get",
// "persist:delete", "persist:list" for the storage tier (so
// Match: "send:" hits all outbound traffic, Match: "persist:" the whole
// storage tier, Match: "mem://jiffy-1-server-0" one endpoint).
type Rule struct {
	// Name identifies the rule; it salts the decision hash, so two
	// rules with identical probabilities fire on different schedules.
	Name string
	// Match is the substring selecting the operations this rule applies to.
	Match string
	// DropProb is the probability a matched send is swallowed whole.
	DropProb float64
	// ResetProb is the probability the connection is closed instead of
	// carrying the message.
	ResetProb float64
	// ErrProb is the probability a matched persist operation fails.
	ErrProb float64
	// Latency is a fixed delay added to every matched operation — the
	// persistent fail-slow primitive.
	Latency time.Duration
	// Jitter adds a deterministic pseudo-uniform [0, Jitter) extra delay.
	Jitter time.Duration
	// BandwidthBps, when positive, throttles matched traffic to this
	// many bytes per second: each operation sleeps for the time its
	// byte count would take at that rate. Models a saturated NIC or a
	// degraded disk rather than pure added latency.
	BandwidthBps int64
	// RampOver, when positive, turns the rule into a brownout: its
	// Latency/Jitter/bandwidth delays scale linearly from zero at
	// install time to full strength once RampOver has elapsed on the
	// injector's clock. Probabilistic outcomes (drop/reset/err) are not
	// ramped — they follow the seeded schedule from the start.
	RampOver time.Duration
}

// Decision is the resolved outcome of one rule application; Schedule
// returns these for reproducibility checks.
type Decision struct {
	Drop  bool
	Reset bool
	Err   bool
	Delay time.Duration
}

// rule pairs the immutable description with its operation counter and
// install time (the brownout ramp origin). The counter is guarded by
// the injector mutex so the (rule, index) sequence is itself a
// serialized schedule.
type rule struct {
	Rule
	hash      uint64
	n         uint64
	installed time.Time
}

// oneWay is a directed owner-scoped partition: sends from owner
// (substring match) toward endpoints matching to are blackholed.
type oneWay struct {
	from string
	to   string
}

// Injector owns the rule set, the partition lists, and the registry of
// live wrapped connections. Safe for concurrent use: all state changes
// and fault decisions serialize on one mutex (see the package-level
// memory-ordering contract).
type Injector struct {
	seed uint64
	clk  clock.Clock

	mu         sync.Mutex
	rules      []*rule
	partitions []string
	oneWays    []oneWay
	conns      map[*Conn]struct{}
}

// New creates an injector; clk drives injected latency (nil = wall
// clock). The same seed with the same rule set reproduces the same
// fault schedule.
func New(seed int64, clk clock.Clock) *Injector {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Injector{
		seed:  uint64(seed),
		clk:   clk,
		conns: make(map[*Conn]struct{}),
	}
}

// AddRule installs a fault rule; its operation counter starts at zero
// and its brownout ramp (if any) starts now. The rule is visible to
// every operation that begins after AddRule returns, including
// operations on connections dialed later (see the memory-ordering
// contract in the package comment).
func (i *Injector) AddRule(r Rule) {
	h := fnv.New64a()
	h.Write([]byte(r.Name))
	now := i.clk.Now()
	i.mu.Lock()
	i.rules = append(i.rules, &rule{Rule: r, hash: h.Sum64(), installed: now})
	i.mu.Unlock()
}

// RemoveRule deletes the named rule. No operation beginning after
// RemoveRule returns observes the rule.
func (i *Injector) RemoveRule(name string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	kept := i.rules[:0]
	for _, r := range i.rules {
		if r.Name != name {
			kept = append(kept, r)
		}
	}
	i.rules = kept
}

// Partition blackholes every send whose label contains match — a
// one-way partition: A→B messages vanish while B→A still flows. The
// senders are not told; their calls time out via the RPC deadline.
func (i *Injector) Partition(match string) {
	i.mu.Lock()
	i.partitions = append(i.partitions, match)
	i.mu.Unlock()
}

// PartitionOneWay blackholes sends from connections owned by from
// toward endpoints matching to — an asymmetric partition: A cannot
// reach B while every other path, including B→A, still flows. Owners
// are the tags given to DialAs/WrapConnAs; a conn dialed without an
// owner tag never matches a non-empty from. An empty from matches
// every owner (degenerating to Partition(to)).
func (i *Injector) PartitionOneWay(from, to string) {
	i.mu.Lock()
	i.oneWays = append(i.oneWays, oneWay{from: from, to: to})
	i.mu.Unlock()
}

// HealOneWay removes a directed partition previously installed with
// PartitionOneWay.
func (i *Injector) HealOneWay(from, to string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	kept := i.oneWays[:0]
	for _, p := range i.oneWays {
		if p.from != from || p.to != to {
			kept = append(kept, p)
		}
	}
	i.oneWays = kept
}

// HealAll removes every partition, symmetric and directed.
func (i *Injector) HealAll() {
	i.mu.Lock()
	i.partitions = nil
	i.oneWays = nil
	i.mu.Unlock()
}

// BreakConns force-closes every live wrapped connection whose endpoint
// contains match, and returns how many it severed — a crash/disconnect
// primitive: in-flight calls over those sessions fail fast with a
// session error. The victims are unregistered and their transports
// closed while the injector mutex is held, so the break is atomic with
// respect to rule evaluation: an operation either ran on the old conn
// under the pre-break rule set, or runs on a post-break redial seeing
// every rule mutation made before BreakConns was called.
func (i *Injector) BreakConns(match string) int {
	i.mu.Lock()
	var victims []*Conn
	for c := range i.conns {
		if match == "" || strings.Contains(c.endpoint, match) {
			victims = append(victims, c)
			delete(i.conns, c)
		}
	}
	for _, c := range victims {
		// Close the transport directly: victims are already
		// unregistered, and Conn.Close would re-take the mutex.
		c.Conn.Close()
	}
	i.mu.Unlock()
	return len(victims)
}

// blocked reports whether a send from owner toward label is currently
// partitioned (symmetric or directed).
func (i *Injector) blocked(label, owner string) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, p := range i.partitions {
		if strings.Contains(label, p) {
			return true
		}
	}
	for _, p := range i.oneWays {
		if strings.Contains(label, p.to) && (p.from == "" || strings.Contains(owner, p.from)) {
			return true
		}
	}
	return false
}

// decide resolves the combined outcome of every rule matching label for
// an operation moving n bytes, consuming one schedule slot per matching
// rule. Delays add; any matched drop/reset/err applies. Latency/jitter
// and bandwidth delays are scaled by each rule's brownout ramp factor.
func (i *Injector) decide(label string, n int) Decision {
	i.mu.Lock()
	var d Decision
	var now time.Time
	haveNow := false
	for _, r := range i.rules {
		if !strings.Contains(label, r.Match) {
			continue
		}
		k := r.n
		r.n++
		step := decisionAt(i.seed, r, k)
		d.Drop = d.Drop || step.Drop
		d.Reset = d.Reset || step.Reset
		d.Err = d.Err || step.Err
		delay := step.Delay
		if r.BandwidthBps > 0 && n > 0 {
			delay += time.Duration(int64(n) * int64(time.Second) / r.BandwidthBps)
		}
		if r.RampOver > 0 && delay > 0 {
			if !haveNow {
				now = i.clk.Now()
				haveNow = true
			}
			elapsed := now.Sub(r.installed)
			if elapsed <= 0 {
				delay = 0
			} else if elapsed < r.RampOver {
				delay = time.Duration(float64(delay) * (float64(elapsed) / float64(r.RampOver)))
			}
		}
		d.Delay += delay
	}
	i.mu.Unlock()
	return d
}

// Schedule returns the decisions the named rule will make for its
// operation indices [0, n), without consuming the counter — the
// reproducibility contract made inspectable. Delays are the rule's
// full-strength values: brownout ramping and bandwidth charges apply
// on top at decide time.
func (i *Injector) Schedule(name string, n int) []Decision {
	i.mu.Lock()
	var target *rule
	for _, r := range i.rules {
		if r.Name == name {
			target = r
			break
		}
	}
	i.mu.Unlock()
	if target == nil {
		return nil
	}
	out := make([]Decision, n)
	for k := 0; k < n; k++ {
		out[k] = decisionAt(i.seed, target, uint64(k))
	}
	return out
}

// decisionAt computes rule r's decision for its k-th operation. Each
// probabilistic draw hashes (seed, rule, k, salt) through SplitMix64 —
// no shared RNG stream, so concurrency cannot reorder the schedule.
func decisionAt(seed uint64, r *rule, k uint64) Decision {
	var d Decision
	d.Drop = r.DropProb > 0 && unit(seed, r.hash, k, 1) < r.DropProb
	d.Reset = r.ResetProb > 0 && unit(seed, r.hash, k, 2) < r.ResetProb
	d.Err = r.ErrProb > 0 && unit(seed, r.hash, k, 3) < r.ErrProb
	d.Delay = r.Latency
	if r.Jitter > 0 {
		d.Delay += time.Duration(unit(seed, r.hash, k, 4) * float64(r.Jitter))
	}
	return d
}

// unit maps (seed, rule, op index, salt) to a uniform float in [0, 1).
func unit(seed, ruleHash, k, salt uint64) float64 {
	h := splitmix64(seed ^ ruleHash ^ splitmix64(k*8+salt))
	return float64(h>>11) / float64(1<<53)
}

// splitmix64 is the SplitMix64 finalizer: a high-quality 64-bit mixer
// whose output is a pure function of its input.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sleep applies an injected delay on the injector's clock.
func (i *Injector) sleep(d time.Duration) {
	if d > 0 {
		i.clk.Sleep(d)
	}
}

// injectedErr builds a typed injected-fault error.
func injectedErr(what, where string) error {
	return fmt.Errorf("faultinject: %s %s: %w", what, where, ErrInjected)
}
