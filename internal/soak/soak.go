// Package soak is the trace-driven multi-tenant soak harness: it
// replays the synthetic Snowflake-shaped workload (internal/trace) as
// many concurrent tenants in gold/silver/bronze QoS tiers against a
// real multi-server cluster, layers seeded wire faults plus a
// mid-soak server kill/repair and a live drain on top, and grades the
// run against per-tier SLOs (throughput, p99 latency), cross-tenant
// fairness (Jain's index), typed-throttle accounting, and zero
// acknowledged-write loss.
//
// Two modes share all of this code:
//
//   - short mode (CI): a seeded, virtual-clock run — token-bucket
//     refill and failure detection advance on the virtual clock, so
//     the admission schedule is deterministic and the whole soak
//     finishes in seconds under -race;
//   - wall mode (cmd/jiffy-soak -wall): the same engine against the
//     real clock with thousands of tenants, for hours-long burn-in.
package soak

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jiffy"
	"jiffy/internal/blockstore"
	"jiffy/internal/client"
	"jiffy/internal/clock"
	"jiffy/internal/core"
	"jiffy/internal/faultinject"
	"jiffy/internal/proto"
	"jiffy/internal/trace"
)

// SLO is one tier's service-level objectives, asserted per tier over
// the well-behaved tenants (declared bursters are graded separately).
type SLO struct {
	// MinThroughput is the minimum achieved/entitled ops ratio, where a
	// tenant's entitlement each tick is its offered load capped by its
	// rate quota.
	MinThroughput float64
	// MaxP99 bounds the wall-clock p99 latency of successful ops.
	MaxP99 time.Duration
	// MinFairness bounds Jain's fairness index over the tenants'
	// satisfaction ratios.
	MinFairness float64
}

// TierSpec describes one QoS tier of tenants.
type TierSpec struct {
	Name    string
	Tenants int
	// Quota is registered per tenant with the controller (ops/sec and
	// bytes/sec reach the servers' admission gates; Weight sets the DRR
	// share).
	Quota core.Quota
	// BaseOpsPerTick is the tier's per-tenant offered load at trace
	// scale 1; the tenant's trace modulates it tick by tick.
	BaseOpsPerTick int
	// ValueBytes sizes each written value.
	ValueBytes int
	// BurstTenants marks the first N tenants of the tier as bursters,
	// offering BurstFactor× their trace-driven load — deliberately far
	// past quota to prove isolation.
	BurstTenants int
	BurstFactor  int
	SLO          SLO
}

// Config parameterizes a soak run.
type Config struct {
	Seed         int64
	Ticks        int
	TickDuration time.Duration
	Tiers        []TierSpec

	Servers         int
	Controllers     int
	BlocksPerServer int
	ChainLength     int
	// QoSConcurrency is each server's admitted-op concurrency bound
	// (engages the DRR scheduler); 0 leaves capacity scheduling off.
	QoSConcurrency int
	// Workers is the client-side op executor pool size.
	Workers int

	// KillAtTick kills one memory server at the start of that tick and
	// runs one deterministic detect-and-repair round at its end
	// (<= 0 disables).
	KillAtTick int
	// DrainAtTick starts a live DrainServer of a second server at that
	// tick, concurrent with the offered load (<= 0 disables).
	DrainAtTick int
	// CtrlKillAtTick kills the lead controller at the start of that
	// tick and promotes the first standby before the tick's load is
	// offered. Unlike the server kill there is NO tolerance window: the
	// handoff must be invisible — every op during and after it either
	// succeeds within the normal retry budget or counts as an
	// unexpected error. Requires Controllers >= 2 (<= 0 disables).
	CtrlKillAtTick int

	// SlowServerAtTick turns one memory server gray at the start of that
	// tick: the injector delays every byte toward it while the harness
	// files a Degraded failure report, which the controller verifies by
	// probe and answers with probation — not death. Gray failure opens
	// NO fault window: every op through the slow window must still
	// succeed, and the membership epoch must not move — alive-but-slow
	// never splices chains. At SlowHealAtTick the rule is removed and
	// recovery probes must lift the probation.
	// (<= 0 disables; requires SlowHealAtTick > SlowServerAtTick.)
	SlowServerAtTick int
	SlowHealAtTick   int

	// IdleTenants provisions a scale-to-zero cohort: tenants whose
	// dataset is written before the first tick and then never touched
	// during the load loop. With TierIdleAfter set, their blocks must
	// demote to the persist tier mid-run — the cohort's resident bytes
	// reach exactly zero — and rehydrate transparently when the harness
	// re-reads the cohort after the last tick, with zero client-visible
	// errors (<= 0 disables the cohort).
	IdleTenants int
	// TierIdleAfter enables idle-driven demotion on the cluster when
	// IdleTenants > 0. Demotion scans are driven by the harness once
	// per tick (TierScanPeriod stays 0), so the schedule is
	// deterministic under the virtual clock.
	TierIdleAfter time.Duration
	// IdleCheckAtTick is when the harness asserts the idle cohort's
	// resident bytes have reached zero (<= 0 disables the mid-run
	// check).
	IdleCheckAtTick int

	// Wall switches to the real clock: tick pacing and failure
	// detection happen in wall time.
	Wall bool
}

// DefaultShortConfig is the seeded CI soak: 48 tenants in three tiers
// (one bronze burster at 10× quota), four servers with 2-chains behind
// a three-member replicated controller group, a kill+repair, a leader
// kill + standby promotion, and a live drain mid-run, ~12s of virtual
// time.
func DefaultShortConfig() Config {
	return Config{
		Seed:             1,
		Ticks:            120,
		TickDuration:     100 * time.Millisecond,
		Servers:          4,
		Controllers:      3,
		BlocksPerServer:  256,
		ChainLength:      2,
		QoSConcurrency:   16,
		Workers:          16,
		SlowServerAtTick: 20,
		SlowHealAtTick:   35,
		KillAtTick:       45,
		CtrlKillAtTick:   60,
		DrainAtTick:      80,
		IdleTenants:      6,
		TierIdleAfter:    2 * time.Second,
		IdleCheckAtTick:  70,
		Tiers: []TierSpec{
			{
				Name: "gold", Tenants: 6, BaseOpsPerTick: 24, ValueBytes: 64,
				Quota: core.Quota{OpsPerSec: 600, BytesPerSec: 600 * 4096, Weight: 8},
				SLO:   SLO{MinThroughput: 0.85, MaxP99: 250 * time.Millisecond, MinFairness: 0.90},
			},
			{
				Name: "silver", Tenants: 12, BaseOpsPerTick: 10, ValueBytes: 64,
				Quota: core.Quota{OpsPerSec: 250, BytesPerSec: 250 * 4096, Weight: 4},
				SLO:   SLO{MinThroughput: 0.75, MaxP99: 350 * time.Millisecond, MinFairness: 0.85},
			},
			{
				Name: "bronze", Tenants: 30, BaseOpsPerTick: 4, ValueBytes: 64,
				BurstTenants: 1, BurstFactor: 10,
				Quota: core.Quota{OpsPerSec: 80, BytesPerSec: 80 * 4096, Weight: 1},
				SLO:   SLO{MinThroughput: 0.60, MaxP99: 500 * time.Millisecond, MinFairness: 0.80},
			},
		},
	}
}

// Scale multiplies every tier's tenant count (wall-mode fleets).
func (c Config) Scale(factor int) Config {
	if factor <= 1 {
		return c
	}
	tiers := make([]TierSpec, len(c.Tiers))
	copy(tiers, c.Tiers)
	for i := range tiers {
		tiers[i].Tenants *= factor
		tiers[i].BurstTenants *= factor
	}
	c.Tiers = tiers
	return c
}

// tenantRun is one tenant's live state.
type tenantRun struct {
	name  string
	tier  int
	burst bool
	kv    *client.KV
	tr    *trace.Trace
	mean  float64 // mean alive-bytes over the soak window

	mu        sync.Mutex
	acked     map[string]string
	ackedKeys []string
	offered   int64
	entitled  int64
	achieved  int64
	throttled int64
	tolerated int64 // conn-classified failures inside fault windows
	lat       []time.Duration
}

type engine struct {
	cfg     Config
	cluster *jiffy.Cluster
	vclock  *clock.Virtual
	inj     *faultinject.Injector
	c       *jiffy.Client
	tenants []*tenantRun
	idle    []*tenantRun // scale-to-zero cohort; offers no tick load
	logf    func(string, ...any)

	idleReaccessErrs int

	killedAddr     string
	killedIdx      int
	slowAddr       string
	slowEpoch      uint64
	ctrlKilledAddr string
	failoverGen    uint64
	drainAddr      string
	drainActive    atomic.Bool
	drainDone      chan error
	drained        int

	violations []string
	unexpected atomic.Int64
	firstErr   atomic.Value // string
}

// Run executes one soak and grades it. logf receives progress lines
// (pass t.Logf or log.Printf); nil discards them.
func Run(cfg Config, logf func(string, ...any)) (*Report, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Ticks <= 0 || cfg.TickDuration <= 0 || len(cfg.Tiers) == 0 {
		return nil, fmt.Errorf("soak: config needs ticks, tick duration and tiers")
	}
	if cfg.SlowServerAtTick > 0 && cfg.SlowHealAtTick <= cfg.SlowServerAtTick {
		return nil, fmt.Errorf("soak: SlowServerAtTick needs SlowHealAtTick after it")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	e := &engine{cfg: cfg, logf: logf, drainDone: make(chan error, 1)}
	if err := e.boot(); err != nil {
		return nil, err
	}
	defer e.cluster.Close()
	defer e.c.Close()

	if err := e.provisionTenants(); err != nil {
		return nil, err
	}
	if err := e.provisionIdleTenants(); err != nil {
		return nil, err
	}
	e.runTicks()
	e.finishDrain()
	e.liftQuotas()
	e.reaccessIdleCohort()
	lost := e.verifyAcked()
	rep := e.report(lost)
	e.checkMetrics(rep)
	rep.Violations = e.violations
	return rep, nil
}

// boot builds the faulted cluster and the shared client.
func (e *engine) boot() error {
	cfg := e.cfg
	e.inj = faultinject.New(cfg.Seed, nil)
	// PR 1 fault layer: seeded wire jitter on every send for the whole
	// soak — the QoS and repair paths must hold up on a lossy-ish wire,
	// not just a perfect in-process one.
	e.inj.AddRule(faultinject.Rule{
		Name: "wire-jitter", Match: "send:",
		Latency: 20 * time.Microsecond, Jitter: 80 * time.Microsecond,
	})

	ccfg := core.TestConfig()
	ccfg.LeaseDuration = time.Hour // leases are not under test here
	ccfg.RPCTimeout = 2 * time.Second
	ccfg.ChainLength = cfg.ChainLength
	ccfg.HeartbeatInterval = time.Second
	ccfg.SuspicionWindow = 5 * time.Second
	ccfg.QoSConcurrency = cfg.QoSConcurrency
	if cfg.IdleTenants > 0 && cfg.TierIdleAfter > 0 {
		ccfg.TierIdleAfter = cfg.TierIdleAfter
		ccfg.TierCooldown = cfg.TierIdleAfter / 2
		ccfg.TierScanPeriod = 0 // scans are harness-driven, once per tick
	}

	opts := jiffy.ClusterOptions{
		Config:          ccfg,
		Controllers:     cfg.Controllers,
		Servers:         cfg.Servers,
		BlocksPerServer: cfg.BlocksPerServer,
		DisableExpiry:   true,
		Dial:            e.inj.Dial,
	}
	if !cfg.Wall {
		e.vclock = clock.NewVirtual(time.Unix(0, 0))
		opts.Clock = e.vclock
	}
	cluster, err := jiffy.StartCluster(opts)
	if err != nil {
		return err
	}
	e.cluster = cluster
	// Throttles must surface fast: one honored retry-after wait, then
	// the typed error reaches the harness.
	c, err := cluster.Connect(context.Background(), client.WithRetryPolicy(client.RetryPolicy{
		Limit: 6, MaxBackoff: 2 * time.Millisecond,
		ThrottleLimit: 1, MaxThrottleWait: 2 * time.Millisecond,
	}))
	if err != nil {
		cluster.Close()
		return err
	}
	e.c = c
	return nil
}

// provisionTenants registers every tenant: a job, a rate quota on its
// root, one KV prefix, and a per-tenant trace stream driving its
// offered load.
func (e *engine) provisionTenants() error {
	ctx := context.Background()
	window := time.Duration(e.cfg.Ticks) * e.cfg.TickDuration
	tcfg := trace.Config{
		Tenants:           1,
		Window:            window,
		JobsPerTenant:     8,
		MeanStageBytes:    256 * 1024,
		SigmaLog:          1.2,
		MinStages:         1,
		MaxStages:         4,
		MinTasks:          1,
		MaxTasks:          8,
		MeanStageDuration: window / 10,
	}
	idx := 0
	for ti, tier := range e.cfg.Tiers {
		for k := 0; k < tier.Tenants; k++ {
			name := fmt.Sprintf("%s-%03d", tier.Name, k)
			if err := e.c.RegisterJob(ctx, core.JobID(name)); err != nil {
				return fmt.Errorf("soak: register %s: %w", name, err)
			}
			if err := e.c.SetQuota(ctx, core.Path(name), tier.Quota); err != nil {
				return fmt.Errorf("soak: quota %s: %w", name, err)
			}
			path := core.Path(name + "/kv")
			if _, _, err := e.c.CreatePrefix(ctx, path, nil, core.DSKV, 1, 0); err != nil {
				return fmt.Errorf("soak: create %s: %w", path, err)
			}
			kv, err := e.c.OpenKV(ctx, path)
			if err != nil {
				return fmt.Errorf("soak: open %s: %w", path, err)
			}
			tn := &tenantRun{
				name:  name,
				tier:  ti,
				burst: k < tier.BurstTenants,
				kv:    kv,
				tr:    trace.Generate(tcfg, e.cfg.Seed+int64(idx)*1000003),
				acked: make(map[string]string),
			}
			// Mean alive-bytes normalizes the trace into a load scale.
			var sum float64
			for t := 0; t < e.cfg.Ticks; t++ {
				sum += float64(tn.tr.AliveBytes(0, time.Duration(t)*e.cfg.TickDuration))
			}
			tn.mean = sum / float64(e.cfg.Ticks)
			e.tenants = append(e.tenants, tn)
			idx++
		}
	}
	e.logf("soak: provisioned %d tenants across %d tiers", len(e.tenants), len(e.cfg.Tiers))
	return nil
}

// provisionIdleTenants writes the scale-to-zero cohort's dataset up
// front. These tenants offer no load during the ticks, so their blocks
// go cold and must demote once TierIdleAfter lapses.
func (e *engine) provisionIdleTenants() error {
	ctx := context.Background()
	for k := 0; k < e.cfg.IdleTenants; k++ {
		name := fmt.Sprintf("idle-%03d", k)
		if err := e.c.RegisterJob(ctx, core.JobID(name)); err != nil {
			return fmt.Errorf("soak: register %s: %w", name, err)
		}
		path := core.Path(name + "/kv")
		if _, _, err := e.c.CreatePrefix(ctx, path, nil, core.DSKV, 1, 0); err != nil {
			return fmt.Errorf("soak: create %s: %w", path, err)
		}
		kv, err := e.c.OpenKV(ctx, path)
		if err != nil {
			return fmt.Errorf("soak: open %s: %w", path, err)
		}
		tn := &tenantRun{name: name, kv: kv, acked: make(map[string]string)}
		for i := 0; i < 48; i++ {
			key := fmt.Sprintf("cold-%04d", i)
			val := fmt.Sprintf("%s-%04d-", name, i) + strings.Repeat("z", 192)
			if err := kv.Put(ctx, key, []byte(val)); err != nil {
				return fmt.Errorf("soak: seed %s/%s: %w", name, key, err)
			}
			tn.acked[key] = val
		}
		e.idle = append(e.idle, tn)
	}
	if len(e.idle) > 0 {
		e.logf("soak: provisioned %d idle (scale-to-zero) tenants", len(e.idle))
	}
	return nil
}

// tierTick drives one demotion scan on every live server, standing in
// for the periodic tier worker (TierScanPeriod is 0 in soaks so the
// demotion schedule is deterministic).
func (e *engine) tierTick() {
	if e.cfg.IdleTenants <= 0 || e.cfg.TierIdleAfter <= 0 {
		return
	}
	for i, srv := range e.cluster.Servers {
		if e.killedAddr != "" && i == e.killedIdx {
			continue
		}
		if _, err := srv.TierTickNow(); err != nil {
			e.violations = append(e.violations, fmt.Sprintf("tier scan on server %d: %v", i, err))
		}
	}
}

// checkIdleCohort asserts scale-to-zero mid-run: every idle-cohort
// block on a live server is demoted to the persist tier, so the
// cohort's resident bytes are exactly zero.
func (e *engine) checkIdleCohort(tick int) {
	blocks, tiered := 0, 0
	resident := int64(0)
	for i, srv := range e.cluster.Servers {
		if e.killedAddr != "" && i == e.killedIdx {
			continue
		}
		for _, b := range srv.Store().List() {
			if !strings.HasPrefix(string(b.Path), "idle-") {
				continue
			}
			blocks++
			if b.TierState() == blockstore.TierTiered {
				tiered++
			} else {
				resident += int64(b.Partition.Bytes())
			}
		}
	}
	switch {
	case blocks == 0:
		e.violations = append(e.violations, "idle cohort hosts no blocks on live servers")
	case tiered != blocks || resident != 0:
		e.violations = append(e.violations, fmt.Sprintf(
			"idle cohort not at zero resident bytes at tick %d: %d bytes resident, %d/%d blocks tiered",
			tick, resident, tiered, blocks))
	default:
		e.logf("soak: idle cohort at zero resident bytes (tick %d, %d blocks tiered)", tick, tiered)
	}
}

// reaccessIdleCohort re-reads the scale-to-zero cohort after the last
// tick: every key must come back correct with zero client-visible
// errors — demotion is allowed to cost latency, never correctness.
func (e *engine) reaccessIdleCohort() {
	if len(e.idle) == 0 {
		return
	}
	errs := 0
	for _, tn := range e.idle {
		for key, want := range tn.acked {
			got, err := tn.kv.Get(context.Background(), key)
			if err != nil || string(got) != want {
				errs++
				if errs <= 5 {
					e.logf("soak: idle re-access %s/%s failed: %v", tn.name, key, err)
				}
			}
		}
	}
	e.idleReaccessErrs = errs
	if errs > 0 {
		e.violations = append(e.violations, fmt.Sprintf(
			"idle cohort re-access: %d client-visible errors", errs))
	} else {
		e.logf("soak: idle cohort re-accessed with zero errors")
	}
}

// loadScale maps the tenant's alive intermediate data at a tick to an
// offered-load multiplier in [0.5, 2.5] — the Fig. 1 burstiness shape,
// tamed so entitlements stay assertable.
func (tn *tenantRun) loadScale(at time.Duration) float64 {
	if tn.mean <= 0 {
		return 1
	}
	s := 0.5 + float64(tn.tr.AliveBytes(0, at))/(2*tn.mean)
	if s > 2.5 {
		s = 2.5
	}
	return s
}

// runTicks drives the main load loop.
func (e *engine) runTicks() {
	jobs := make(chan func(), e.cfg.Workers*4)
	var workers sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for fn := range jobs {
				fn()
			}
		}()
	}

	tickSec := e.cfg.TickDuration.Seconds()
	for tick := 0; tick < e.cfg.Ticks; tick++ {
		if e.cfg.SlowServerAtTick > 0 && tick == e.cfg.SlowServerAtTick {
			e.slowServer(tick)
		}
		if e.cfg.SlowServerAtTick > 0 && tick == e.cfg.SlowHealAtTick {
			e.healSlowServer(tick)
		}
		if e.cfg.KillAtTick > 0 && tick == e.cfg.KillAtTick {
			e.kill()
		}
		if e.cfg.CtrlKillAtTick > 0 && tick == e.cfg.CtrlKillAtTick {
			e.killController(tick)
		}
		if e.cfg.DrainAtTick > 0 && tick == e.cfg.DrainAtTick {
			e.startDrain()
		}

		at := time.Duration(tick) * e.cfg.TickDuration
		var tickWG sync.WaitGroup
		for _, tn := range e.tenants {
			tier := &e.cfg.Tiers[tn.tier]
			offered := int(float64(tier.BaseOpsPerTick) * tn.loadScale(at))
			if offered < 1 {
				offered = 1
			}
			if tn.burst && tier.BurstFactor > 1 {
				offered *= tier.BurstFactor
			}
			entitled := offered
			if tier.Quota.OpsPerSec > 0 {
				if lim := int(tier.Quota.OpsPerSec * tickSec); lim < entitled {
					entitled = lim
				}
			}
			tn.mu.Lock()
			tn.offered += int64(offered)
			tn.entitled += int64(entitled)
			tn.mu.Unlock()
			for i := 0; i < offered; i++ {
				tn, tick, i := tn, tick, i
				tickWG.Add(1)
				jobs <- func() {
					defer tickWG.Done()
					e.doOp(tn, tick, i)
				}
			}
		}
		tickWG.Wait()

		if e.cfg.KillAtTick > 0 && tick == e.cfg.KillAtTick {
			e.repair()
		}
		e.advance(e.cfg.TickDuration)
		e.tierTick()
		if e.cfg.IdleCheckAtTick > 0 && tick+1 == e.cfg.IdleCheckAtTick {
			e.checkIdleCohort(tick + 1)
		}
		if (tick+1)%20 == 0 {
			e.logf("soak: tick %d/%d", tick+1, e.cfg.Ticks)
		}
	}
	close(jobs)
	workers.Wait()
}

// doOp runs one tenant op (3:1 put:get mix) and classifies the result.
func (e *engine) doOp(tn *tenantRun, tick, i int) {
	ctx := context.Background()
	tier := &e.cfg.Tiers[tn.tier]
	get := (tick*31+i)%4 == 3

	var err error
	var key, val string
	if get {
		tn.mu.Lock()
		if n := len(tn.ackedKeys); n > 0 {
			key = tn.ackedKeys[(tick*131+i*7)%n]
		}
		tn.mu.Unlock()
	}
	start := time.Now()
	if get && key != "" {
		_, err = tn.kv.Get(ctx, key)
	} else {
		key = fmt.Sprintf("%s-%04d-%05d", tn.name, tick, i)
		val = fmt.Sprintf("v%04d-%05d", tick, i)
		pad := tier.ValueBytes - len(val)
		if pad > 0 {
			val += string(make([]byte, pad))
		}
		err = tn.kv.Put(ctx, key, []byte(val))
		get = false
	}
	elapsed := time.Since(start)

	tn.mu.Lock()
	defer tn.mu.Unlock()
	switch {
	case err == nil:
		tn.achieved++
		tn.lat = append(tn.lat, elapsed)
		if !get {
			tn.acked[key] = val
			tn.ackedKeys = append(tn.ackedKeys, key)
		}
	case errors.Is(err, core.ErrQuotaExceeded):
		// The typed throttle: counted, never treated as a failure.
		tn.throttled++
	case e.faultWindow(tick):
		// A failure inside a declared fault window (kill or live drain):
		// severed sessions surface as closed pipes, resets or timeouts
		// depending on where the op was in flight. The op was never
		// acknowledged, which is exactly the contract — only acked writes
		// must survive.
		tn.tolerated++
	default:
		e.unexpected.Add(1)
		e.firstErr.CompareAndSwap(nil, fmt.Sprintf("tenant %s tick %d: %v", tn.name, tick, err))
	}
}

// faultWindow reports whether conn-level failures are expected at this
// tick: during the kill tick and its two successors (clients re-learn
// maps lazily), or while a drain is in flight.
func (e *engine) faultWindow(tick int) bool {
	if e.cfg.KillAtTick > 0 && tick >= e.cfg.KillAtTick && tick <= e.cfg.KillAtTick+2 {
		return true
	}
	return e.drainActive.Load()
}

// kill closes one memory server and severs its sessions; repair() runs
// at the end of the same tick.
func (e *engine) kill() {
	e.killedIdx = len(e.cluster.Servers) - 1
	victim := e.cluster.Servers[e.killedIdx]
	e.killedAddr = victim.Addr()
	victim.Close()
	e.inj.BreakConns(e.killedAddr)
	e.logf("soak: killed server %s at tick %d", e.killedAddr, e.cfg.KillAtTick)
}

// repair drives one deterministic detection round: clock past the
// suspicion window, survivors beat, one liveness scan declares the
// victim dead and repairs every chain synchronously.
func (e *engine) repair() {
	e.advance(5*time.Second + time.Second) // SuspicionWindow + HeartbeatInterval (see boot)
	for i, srv := range e.cluster.Servers {
		if i == e.killedIdx {
			continue
		}
		if err := srv.HeartbeatNow(); err != nil {
			e.violations = append(e.violations, fmt.Sprintf("heartbeat from survivor %d failed: %v", i, err))
		}
	}
	// The periodic liveness worker (also driven by the advanced clock)
	// may have raced us to the declaration; what matters is that some
	// scan declared the victim dead and repaired its chains.
	found := false
	for _, ctrl := range e.cluster.Controllers {
		ctrl.CheckLivenessNow()
		if ctrl.ServerDead(e.killedAddr) {
			found = true
		}
	}
	if !found {
		e.violations = append(e.violations, fmt.Sprintf("no controller declared %s dead", e.killedAddr))
	}
	e.logf("soak: repaired after killing %s", e.killedAddr)
}

// killController closes the lead controller mid-soak, severs its
// sessions, and promotes the first standby under a fenced generation —
// the control-plane failover, driven under full offered load. The
// promotion completes before this tick's ops are offered, and no fault
// window opens: servers and the shared client must re-home within
// their normal retry budgets with zero client-visible errors. The
// client's very next control call proves the re-home worked.
func (e *engine) killController(tick int) {
	if len(e.cluster.Controllers) < 2 {
		e.violations = append(e.violations,
			"controller kill configured but the group has no standby")
		return
	}
	leader := e.cluster.Controllers[0]
	e.ctrlKilledAddr = e.cluster.ControllerAddrs[0]
	leader.Close()
	e.inj.BreakConns(strings.TrimPrefix(e.ctrlKilledAddr, "mem://"))

	standby := e.cluster.Controllers[1]
	e.failoverGen = standby.PromoteNow()
	if e.failoverGen < 2 {
		e.violations = append(e.violations, fmt.Sprintf(
			"standby promotion returned generation %d, want >= 2", e.failoverGen))
	}
	role, err := e.c.ControllerRole(context.Background())
	switch {
	case err != nil:
		e.violations = append(e.violations, fmt.Sprintf(
			"client did not re-home across the controller handoff: %v", err))
	case !role.IsLeader || role.Leader != e.cluster.ControllerAddrs[1]:
		e.violations = append(e.violations, fmt.Sprintf(
			"post-handoff role = %+v, want leader %s", role, e.cluster.ControllerAddrs[1]))
	}
	e.logf("soak: killed controller %s at tick %d; standby promoted at gen %d",
		e.ctrlKilledAddr, tick, e.failoverGen)
}

// slowServer opens the gray-failure phase: the first memory server (a
// chain member of many tenant blocks, and never the kill or drain
// victim of the default schedule) gets persistent injected latency on
// every byte toward it, and a Degraded report places it on controller
// probation. Unlike kill and drain this opens no fault window — an
// alive-but-slow server must cost latency, never errors or acks.
func (e *engine) slowServer(tick int) {
	e.slowAddr = e.cluster.Servers[0].Addr()
	e.inj.AddRule(faultinject.Rule{
		Name: "gray-slow", Match: "send:" + e.slowAddr,
		Latency: 500 * time.Microsecond,
	})
	ctrl := e.cluster.Controllers[0]
	if err := ctrl.ReportFailure(proto.ReportFailureReq{
		Reporter: "soak-harness", Server: e.slowAddr, Degraded: true,
	}); err != nil {
		e.violations = append(e.violations, fmt.Sprintf("degraded report for %s: %v", e.slowAddr, err))
		return
	}
	switch {
	case ctrl.ServerDead(e.slowAddr):
		e.violations = append(e.violations, fmt.Sprintf(
			"fail-slow server %s was declared dead", e.slowAddr))
	case !ctrl.ServerProbated(e.slowAddr):
		e.violations = append(e.violations, fmt.Sprintf(
			"degraded report did not probate %s", e.slowAddr))
	}
	e.slowEpoch = ctrl.MembershipEpoch()
	e.logf("soak: server %s turned gray at tick %d (probated, epoch %d)",
		e.slowAddr, tick, e.slowEpoch)
}

// healSlowServer closes the gray phase: the probation must have held
// through the slow window without touching the membership epoch, and
// once the injector rule is removed, consecutive clean recovery probes
// must lift it.
func (e *engine) healSlowServer(tick int) {
	if e.slowAddr == "" {
		return
	}
	ctrl := e.cluster.Controllers[0]
	if got := ctrl.MembershipEpoch(); got != e.slowEpoch {
		e.violations = append(e.violations, fmt.Sprintf(
			"gray window moved the membership epoch: %d -> %d", e.slowEpoch, got))
	}
	if !ctrl.ServerProbated(e.slowAddr) {
		e.violations = append(e.violations, fmt.Sprintf(
			"probation of %s did not hold through the slow window", e.slowAddr))
	}
	e.inj.RemoveRule("gray-slow")
	for i := 0; i < core.DefaultProbationRecoveryProbes; i++ {
		ctrl.ProbeProbationNow()
	}
	if ctrl.ServerProbated(e.slowAddr) {
		e.violations = append(e.violations, fmt.Sprintf(
			"probation of %s not lifted after heal", e.slowAddr))
	} else {
		e.logf("soak: healed %s at tick %d; probation lifted", e.slowAddr, tick)
	}
}

// startDrain begins a live migration of a second server under load.
func (e *engine) startDrain() {
	idx := len(e.cluster.Servers) - 2
	if idx < 0 || (e.cfg.KillAtTick > 0 && idx == e.killedIdx) {
		return
	}
	e.drainAddr = e.cluster.Servers[idx].Addr()
	e.drainActive.Store(true)
	e.logf("soak: draining %s at tick %d", e.drainAddr, e.cfg.DrainAtTick)
	go func() {
		n, err := e.c.DrainServer(context.Background(), e.drainAddr)
		e.drained = n
		e.drainActive.Store(false)
		e.drainDone <- err
	}()
}

// finishDrain waits for an in-flight drain to settle.
func (e *engine) finishDrain() {
	if e.drainAddr == "" {
		return
	}
	select {
	case err := <-e.drainDone:
		if err != nil {
			e.violations = append(e.violations, fmt.Sprintf("drain of %s failed: %v", e.drainAddr, err))
		} else {
			e.logf("soak: drain of %s migrated %d entries", e.drainAddr, e.drained)
		}
	case <-time.After(30 * time.Second):
		e.violations = append(e.violations, fmt.Sprintf("drain of %s did not finish", e.drainAddr))
	}
}

// liftQuotas clears every tenant's rate quota so the read-back
// verification isn't throttled: the virtual clock is frozen after the
// last tick, so token buckets would never refill. Gate throttle
// counters persist across the clear, so the metrics cross-check still
// sees the soak's totals.
func (e *engine) liftQuotas() {
	ctx := context.Background()
	for _, tn := range e.tenants {
		if err := e.c.SetQuota(ctx, core.Path(tn.name), core.Quota{}); err != nil {
			e.violations = append(e.violations, fmt.Sprintf("lifting quota for %s: %v", tn.name, err))
		}
	}
}

// verifyAcked reads back every acknowledged write; returns the number
// lost. This is the zero-acked-write-loss gate: a kill, a repair and a
// drain all happened mid-soak, and none of them may lose an ack.
func (e *engine) verifyAcked() int {
	var lost atomic.Int64
	var total int
	jobs := make(chan func(), e.cfg.Workers*4)
	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fn := range jobs {
				fn()
			}
		}()
	}
	for _, tn := range e.tenants {
		tn := tn
		total += len(tn.acked)
		for key, want := range tn.acked {
			key, want := key, want
			jobs <- func() {
				got, err := tn.kv.Get(context.Background(), key)
				if err != nil || string(got) != want {
					if lost.Add(1) <= 5 {
						e.logf("soak: LOST acked write %s/%s: %v", tn.name, key, err)
					}
				}
			}
		}
	}
	close(jobs)
	wg.Wait()
	e.logf("soak: verified %d acked writes, %d lost", total, lost.Load())
	return int(lost.Load())
}

// advance moves time forward: virtually in short mode, really in wall
// mode.
func (e *engine) advance(d time.Duration) {
	if e.vclock != nil {
		e.vclock.Advance(d)
		return
	}
	time.Sleep(d)
}
