// Package controller implements Jiffy's unified control plane
// (§4.2.1): hierarchical address management, the block allocator and
// free list, the metadata manager (per-data-structure partition maps),
// and the lease manager (renewal service + expiry worker). Unlike
// Pocket's split control/metadata planes, Jiffy combines them into one
// service; this package is that service.
//
// Scaling: jobs are hash-partitioned across shards, each with its own
// lock, so control operations for different jobs proceed in parallel —
// the mechanism behind the near-linear multi-core scaling of Fig. 12(b).
package controller

import (
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"jiffy/internal/alloc"
	"jiffy/internal/clock"
	"jiffy/internal/core"
	"jiffy/internal/hierarchy"
	"jiffy/internal/obs"
	"jiffy/internal/persist"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
)

// Options configures a Controller.
type Options struct {
	// Config holds the system tunables (block size, thresholds, lease
	// defaults).
	Config core.Config
	// Shards is the number of independently locked job shards
	// (defaults to 1; Fig. 12(b) sweeps this).
	Shards int
	// Clock drives lease expiry (defaults to the wall clock).
	Clock clock.Clock
	// Persist is the external store used for flushes and loads
	// (defaults to an in-memory store).
	Persist persist.Store
	// Logger receives operational logs.
	Logger *slog.Logger
	// Dial customizes connections to memory servers (defaults to
	// rpc.Dial; tests inject in-process transports).
	Dial func(addr string) (*rpc.Client, error)
	// DisableExpiry turns the expiry worker off (trace-replay
	// simulations step it manually via ExpireNow).
	DisableExpiry bool
}

// Controller is the Jiffy control plane.
type Controller struct {
	cfg     core.Config
	clk     clock.Clock
	log     *slog.Logger
	persist persist.Store

	alloc  *alloc.Allocator
	shards []*shard

	servers *rpc.Pool
	rpcSrv  *rpc.Server
	// table maps every served control method to its implementation;
	// onLeader marks the ones only the leader serves — standbys answer
	// them with a redirect (see handlers.go).
	table    rpc.Table
	onLeader map[uint16]bool

	stop chan struct{}
	wg   sync.WaitGroup

	// failure detection (see health.go): last heartbeat per live
	// server, the set of servers declared dead, and the membership
	// epoch that advances on every membership change.
	hbMu        sync.Mutex
	lastBeat    map[string]time.Time
	deadServers map[string]bool
	// probation is the set of servers confirmed alive but persistently
	// slow (gray failure): excluded from new allocation and hedge
	// ranking, distinct from dead — no chain splice. probationStreak
	// counts consecutive clean recovery probes (see health.go).
	probation       map[string]bool
	probationStreak map[string]int
	memberEpoch     atomic.Uint64

	// tenant rate quotas registered on job roots (see quota.go); the
	// table replays to servers that register after SetQuota.
	qMu          sync.Mutex
	tenantQuotas map[string]core.Quota

	// counters for stats and the Fig. 12 benchmarks
	ops         atomic.Int64
	renews      atomic.Int64
	expiries    atomic.Int64
	scaleUps    atomic.Int64
	scaleDowns  atomic.Int64
	flushBlocks atomic.Int64

	// recovery counters (see health.go / repair.go)
	srvFailures  atomic.Int64
	chainRepairs atomic.Int64
	blocksLost   atomic.Int64

	// tiered-block records reported by memory servers (see tier.go);
	// guarded by its own mutex, never the shard locks.
	tiers tierState

	// replicated-group state (see leadership.go / replication.go):
	// group membership and role, the leader-side op-log replicator, a
	// connection pool to peer controllers, and the standby-side apply
	// serializer with the box it decodes each streamed entry into.
	// leading gates every client/server-facing method; it defaults to
	// true (a solo controller is its own leader).
	group      groupState
	repl       *replicator
	ctrlPeers  *rpc.Pool
	applyMu    sync.Mutex
	applyBox   replOp
	leading    atomic.Bool
	failovers  atomic.Int64
	boundAddr  string
	bgDisabled bool

	// telemetry: the counters above plus allocator and per-job gauges,
	// per-method RPC stats, and recent spans, served via Obs()/Spans().
	reg    *obs.Registry
	rpcm   *obs.RPCMetrics
	tracer *obs.Tracer
	spans  *obs.RingExporter
}

// New creates a controller; call Listen to serve RPCs, or drive it
// in-process through the exported methods.
func New(opts Options) (*Controller, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.Persist == nil {
		opts.Persist = persist.NewMemStore()
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	c := &Controller{
		cfg:             opts.Config,
		clk:             opts.Clock,
		log:             opts.Logger,
		persist:         opts.Persist,
		alloc:           alloc.New(),
		servers:         rpc.NewPool(rpc.WithTimeout(opts.Dial, opts.Config.RPCTimeout)),
		ctrlPeers:       rpc.NewPool(rpc.WithTimeout(opts.Dial, opts.Config.RPCTimeout)),
		stop:            make(chan struct{}),
		lastBeat:        make(map[string]time.Time),
		deadServers:     make(map[string]bool),
		probation:       make(map[string]bool),
		probationStreak: make(map[string]int),
		tenantQuotas:    make(map[string]core.Quota),
		bgDisabled:      opts.DisableExpiry,
	}
	c.tiers.records = make(map[core.BlockInfo]tierRecord)
	for i := 0; i < opts.Shards; i++ {
		c.shards = append(c.shards, newShard())
	}
	c.group.contrib = make(map[string]contribRange)
	c.repl = newReplicator(c)
	c.leading.Store(true)
	c.buildTable()
	c.instrument()
	if !opts.DisableExpiry {
		c.wg.Add(1)
		go c.expiryWorker()
	}
	// The failure detector shares the background-maintenance switch:
	// simulations that step time manually also step liveness manually
	// (CheckLivenessNow).
	if !opts.DisableExpiry && opts.Config.HeartbeatInterval > 0 && opts.Config.SuspicionWindow > 0 {
		c.wg.Add(1)
		go c.detectorWorker()
	}
	return c, nil
}

// instrument builds the controller's metric registry: lifetime counters
// (lease renewals/expiries, splits/merges, flush-before-reclaim),
// allocator pool gauges, and a per-job block-count collector. Gauges
// and collectors read controller state only at scrape time.
func (c *Controller) instrument() {
	c.reg = obs.NewRegistry()
	c.rpcm = obs.NewRPCMetrics("controller")
	c.rpcm.Register(c.reg, proto.MethodName)
	c.spans = obs.NewRingExporter(512)
	c.tracer = obs.NewTracer(c.spans, c.log)
	counters := []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"jiffy_ctrl_control_ops_total", "control-plane RPCs handled", &c.ops},
		{"jiffy_ctrl_lease_renewals_total", "explicit lease renewals applied", &c.renews},
		{"jiffy_ctrl_lease_expiries_total", "prefixes flushed and reclaimed on lease expiry", &c.expiries},
		{"jiffy_ctrl_scale_ups_total", "block splits / scale-up actions", &c.scaleUps},
		{"jiffy_ctrl_scale_downs_total", "block merges / scale-down actions", &c.scaleDowns},
		{"jiffy_ctrl_flushed_blocks_total", "blocks flushed to the persistent tier", &c.flushBlocks},
		{"jiffy_ctrl_server_failures_total", "memory servers declared dead (or drained)", &c.srvFailures},
		{"jiffy_ctrl_chain_repairs_total", "partition entries repaired after a server failure", &c.chainRepairs},
		{"jiffy_ctrl_blocks_lost_total", "blocks lost with no replica or flushed copy", &c.blocksLost},
		{"jiffy_ctrl_tier_demotions_total", "block demotions to the persist tier reported by servers", &c.tiers.demotes},
		{"jiffy_ctrl_tier_promotions_total", "block rehydrations from the persist tier reported by servers", &c.tiers.promotes},
		{"jiffy_ctrl_tier_recoveries_total", "dead blocks rebuilt from their tier objects during chain repair", &c.tiers.recoveries},
		{"jiffy_ctrl_failovers_total", "leadership takeovers performed by this controller", &c.failovers},
	}
	c.reg.RegisterCollector(func(w io.Writer) {
		for _, ctr := range counters {
			obs.WriteHeader(w, ctr.name, ctr.help, "counter")
			obs.WriteSample(w, ctr.name, "", ctr.v.Load())
		}
	})
	c.reg.GaugeFunc("jiffy_ctrl_blocks_total", "blocks contributed by registered servers",
		func() int64 { total, _, _ := c.alloc.Stats(); return int64(total) })
	c.reg.GaugeFunc("jiffy_ctrl_blocks_free", "blocks on the free list",
		func() int64 { _, free, _ := c.alloc.Stats(); return int64(free) })
	c.reg.GaugeFunc("jiffy_ctrl_servers", "registered memory servers",
		func() int64 { _, _, servers := c.alloc.Stats(); return int64(servers) })
	c.reg.GaugeFunc("jiffy_ctrl_membership_epoch", "cluster membership epoch (advances on register/death/drain)",
		func() int64 { return int64(c.memberEpoch.Load()) })
	c.reg.GaugeFunc("jiffy_ctrl_servers_degraded", "servers on gray-failure probation",
		func() int64 {
			c.hbMu.Lock()
			defer c.hbMu.Unlock()
			return int64(len(c.probation))
		})
	c.reg.GaugeFunc("jiffy_ctrl_blocks_tiered", "chain members currently demoted to the persist tier",
		c.tieredBlockCount)
	c.reg.GaugeFunc("jiffy_ctrl_leader", "1 when this controller is the group leader, 0 on standbys",
		func() int64 {
			if c.leading.Load() {
				return 1
			}
			return 0
		})
	c.reg.GaugeFunc("jiffy_ctrl_replication_lag_ops", "ops the slowest live standby trails the leader by",
		func() int64 { return c.repl.lag() })
	c.reg.RegisterCollector(func(w io.Writer) {
		obs.WriteHeader(w, "jiffy_ctrl_job_blocks", "blocks allocated per registered job", "gauge")
		for _, s := range c.shards {
			s.mu.Lock()
			for job, h := range s.jobs {
				var blocks int64
				h.Walk(func(n *hierarchy.Node) bool {
					blocks += int64(len(n.Map.Blocks))
					return true
				})
				obs.WriteSample(w, "jiffy_ctrl_job_blocks",
					fmt.Sprintf("{job=%q}", string(job)), blocks)
			}
			s.mu.Unlock()
		}
	})
}

// Obs exposes the controller's metric registry for the admin endpoint.
func (c *Controller) Obs() *obs.Registry { return c.reg }

// Spans exposes the bounded ring of recent controller-side RPC spans.
func (c *Controller) Spans() *obs.RingExporter { return c.spans }

// Listen starts serving control RPCs on addr and returns the bound
// address.
func (c *Controller) Listen(addr string) (string, error) {
	c.rpcSrv = rpc.NewServer(rpc.BytesHandler(c.handle), c.log)
	c.rpcSrv.SetObserver(c.rpcm, c.tracer)
	bound, err := c.rpcSrv.Listen(addr)
	if err == nil {
		c.boundAddr = bound
	}
	return bound, err
}

// Close stops the expiry worker, the RPC server, and all server
// connections.
func (c *Controller) Close() error {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.repl.stop()
	c.wg.Wait()
	if c.rpcSrv != nil {
		c.rpcSrv.Close()
	}
	c.servers.Close()
	c.ctrlPeers.Close()
	return nil
}

// shardFor hashes a job onto its shard.
func (c *Controller) shardFor(job core.JobID) *shard {
	return c.shards[c.shardIndex(job)]
}

// shardIndex is the index in c.shards of the shard owning job.
func (c *Controller) shardIndex(job core.JobID) int {
	h := fnv.New32a()
	h.Write([]byte(job))
	return int(h.Sum32()) % len(c.shards)
}

// withJob runs fn with the job's hierarchy under its shard lock.
func (c *Controller) withJob(job core.JobID, fn func(h *hierarchy.Hierarchy) error) error {
	s := c.shardFor(job)
	s.mu.Lock()
	defer s.mu.Unlock()
	h, err := s.job(job)
	if err != nil {
		return err
	}
	return fn(h)
}

// RegisterJob creates a job's hierarchy root.
func (c *Controller) RegisterJob(job core.JobID) error {
	if err := core.ValidateComponent(string(job)); err != nil {
		return err
	}
	s := c.shardFor(job)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !c.applyRegisterJob(s, replOp{Kind: opRegisterJob, Job: job, Lease: c.cfg.LeaseDuration, Now: c.clk.Now()}) {
		return fmt.Errorf("controller: job %q: %w", job, core.ErrExists)
	}
	return nil
}

// DeregisterJob removes a job, deleting its blocks from the data plane
// and returning them to the free list. Servers hear of the job's end
// only when its root carried a quota: a job without one left nothing
// in their admission gates.
func (c *Controller) DeregisterJob(job core.JobID) error {
	s := c.shardFor(job)
	s.mu.Lock()
	defer s.mu.Unlock()
	h := c.applyDeregisterJob(s, replOp{Kind: opDeregisterJob, Job: job})
	if h == nil {
		return fmt.Errorf("controller: job %q: %w", job, core.ErrNotFound)
	}
	h.Walk(func(n *hierarchy.Node) bool {
		c.releaseEntries(n.Map.Blocks)
		return true
	})
	if !h.Root().Quota.IsZero() {
		c.pushTenantQuota(string(job), core.Quota{})
	}
	return nil
}

// releaseBlocksLocked deletes a node's blocks (every replica of every
// chain) on their servers and frees them. Caller holds the shard lock.
func (c *Controller) releaseBlocksLocked(n *hierarchy.Node) {
	if len(n.Map.Blocks) == 0 {
		return
	}
	c.releaseEntries(n.Map.Blocks)
	n.Map.Blocks = nil
	n.Map.Epoch++
}

// RegisterServer records a memory server's capacity contribution and
// returns its registration mark. Registration counts as the server's
// first heartbeat and revives a server previously declared dead (its
// old blocks are gone; freeing one credits nothing).
func (c *Controller) RegisterServer(addr string, numBlocks int) (core.BlockID, error) {
	mark, err := c.alloc.RegisterServer(addr, numBlocks)
	if err != nil {
		return 0, err
	}
	c.applyServerRegister(replOp{Kind: opServerRegister, Addr: addr, NumBlocks: numBlocks, FirstID: mark})
	// The server restarted: a probation it carried is lifted.
	c.alloc.Resume(addr)
	c.pushTenantQuotas(addr)
	return mark, nil
}

// Clock exposes the controller's time source (the simulator drives a
// virtual one).
func (c *Controller) Clock() clock.Clock { return c.clk }

// Config exposes the active configuration.
func (c *Controller) Config() core.Config { return c.cfg }
