// Package client implements the Jiffy client library: the user-facing
// API of Table 1 in the paper. A Client connects to the controller for
// control operations (jobs, prefixes, leases, flush/load) and opens
// direct data-plane sessions to the memory servers hosting its blocks
// ("access data directly from the memory servers", §2). Data-structure
// handles cache partition maps and refresh them when the data plane
// reports staleness — the client-side half of seamless repartitioning.
//
// The control plane may be a replicated controller group (§4.2.1
// primary-backup fault tolerance): one leader serves every control
// operation while standbys mirror its metadata and answer with a
// NotLeader redirect. The client tracks the leader and re-homes
// automatically — a standby's redirect hint, or a dead leader's
// connection failure, moves the next attempt to another member within
// the normal retry budget, so a controller failover is invisible to
// callers beyond added latency.
//
// The API is context-first: every control- and data-path call takes a
// context.Context whose deadline bounds the call (taking precedence
// over the session-level RPC timeout) and whose cancellation fails
// pending calls with context.Canceled wrapped in the typed errors.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/obs"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
	"jiffy/internal/wire"
)

// RetryPolicy bounds the data-plane op pipeline's recovery.
type RetryPolicy struct {
	// Limit bounds retries after map refreshes (default 32); controller
	// re-homing after a leadership change spends the same budget.
	Limit int
	// MaxBackoff caps the linearly growing between-retry delay
	// (default 5ms), keeping a full retry budget bounded.
	MaxBackoff time.Duration
	// ThrottleLimit bounds retries after admission-control refusals
	// (default 4); past it the typed ErrQuotaExceeded surfaces to the
	// caller, retry-after hint intact. Throttles are counted separately
	// from Limit: quota pressure is persistent in a way staleness is
	// not, so a throttled tenant should surface backpressure quickly
	// rather than burn the full recovery budget.
	ThrottleLimit int
	// MaxThrottleWait caps the server-suggested retry-after honored
	// between throttled attempts (default 50ms), so a deeply
	// over-quota tenant cannot be parked for seconds inside one call.
	MaxThrottleWait time.Duration
}

// DefaultRetryPolicy returns the retry bounds used when no
// WithRetryPolicy option is given.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Limit:           32,
		MaxBackoff:      5 * time.Millisecond,
		ThrottleLimit:   4,
		MaxThrottleWait: 50 * time.Millisecond,
	}
}

// config collects the dialing/retry/telemetry knobs behind the
// functional options.
type config struct {
	controllers []string
	dial        func(addr string) (*rpc.Client, error)
	policy      RetryPolicy
	timeout     time.Duration
	exporter    obs.SpanExporter
	hedgeOn     bool
}

// Option configures Dial.
type Option func(*config)

// WithControllers names the controller group members. Order must match
// the -peers list the controllers themselves were started with; any
// member can be listed first — the client discovers the leader at dial
// time and re-homes on every leadership change.
func WithControllers(addrs ...string) Option {
	return func(c *config) { c.controllers = append(c.controllers, addrs...) }
}

// WithDial customizes outbound connections (tests inject mem://
// transports and fault injectors).
func WithDial(dial func(addr string) (*rpc.Client, error)) Option {
	return func(c *config) { c.dial = dial }
}

// WithRPCTimeout bounds every control- and data-plane call so a dead
// peer fails the call instead of hanging it. Zero keeps
// core.DefaultRPCTimeout; negative disables the bound. A context
// deadline on an individual call always takes precedence.
func WithRPCTimeout(d time.Duration) Option {
	return func(c *config) {
		if d != 0 {
			c.timeout = d
		}
	}
}

// WithRetryPolicy overrides the data-plane retry bounds. Zero fields
// keep their defaults.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *config) {
		if p.Limit > 0 {
			c.policy.Limit = p.Limit
		}
		if p.MaxBackoff > 0 {
			c.policy.MaxBackoff = p.MaxBackoff
		}
		if p.ThrottleLimit > 0 {
			c.policy.ThrottleLimit = p.ThrottleLimit
		}
		if p.MaxThrottleWait > 0 {
			c.policy.MaxThrottleWait = p.MaxThrottleWait
		}
	}
}

// WithTracing installs a span exporter: every RPC issued by the client
// records a span, and the trace/span IDs ride the wire to the servers
// so server-side spans nest under client calls.
func WithTracing(exp obs.SpanExporter) Option {
	return func(c *config) { c.exporter = exp }
}

// WithHedgedReads enables hedged reads: idempotent chain reads (KV
// gets, file reads, queue peeks) that linger past three times the
// primary server's observed p95 (the hedge constants in health.go) race
// a backup request against another chain member; the first response
// wins and the loser is canceled.
// Mutations are never hedged. Costs a few allocations per hedged call;
// leave off for allocation-sensitive workloads.
func WithHedgedReads() Option {
	return func(c *config) { c.hedgeOn = true }
}

// Client is one application's connection to a Jiffy cluster: a
// replicated controller group for control operations and direct
// sessions to the memory servers for data.
type Client struct {
	// ctrl follows the controller group's leader for every control call;
	// ctrlPool holds its sessions.
	ctrl     *rpc.Group
	ctrlPool *rpc.Pool
	pool     *rpc.Pool
	policy   RetryPolicy

	// Gray-failure defenses: always-on per-server health tracking and
	// opt-in read hedging.
	health  *healthTracker
	hedgeOn bool

	// Telemetry: per-method RPC metrics (role "client"), client-loop
	// counters, and the optional tracer, all served via Obs().
	reg            *obs.Registry
	rpcm           *obs.RPCMetrics
	tracer         *obs.Tracer
	batchSizes     *obs.Histogram
	mapRefreshes   *obs.Counter
	staleRegroups  *obs.Counter
	throttleWaits  *obs.Counter
	hedgesFired    *obs.Counter
	hedgesWon      *obs.Counter
	hedgesCanceled *obs.Counter

	mu sync.Mutex
	// routers dispatches push notifications per data-plane connection.
	routers map[string]*pushRouter

	renewers []*Renewer
	closed   bool

	// ints and batches are what a file op and a batched call borrow from
	// their client: an op's integer argument pair, a batch's vectors.
	ints    wire.FreeList[*intArgs]
	batches wire.FreeList[*batchScratch]
}

// Bounds of a client's lists: one item per op in flight at once, in
// the common case.
const (
	maxIntArgs      = 16
	maxBatchScratch = 8
)

// Dial connects to a Jiffy cluster (connect(jiffyAddress) in Table 1).
// WithControllers names the controller group; at least one member must
// be reachable. ctx bounds the dial and leader discovery only; per-call
// contexts bound the individual operations that follow.
func Dial(ctx context.Context, opts ...Option) (*Client, error) {
	cfg := config{policy: DefaultRetryPolicy(), timeout: core.DefaultRPCTimeout}
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.controllers) == 0 {
		return nil, fmt.Errorf("client: no controller addresses (use WithControllers)")
	}
	if cfg.timeout < 0 {
		cfg.timeout = 0 // explicit opt-out: unbounded calls
	}

	c := &Client{
		policy:  cfg.policy,
		routers: make(map[string]*pushRouter),
		reg:     obs.NewRegistry(),
		rpcm:    obs.NewRPCMetrics("client"),
	}
	c.ints.Init(maxIntArgs)
	c.batches.Init(maxBatchScratch)
	if cfg.exporter != nil {
		c.tracer = obs.NewTracer(cfg.exporter, nil)
	}
	c.rpcm.Register(c.reg, proto.MethodName)
	c.batchSizes = c.reg.Histogram("jiffy_client_batch_ops",
		"Operations per batched data-plane call")
	c.mapRefreshes = c.reg.Counter("jiffy_client_map_refreshes_total",
		"Partition-map refreshes triggered by staleness or failures")
	c.staleRegroups = c.reg.Counter("jiffy_client_stale_regroups_total",
		"Batched calls regrouped after a stale partition map")
	c.throttleWaits = c.reg.Counter("jiffy_client_throttle_waits_total",
		"Retry-after waits honored following admission-control refusals")
	c.reg.RegisterCollector(func(w io.Writer) {
		const name = "jiffy_client_rehomes_total"
		obs.WriteHeader(w, name, "Controller re-homes after NotLeader redirects or dead leaders", "counter")
		obs.WriteSample(w, name, "", c.ctrl.Rehomes.Value())
	})
	c.hedgesFired = c.reg.Counter("jiffy_client_hedges_fired_total",
		"Backup read requests launched past the primary's hedge deadline")
	c.hedgesWon = c.reg.Counter("jiffy_client_hedges_won_total",
		"Hedged reads won by the backup request")
	c.hedgesCanceled = c.reg.Counter("jiffy_client_hedges_canceled_total",
		"Hedged-read losers canceled after the other arm won")
	c.health = newHealthTracker()
	c.hedgeOn = cfg.hedgeOn

	// Control and data planes keep separate session pools over one dial
	// chain.
	dial := rpc.WithTimeout(cfg.dial, cfg.timeout)
	dial = rpc.WithInstrumentation(dial, c.rpcm, c.tracer)
	c.pool = rpc.NewPool(dial)
	c.ctrlPool = rpc.NewPool(dial)

	// Control calls re-home within the retry budget, backing off between
	// members so a failover in flight can finish.
	c.ctrl = rpc.NewGroup(c.ctrlPool, cfg.controllers, c.policy.Limit+1,
		func(ctx context.Context, attempt int) error {
			return sleepCtx(ctx, backoffDelay(attempt, c.policy.MaxBackoff))
		})

	// Leader discovery: any reachable member names the leader (standbys
	// track the op-log's source); an unknown or empty answer leaves the
	// member that answered as the starting point and the first control
	// call re-homes. A group that accepts connections but answers nothing
	// in time still counts as reachable; the first control call then
	// reports the timeout.
	role, err := rpc.Invoke(ctx, c.ctrl, proto.CtrlRole, proto.CtrlRoleReq{})
	if err != nil && !errors.Is(err, core.ErrTimeout) {
		c.ctrlPool.Close()
		c.pool.Close()
		return nil, fmt.Errorf("client: connect: no controller reachable: %w", err)
	}
	c.ctrl.Lead(role.Leader)
	return c, nil
}

// Obs exposes the client-side metric registry (per-method RPC stats,
// batch sizes, map refreshes) for embedding into an application's
// admin endpoint.
func (c *Client) Obs() *obs.Registry { return c.reg }

// ServerHealth reports the per-server health state this client has
// observed: latency samples, EWMA and windowed p95, and
// controller-reported probation. Sorted by server address.
func (c *Client) ServerHealth() []ServerHealthInfo { return c.health.snapshot() }

// sleepCtx sleeps d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ControllerRole reports the controller group's current leadership
// (leader address, generation) as seen by the first reachable member,
// and points the next control call at that leader.
func (c *Client) ControllerRole(ctx context.Context) (proto.CtrlRoleResp, error) {
	resp, err := rpc.Invoke(ctx, c.ctrl, proto.CtrlRole, proto.CtrlRoleReq{})
	if err != nil {
		return resp, fmt.Errorf("client: role: no controller reachable: %w", err)
	}
	c.ctrl.Lead(resp.Leader)
	return resp, nil
}

// PromoteController forces the member at addr to take leadership
// (operator tooling; normal failover is automatic). Returns the new
// generation.
func (c *Client) PromoteController(ctx context.Context, addr string) (uint64, error) {
	resp, err := rpc.InvokeAt(ctx, c.ctrlPool, addr, proto.CtrlPromote, proto.CtrlPromoteReq{})
	if err != nil {
		return 0, fmt.Errorf("client: promote %s: %w", addr, err)
	}
	c.ctrl.Lead(addr)
	return resp.Gen, nil
}

// Close stops renewal agents and tears down every connection.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	renewers := c.renewers
	c.mu.Unlock()
	for _, r := range renewers {
		r.Stop()
	}
	c.ctrlPool.Close()
	c.pool.Close()
	return nil
}

// --- control-plane operations (Table 1) -------------------------------------

// RegisterJob registers a job with the control plane.
func (c *Client) RegisterJob(ctx context.Context, job core.JobID) error {
	_, err := rpc.Invoke(ctx, c.ctrl, proto.RegisterJob, proto.RegisterJobReq{Job: job})
	return err
}

// DeregisterJob releases all of a job's resources.
func (c *Client) DeregisterJob(ctx context.Context, job core.JobID) error {
	_, err := rpc.Invoke(ctx, c.ctrl, proto.DeregisterJob, proto.DeregisterJobReq{Job: job})
	return err
}

// CreatePrefix implements createAddrPrefix: adds an address prefix with
// optional extra DAG parents and an attached data structure.
func (c *Client) CreatePrefix(ctx context.Context, path core.Path, parents []core.Path, t core.DSType,
	initialBlocks int, leaseDuration time.Duration) (ds.PartitionMap, time.Duration, error) {
	return c.CreateBoundedPrefix(ctx, path, parents, t, initialBlocks, 0, leaseDuration)
}

// CreateBoundedPrefix is CreatePrefix with a size bound: the structure
// never grows beyond maxBlocks blocks (zero means unbounded), and
// writers see ErrBlockFull when it is full — the generalization of the
// paper's maxQueueLength (§5.2). Consumers freeing space (dequeues,
// deletes) make writes succeed again.
func (c *Client) CreateBoundedPrefix(ctx context.Context, path core.Path, parents []core.Path, t core.DSType,
	initialBlocks, maxBlocks int, leaseDuration time.Duration) (ds.PartitionMap, time.Duration, error) {
	resp, err := rpc.Invoke(ctx, c.ctrl, proto.CreatePrefix, proto.CreatePrefixReq{
		Path:          path,
		Parents:       parents,
		Type:          t,
		InitialBlocks: initialBlocks,
		MaxBlocks:     maxBlocks,
		LeaseDuration: leaseDuration,
	})
	return resp.Map, resp.LeaseDuration, err
}

// CreateHierarchy implements createHierarchy: builds the job's address
// hierarchy from an execution DAG.
func (c *Client) CreateHierarchy(ctx context.Context, job core.JobID, nodes []proto.DagNode,
	leaseDuration time.Duration) error {
	_, err := rpc.Invoke(ctx, c.ctrl, proto.CreateHierarchy, proto.CreateHierarchyReq{
		Job: job, Nodes: nodes, LeaseDuration: leaseDuration,
	})
	return err
}

// RemovePrefix explicitly reclaims a prefix.
func (c *Client) RemovePrefix(ctx context.Context, path core.Path) error {
	_, err := rpc.Invoke(ctx, c.ctrl, proto.RemovePrefix, proto.RemovePrefixReq{Path: path})
	return err
}

// RenewLease implements renewLease for one or more prefixes.
func (c *Client) RenewLease(ctx context.Context, paths ...core.Path) (int, error) {
	resp, err := rpc.Invoke(ctx, c.ctrl, proto.RenewLease, proto.RenewLeaseReq{Paths: paths})
	return resp.Renewed, err
}

// LeaseDuration implements getLeaseDuration.
func (c *Client) LeaseDuration(ctx context.Context, path core.Path) (time.Duration, error) {
	resp, err := rpc.Invoke(ctx, c.ctrl, proto.LeaseInfo, proto.LeaseInfoReq{Path: path})
	return resp.Duration, err
}

// FlushPrefix implements flushAddrPrefix: checkpoint the prefix to the
// external store.
func (c *Client) FlushPrefix(ctx context.Context, path core.Path, externalPath string) (int, error) {
	resp, err := rpc.Invoke(ctx, c.ctrl, proto.FlushPrefix, proto.FlushPrefixReq{
		Path: path, ExternalPath: externalPath,
	})
	return resp.Blocks, err
}

// LoadPrefix implements loadAddrPrefix: restore the prefix from the
// external store.
func (c *Client) LoadPrefix(ctx context.Context, path core.Path, externalPath string) error {
	_, err := rpc.Invoke(ctx, c.ctrl, proto.LoadPrefix, proto.LoadPrefixReq{
		Path: path, ExternalPath: externalPath,
	})
	return err
}

// SaveControllerState checkpoints the leader's metadata to its
// persistent store (operators run this periodically; a replacement
// controller restores it with the -restore flag of jiffy-controller).
// Standbys carry the same metadata via replication, so one checkpoint
// covers the group.
func (c *Client) SaveControllerState(ctx context.Context, key string) error {
	_, err := rpc.Invoke(ctx, c.ctrl, proto.SaveState, proto.SaveStateReq{Key: key})
	return err
}

// ControllerStats fetches controller statistics from the leader.
func (c *Client) ControllerStats(ctx context.Context) (proto.ControllerStatsResp, error) {
	return rpc.Invoke(ctx, c.ctrl, proto.ControllerStats, proto.ControllerStatsReq{})
}

// DrainServer migrates every block off a memory server (graceful
// decommission). The server is removed from the membership first, so
// nothing new lands on it mid-drain; once the call returns it hosts no
// data and can be shut down.
func (c *Client) DrainServer(ctx context.Context, addr string) (int, error) {
	resp, err := rpc.Invoke(ctx, c.ctrl, proto.DrainServer, proto.DrainServerReq{Addr: addr})
	return resp.Migrated, err
}

// SetQuota registers a resource quota on a prefix. The memory
// dimension bounds the prefix subtree's physical block footprint at
// allocation time; rate dimensions set on a job root are enforced by
// every memory server's admission gate, refusing over-quota traffic
// with ErrQuotaExceeded. A zero quota clears the registration.
func (c *Client) SetQuota(ctx context.Context, path core.Path, quota core.Quota) error {
	_, err := rpc.Invoke(ctx, c.ctrl, proto.SetQuota, proto.SetQuotaReq{Path: path, Quota: quota})
	return err
}

// ListPrefixes lists a job's address hierarchy.
func (c *Client) ListPrefixes(ctx context.Context, job core.JobID) ([]proto.PrefixInfo, error) {
	resp, err := rpc.Invoke(ctx, c.ctrl, proto.ListPrefixes, proto.ListPrefixesReq{Job: job})
	return resp.Prefixes, err
}

// open fetches the current partition map for a prefix. The response
// piggybacks the controller's probation set, keeping the client's
// hedge-target ranking aligned with the control plane's gray-failure
// judgment without extra round trips.
func (c *Client) open(ctx context.Context, path core.Path) (ds.PartitionMap, time.Duration, error) {
	resp, err := rpc.Invoke(ctx, c.ctrl, proto.Open, proto.OpenReq{Path: path})
	if err == nil {
		c.health.setProbation(resp.Probation)
	}
	return resp.Map, resp.LeaseDuration, err
}

// requestScale is the client-triggered fallback of the Fig. 8 protocol:
// when a write bounces off a full block before the server's proactive
// signal has landed, the client asks the controller to scale directly
// and receives the refreshed map in the response.
func (c *Client) requestScale(ctx context.Context, path core.Path, block core.BlockID) (ds.PartitionMap, error) {
	resp, err := rpc.Invoke(ctx, c.ctrl, proto.ScaleUp, proto.ScaleUpReq{Path: path, Block: block})
	return resp.Map, err
}

// OpenKV opens a handle to the KV store at path (initDataStructure).
func (c *Client) OpenKV(ctx context.Context, path core.Path) (*KV, error) {
	h, err := c.newHandle(ctx, path, core.DSKV)
	if err != nil {
		return nil, err
	}
	k := &KV{h: h}
	h.s = k
	return k, nil
}

// OpenFile opens a handle to the file at path.
func (c *Client) OpenFile(ctx context.Context, path core.Path) (*File, error) {
	h, err := c.newHandle(ctx, path, core.DSFile)
	if err != nil {
		return nil, err
	}
	f := &File{h: h}
	h.s = f
	return f, nil
}

// OpenQueue opens a handle to the FIFO queue at path.
func (c *Client) OpenQueue(ctx context.Context, path core.Path) (*Queue, error) {
	h, err := c.newHandle(ctx, path, core.DSQueue)
	if err != nil {
		return nil, err
	}
	q := &Queue{h: h}
	h.s = q
	return q, nil
}
