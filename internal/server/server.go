// Package server implements the Jiffy memory server (data plane,
// §4.2.2): it hosts fixed-size blocks in a blockstore, serves
// data-structure operations over the framed RPC protocol, pushes
// notifications to subscribers, signals the controller when blocks
// cross the repartitioning thresholds, carries out the controller's
// repartitioning (sequenced slot ownership changes, slot pulls from a
// peer), participates in chain replication, and flushes/loads blocks
// to/from the persistent tier.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jiffy/internal/blockstore"
	"jiffy/internal/clock"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/obs"
	"jiffy/internal/persist"
	"jiffy/internal/proto"
	"jiffy/internal/qos"
	"jiffy/internal/rpc"
	"jiffy/internal/wire"
)

// Options configures a memory server.
type Options struct {
	// Config supplies block size and thresholds.
	Config core.Config
	// ControllerAddrs lists the controller group members. The server
	// registers and heartbeats with whichever member currently leads,
	// re-homing automatically on NotLeader redirects or connection
	// failures. Empty disables signaling (unit tests drive scaling
	// manually).
	ControllerAddrs []string
	// NumBlocks is the capacity contribution announced at registration.
	NumBlocks int
	// Persist is the store used for block flush/load (defaults to an
	// in-memory store; production points at the shared external tier).
	Persist persist.Store
	// Logger receives operational logs.
	Logger *slog.Logger
	// Dial customizes outbound connections (controller, peer servers).
	Dial func(addr string) (*rpc.Client, error)
	// Clock paces the heartbeat loop (defaults to the wall clock; chaos
	// tests drive a virtual one and beat manually via HeartbeatNow).
	Clock clock.Clock
}

// Server is one memory server.
type Server struct {
	cfg     core.Config
	log     *slog.Logger
	persist persist.Store
	clk     clock.Clock

	store  *blockstore.Store
	rpcSrv *rpc.Server
	peers  *rpc.Pool
	// dial opens a session to a peer outside the pool: a fill's pull,
	// rare enough that a pooled session's buffers would sit idle for
	// good on a chain of 1, where no hop ever uses them.
	dial func(addr string) (*rpc.Client, error)
	gate *qos.Gate

	// table serves the control-plane methods (see buildTable).
	table rpc.Table

	addr      string
	ctrlAddrs []string
	// ctrl follows the controller group's leader for registration,
	// heartbeats, scale signals and reports.
	ctrl *rpc.Group
	// numBlocks is the registered capacity, kept for re-registration
	// when the controller reports it no longer knows this server.
	numBlocks atomic.Int64

	signals chan signal
	reports chan proto.ReportFailureReq
	stop    chan struct{}
	wg      sync.WaitGroup

	// slowMu guards the per-successor stall streak counters behind
	// fail-slow detection (SlowHopThreshold); see noteForwardLatency.
	slowMu      sync.Mutex
	slowStreaks map[string]int

	subs subRegistry

	// ops counts the data ops applied here (see apply): ServerStats.Ops
	// and jiffy_store_ops_total.
	ops atomic.Int64

	// telemetry: per-method inbound RPC stats, store gauges, and a
	// bounded ring of recent server-side spans, served via Obs()/Spans().
	reg    *obs.Registry
	rpcm   *obs.RPCMetrics
	tracer *obs.Tracer
	spans  *obs.RingExporter

	// tiering counters (see tiering.go)
	tierDemotions      *obs.Counter
	tierPromotions     *obs.Counter
	tierRehydrateBytes *obs.Counter

	// scale-signal outcomes (see onSignal, deliverSignal)
	signalsSent    obs.Counter
	signalsDropped obs.Counter
	// hopRefusals counts sequenced mutations a replica refused (see
	// sequence): each left a skip in its place.
	hopRefusals *obs.Counter
}

type signal struct {
	path  core.Path
	block core.BlockID
	over  bool
}

// New creates a memory server; call Listen then Register.
func New(opts Options) (*Server, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	if opts.Persist == nil {
		opts.Persist = persist.NewMemStore()
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	s := &Server{
		cfg:       opts.Config,
		log:       opts.Logger,
		persist:   opts.Persist,
		clk:       opts.Clock,
		dial:      rpc.WithTimeout(opts.Dial, opts.Config.RPCTimeout),
		ctrlAddrs: opts.ControllerAddrs,
		signals:   make(chan signal, 1024),
		reports:   make(chan proto.ReportFailureReq, 64),
		stop:      make(chan struct{}),
	}
	// One pass over the group plus slack for a hint follow, no wait between
	// members: every caller is a background worker with its own retry
	// cadence, so a failed pass just surfaces the last error to it.
	s.peers = rpc.NewPool(s.dial)
	s.ctrl = rpc.NewGroup(s.peers, s.ctrlAddrs, len(s.ctrlAddrs)+2, nil)
	s.buildTable()
	s.store = blockstore.NewStore(opts.Config.HighThreshold, opts.Config.LowThreshold, s.onSignal)
	s.gate = qos.NewGate(qos.Options{
		Clock:       opts.Clock,
		Concurrency: opts.Config.QoSConcurrency,
	})
	s.subs.init()
	s.reg = obs.NewRegistry()
	s.rpcm = obs.NewRPCMetrics("server")
	s.rpcm.Register(s.reg, proto.MethodName)
	s.spans = obs.NewRingExporter(512)
	s.tracer = obs.NewTracer(s.spans, opts.Logger)
	s.store.Instrument(s.reg)
	s.store.SetHeatNow(s.clk.Now().UnixNano())
	s.tierDemotions = s.reg.Counter("jiffy_tier_demotions_total",
		"blocks demoted to the persist tier")
	s.tierPromotions = s.reg.Counter("jiffy_tier_promotions_total",
		"blocks rehydrated from the persist tier")
	s.tierRehydrateBytes = s.reg.Counter("jiffy_tier_rehydrate_bytes_total",
		"snapshot bytes restored by rehydrations")
	s.reg.GaugeFunc("jiffy_blocks_tiered", "blocks currently demoted to the persist tier",
		func() int64 { return int64(s.store.TieredBlocks()) })
	s.reg.GaugeFunc("jiffy_store_resident_bytes", "payload bytes resident in memory (tiered blocks excluded)",
		s.store.ResidentBytes)
	s.reg.GaugeFunc("jiffy_server_subscriptions", "live notification subscriptions",
		func() int64 { return s.subs.count() })
	s.reg.GaugeFunc("jiffy_store_ops_total", "data-plane operations applied", s.ops.Load)
	s.reg.RegisterCollector(func(w io.Writer) {
		const name = "jiffy_server_scale_signals_total"
		obs.WriteHeader(w, name, "threshold-crossing signals by outcome: sent to the controller, or dropped on a full signal queue", "counter")
		obs.WriteSample(w, name, `{result="sent"}`, s.signalsSent.Value())
		obs.WriteSample(w, name, `{result="dropped"}`, s.signalsDropped.Value())
	})
	s.hopRefusals = s.reg.Counter("jiffy_server_hop_refusals_total",
		"sequenced mutations refused as a chain replica, each forwarded on as a skip")
	s.reg.RegisterCollector(func(w io.Writer) {
		stats := s.gate.Stats()
		if len(stats) == 0 {
			return
		}
		sort.Slice(stats, func(i, j int) bool { return stats[i].Tenant < stats[j].Tenant })
		families := []struct {
			name, help string
			v          func(qos.TenantStats) int64
		}{
			{"jiffy_tenant_admitted_total", "data-plane ops admitted per tenant",
				func(st qos.TenantStats) int64 { return st.Admitted }},
			{"jiffy_tenant_throttled_total", "data-plane ops refused by admission control per tenant",
				func(st qos.TenantStats) int64 { return st.Throttled }},
			{"jiffy_tenant_bytes_total", "ingress bytes admitted per tenant",
				func(st qos.TenantStats) int64 { return st.AdmittedBytes }},
		}
		for _, f := range families {
			obs.WriteHeader(w, f.name, f.help, "counter")
			for _, st := range stats {
				obs.WriteSample(w, f.name, fmt.Sprintf("{tenant=%q}", st.Tenant), f.v(st))
			}
		}
	})
	s.rpcSrv = rpc.NewServer(s.handle, opts.Logger)
	// Small single data ops run directly on the connection read pump;
	// runOp punts anything that would block back to the goroutine path.
	s.rpcSrv.SetInlineHandler(func(ctx context.Context, _ *rpc.ServerConn, _ uint16, payload []byte) (rpc.Response, error) {
		return s.runOp(ctx, payload, true)
	}, func(method uint16, payloadLen int) bool {
		return method == proto.MethodDataOp && payloadLen <= wire.InlineFrameThreshold
	})
	s.rpcSrv.SetObserver(s.rpcm, s.tracer)
	s.rpcSrv.OnDisconnect = func(conn *rpc.ServerConn) { s.subs.dropConn(conn) }
	s.wg.Add(1)
	go s.signalWorker()
	s.wg.Add(1)
	go s.reportWorker()
	if opts.Config.HeartbeatInterval > 0 && len(s.ctrlAddrs) > 0 {
		s.wg.Add(1)
		go s.heartbeatWorker()
	}
	// The tiering worker follows the heartbeat idiom: TierScanPeriod=0
	// disables the background loop and tests step scans deterministically
	// via TierTickNow.
	if s.tieringConfigured() && opts.Config.TierScanPeriod > 0 {
		s.wg.Add(1)
		go s.tierWorker()
	}
	return s, nil
}

// Listen binds the data-plane endpoint and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	bound, err := s.rpcSrv.Listen(addr)
	if err != nil {
		return "", err
	}
	s.addr = bound
	return bound, nil
}

// Addr returns the bound data-plane address.
func (s *Server) Addr() string { return s.addr }

// Register announces this server's capacity to the controller.
func (s *Server) Register(numBlocks int) error {
	s.numBlocks.Store(int64(numBlocks))
	_, err := rpc.Invoke(context.Background(), s.ctrl, proto.RegisterServer,
		proto.RegisterServerReq{Addr: s.addr, NumBlocks: numBlocks})
	return err
}

// heartbeatWorker paces periodic liveness beats to the controller.
func (s *Server) heartbeatWorker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.clk.After(s.cfg.HeartbeatInterval):
			if err := s.HeartbeatNow(); err != nil {
				s.log.Debug("server: heartbeat failed", "err", err)
			}
		}
	}
}

// HeartbeatNow sends one liveness beat synchronously. If the
// controller no longer knows this server (it was declared dead, or the
// controller restarted), the server re-registers its capacity under a
// fresh registration mark; any blocks it hosted under the old
// registration have already been repaired away or marked lost.
// Deterministic tests call this directly instead of advancing the
// heartbeat clock.
func (s *Server) HeartbeatNow() error {
	if len(s.ctrlAddrs) == 0 || s.addr == "" {
		return nil
	}
	_, err := rpc.Invoke(context.Background(), s.ctrl, proto.Heartbeat, proto.HeartbeatReq{Addr: s.addr})
	if errors.Is(err, core.ErrNotFound) {
		if n := s.numBlocks.Load(); n > 0 {
			s.log.Info("server: controller lost track of us; re-registering",
				"addr", s.addr, "blocks", n)
			return s.Register(int(n))
		}
	}
	return err
}

// reportHop enqueues write-path evidence that a chain hop's server is
// unreachable or, degraded, persistently slow; a full queue drops the
// report (missed heartbeats, or the next slow streak, catch it anyway).
func (s *Server) reportHop(hop core.BlockInfo, degraded bool) {
	if len(s.ctrlAddrs) == 0 {
		return
	}
	select {
	case s.reports <- proto.ReportFailureReq{Reporter: s.addr, Server: hop.Server, Block: hop.ID, Degraded: degraded}:
	default:
	}
}

// noteForwardLatency feeds one successful replication forward's round
// trip into fail-slow detection: a successor that stalls past
// SlowHopThreshold on core.DefaultSlowHopStreak consecutive forwards is
// reported to the controller as Degraded evidence — reachable, applying, but
// persistently slow (a gray failure heartbeats will never catch,
// because the server still beats on time). A single fast forward
// clears the streak, so transient hiccups never escalate.
func (s *Server) noteForwardLatency(hop core.BlockInfo, d time.Duration) {
	threshold := s.cfg.SlowHopThreshold
	if threshold <= 0 || len(s.ctrlAddrs) == 0 {
		return
	}
	s.slowMu.Lock()
	if d <= threshold {
		if s.slowStreaks[hop.Server] != 0 {
			delete(s.slowStreaks, hop.Server)
		}
		s.slowMu.Unlock()
		return
	}
	if s.slowStreaks == nil {
		s.slowStreaks = make(map[string]int)
	}
	s.slowStreaks[hop.Server]++
	fire := s.slowStreaks[hop.Server] >= core.DefaultSlowHopStreak
	if fire {
		delete(s.slowStreaks, hop.Server) // re-arm: re-report only after a fresh streak
	}
	s.slowMu.Unlock()
	if !fire {
		return
	}
	s.log.Warn("server: chain successor persistently slow; reporting degraded",
		"successor", hop.Server, "latency", d, "threshold", threshold)
	s.reportHop(hop, true)
}

// reportWorker forwards failed-hop reports to the controller
// asynchronously, so the write path never waits on the control plane.
func (s *Server) reportWorker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case rep := <-s.reports:
			if _, err := rpc.Invoke(context.Background(), s.ctrl, proto.ReportFailure, rep); err != nil {
				s.log.Debug("server: failure report rejected", "server", rep.Server, "err", err)
			}
		}
	}
}

// Close stops the server. It wakes what waits inside the op path
// first — a hop parked for a seq that never arrives, an append waiting
// for its chunk's growth — so no handler holds up the shutdown.
func (s *Server) Close() error {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.store.Halt()
	s.wg.Wait()
	s.rpcSrv.Close()
	s.peers.Close()
	return nil
}

// onSignal enqueues a threshold crossing for the signal worker. A full
// queue drops the signal and clears the block's de-duplication latch
// with it: nobody will answer a dropped signal, so the block must be
// free to signal again on its next mutation past the threshold.
func (s *Server) onSignal(path core.Path, block core.BlockID, over bool) {
	select {
	case s.signals <- signal{path: path, block: block, over: over}:
	default:
		s.store.ResetSignal(block)
		s.signalsDropped.Inc()
		s.log.Debug("server: signal queue full; dropping", "block", block)
	}
}

// signalWorker forwards threshold crossings to the controller (Fig. 8
// step 1) asynchronously, so data-path operations never wait on the
// control plane.
func (s *Server) signalWorker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case sig := <-s.signals:
			s.deliverSignal(sig)
		}
	}
}

// deliverSignal sends one scale signal and re-arms the block only when
// the call failed. An answered signal — grown, "already grown", or
// refused because the structure is at its bound — leaves the latch set
// until usage leaves the threshold band (checkThresholds' default arm):
// a full file chunk that is overwritten in place, or a KV shard still
// above the threshold after its split, would otherwise send a stale
// signal with every mutation. An answered over-signal links a file
// chunk to its successor (link) before the appends waiting on its
// growth are woken, so they are redirected there. The cases where an
// answered signal links nothing — it failed, was dropped, or was
// refused at the bound, and growth becomes possible later (a drain) —
// are re-triggered by the client: a writer that meets the full block
// calls ScaleUp itself (see client requestScale).
func (s *Server) deliverSignal(sig signal) {
	b, berr := s.store.Get(sig.block) // gone when the block was deleted meanwhile
	if berr == nil && sig.over {
		defer b.EndGrowth()
	}
	if len(s.ctrlAddrs) == 0 {
		return
	}
	var err error
	if sig.over {
		var resp proto.ScaleUpResp
		resp, err = rpc.Invoke(context.Background(), s.ctrl, proto.ScaleUp,
			proto.ScaleUpReq{Path: sig.path, Block: sig.block})
		if err == nil && berr == nil {
			link(b, resp.Map)
		}
	} else {
		_, err = rpc.Invoke(context.Background(), s.ctrl, proto.ScaleDown,
			proto.ScaleDownReq{Path: sig.path, Block: sig.block})
	}
	s.signalsSent.Inc()
	if err != nil {
		s.log.Debug("server: scale signal failed", "block", sig.block, "err", err)
		// The block may have been deleted meanwhile; ResetSignal
		// tolerates that.
		s.store.ResetSignal(sig.block)
	}
}

// link hands a file chunk whose over-signal was answered its
// successor: the entry for the next chunk in the map the controller
// answered with, there when the signal grew the file or a writer grew
// it first. Only the head signals, so only a head is linked. The link
// lives in the chunk's memory alone: a head rebuilt without it sends
// its appenders down the client's rare path (requestScale) instead.
func link(b *blockstore.Block, m ds.PartitionMap) {
	f, ok := b.Partition.(*ds.File)
	if !ok || m.Type != core.DSFile {
		return
	}
	if next, ok := m.BlockForChunk(b.Chunk + 1); ok {
		f.SetNext(next.Info)
	}
}

// Ops returns the data ops applied here: ServerStats.Ops.
func (s *Server) Ops() int64 { return s.ops.Load() }

// Store exposes the blockstore for tests and the experiment harness.
func (s *Server) Store() *blockstore.Store { return s.store }

// Gate exposes the admission controller for tests and the soak harness.
func (s *Server) Gate() *qos.Gate { return s.gate }

// Obs exposes the server's metric registry for the admin endpoint.
func (s *Server) Obs() *obs.Registry { return s.reg }

// Spans exposes the bounded ring of recent server-side RPC spans.
func (s *Server) Spans() *obs.RingExporter { return s.spans }
