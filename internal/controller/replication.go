package controller

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
)

// Primary-backup replication of controller metadata (§4.2.1). Every
// durable metadata mutation — lease grants and renewals, chain commits,
// tier records, quota changes, membership events, repair commits — is a
// replOp that the active controller runs through its kind's apply
// (apply.go) and appends to a deterministic op-log streamed to the
// standbys, which run the same applies. An op is enqueued inside the
// critical section of its apply (so each key's log order is its apply
// order) but sent after the handler's dispatch completes, keeping RPCs
// out of every lock domain; the handler still waits for standby acks
// before answering the client, so an acknowledged control operation
// survives leader failure.
//
// Standbys mirror the hierarchies, tier table, tenant quotas, and
// membership, but not the allocator's free counts: they track only
// each server's block count and registration mark, and a promoting
// standby rebuilds each free count as "contributed minus in use" from
// its replicated partition maps (see leadership.go). That removes any
// cross-shard ordering requirement between allocate and free ops. The
// ID counter needs no op either: every applied node image raises the
// member's high-water mark past the IDs it holds (apply.go).
//
// A standby that misses the bounded replay window (or joins late, or
// was a deposed leader with a diverged log) is re-bootstrapped with a
// full snapshot on the leader's next pulse. The snapshot is fuzzy —
// the leader does not quiesce — which is safe because the snapshot's
// Seq is read before state capture and every op is idempotent, so
// replaying ops that the snapshot already reflects is harmless.

// opKind enumerates the replicated metadata operations.
type opKind uint8

const (
	opNop opKind = iota
	opRegisterJob
	opDeregisterJob
	opNodeUpsert
	opRemoveNode
	opRenewLease
	opServerRegister
	opServerDead
	opTier
	opServerProbation
)

// replOp is one op-log entry. The struct is flat: every kind shares
// it, and a field a kind does not use travels as its zero value (one
// byte for most fields, see internal/codec).
type replOp struct {
	Kind opKind
	Job  core.JobID
	// RegisterJob
	Lease time.Duration
	Now   time.Time
	// NodeUpsert
	Node nodeImage
	// RemoveNode
	Name string
	// RenewLease
	Paths []core.Path
	// ServerRegister / ServerDead / ServerProbation; FirstID is the
	// registration mark (see contribRange).
	Addr      string
	NumBlocks int
	FirstID   core.BlockID
	// ServerProbation: true places Addr on probation, false lifts it.
	On bool
	// Tier
	Tier proto.ReportTierReq
}

// contribRange records one server's registration: First is its
// registration mark (the ID counter when it registered; every block
// placed on this registration has an ID at or above it, every lower ID
// belongs to an earlier one) and N its block count.
type contribRange struct {
	First core.BlockID
	N     int
}

// groupImage is the full-state image: what a lost standby is
// bootstrapped from and what SaveState checkpoints (snapshot.go).
type groupImage struct {
	Gen     uint64
	Seq     uint64
	Epoch   uint64
	NextID  core.BlockID
	Jobs    []jobImage
	Contrib []contribImage
	Dead    []string
	// Probation lists servers on gray-failure probation; a promoting
	// standby re-suspends them in its rebuilt allocator.
	Probation []string
	Tenants   map[string]core.Quota
	Tiers     []tierImage
}

type contribImage struct {
	Addr  string
	First core.BlockID
	N     int
}

type tierImage struct {
	Info core.BlockInfo
	Path core.Path
	Key  string
	Gen  uint64
}

// replRingMax bounds the replay ring. A standby whose ack position
// falls off the ring is re-bootstrapped instead of streamed to.
const replRingMax = 4096

// replicator owns the leader-side op-log stream.
type replicator struct {
	c *Controller
	// on is the fast-path emit gate: true only while this controller
	// leads a group with at least one standby.
	on atomic.Bool

	mu        sync.Mutex
	cond      *sync.Cond
	gen       uint64
	seq       uint64   // last assigned sequence number
	ringStart uint64   // sequence number of ring[0]
	ring      [][]byte // encoded ops, ring[i] has seq ringStart+i
	peers     []*standbyPeer
	sending   bool
}

type standbyPeer struct {
	addr  string
	acked uint64
	lost  bool // needs a bootstrap before streaming can resume
}

func newReplicator(c *Controller) *replicator {
	r := &replicator{c: c}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// lead switches the replicator into leader mode at gen. Every standby
// starts lost: sequence numbers from different leaders don't align, so
// the first pulse bootstraps each standby to this leader's stream.
func (r *replicator) lead(gen, seq uint64, peers []string) {
	r.mu.Lock()
	r.gen = gen
	r.seq = seq
	r.ringStart = seq + 1
	r.ring = nil
	r.peers = nil
	for _, addr := range peers {
		r.peers = append(r.peers, &standbyPeer{addr: addr, lost: true})
	}
	r.mu.Unlock()
	r.on.Store(len(peers) > 0)
}

// stop turns the replicator off (demotion or close).
func (r *replicator) stop() {
	r.on.Store(false)
	r.mu.Lock()
	r.peers = nil
	r.ring = nil
	r.mu.Unlock()
}

// emit appends one op to the log. Called with shard (or other state)
// locks held — it only assigns a sequence number and buffers; the
// network send happens in flush, after the caller's locks are gone.
func (r *replicator) emit(op replOp) {
	if !r.on.Load() {
		return
	}
	data, err := codec.Marshal(op)
	if err != nil {
		r.c.log.Error("controller: replication op encode failed", "kind", op.Kind, "err", err)
		return
	}
	r.mu.Lock()
	r.seq++
	if len(r.ring) == 0 {
		r.ringStart = r.seq
	}
	r.ring = append(r.ring, data)
	if len(r.ring) > replRingMax {
		drop := len(r.ring) - replRingMax
		r.ring = r.ring[drop:]
		r.ringStart += uint64(drop)
	}
	r.mu.Unlock()
}

// flush streams every pending op to the standbys and returns once all
// live standbys have acked the log through the caller's enqueue point
// (or fallen lost). Concurrent flushes coordinate through a single
// in-flight sender. Returns a *core.NotLeaderError when a standby
// reports a higher generation — the caller was deposed mid-operation
// and must surface the redirect instead of acking the client.
func (r *replicator) flush() error {
	if !r.on.Load() {
		return nil
	}
	r.mu.Lock()
	target := r.seq
	for {
		pending := false
		for _, p := range r.peers {
			if !p.lost && p.acked < target {
				pending = true
				break
			}
		}
		if !pending {
			r.mu.Unlock()
			return nil
		}
		if r.sending {
			r.cond.Wait()
			continue
		}
		r.sending = true
		gen := r.gen
		type sendItem struct {
			p     *standbyPeer
			first uint64
			ops   [][]byte
		}
		var items []sendItem
		for _, p := range r.peers {
			if p.lost || p.acked >= r.seq {
				continue
			}
			if p.acked+1 < r.ringStart {
				// Fell off the replay window; the next pulse bootstraps.
				p.lost = true
				continue
			}
			ops := make([][]byte, 0, r.seq-p.acked)
			for s := p.acked + 1; s <= r.seq; s++ {
				ops = append(ops, r.ring[s-r.ringStart])
			}
			items = append(items, sendItem{p: p, first: p.acked + 1, ops: ops})
		}
		self := r.c.selfAddr()
		r.mu.Unlock()

		var deposed *core.NotLeaderError
		acks := make([]uint64, len(items))
		lost := make([]bool, len(items))
		for i, it := range items {
			resp, err := rpc.InvokeAt(context.Background(), r.c.ctrlPeers, it.p.addr, proto.CtrlReplicate,
				proto.CtrlReplicateReq{Gen: gen, Leader: self, FirstSeq: it.first, Ops: it.ops})
			if err != nil {
				var nl *core.NotLeaderError
				if errors.As(err, &nl) && nl.Gen > gen {
					deposed = nl
				}
				lost[i] = true
				r.c.log.Warn("controller: replication stream to standby failed",
					"standby", it.p.addr, "err", err)
				continue
			}
			acks[i] = resp.AckedSeq
		}

		r.mu.Lock()
		for i, it := range items {
			if lost[i] {
				it.p.lost = true
			} else if acks[i] > it.p.acked {
				it.p.acked = acks[i]
			}
		}
		r.sending = false
		r.cond.Broadcast()
		if deposed != nil {
			r.mu.Unlock()
			r.c.stepDown(deposed)
			return deposed
		}
	}
}

// lag returns the op-log distance between the leader's head and the
// slowest live standby (the jiffy_ctrl_replication_lag_ops gauge). A
// lost standby does not count — its lag is unbounded until bootstrap.
func (r *replicator) lag() int64 {
	if !r.on.Load() {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var worst int64
	for _, p := range r.peers {
		if p.lost {
			continue
		}
		if d := int64(r.seq - p.acked); d > worst {
			worst = d
		}
	}
	return worst
}

// pulseNow is the leader's heartbeat: flush any backlog, re-bootstrap
// lost standbys, and send an empty replicate batch so idle standbys
// keep observing leader liveness.
func (r *replicator) pulseNow() {
	if !r.on.Load() {
		return
	}
	if err := r.flush(); err != nil {
		return // deposed
	}
	r.mu.Lock()
	gen := r.gen
	var lostPeers, livePeers []*standbyPeer
	for _, p := range r.peers {
		if p.lost {
			lostPeers = append(lostPeers, p)
		} else {
			livePeers = append(livePeers, p)
		}
	}
	self := r.c.selfAddr()
	r.mu.Unlock()

	for _, p := range lostPeers {
		img := r.c.buildImage()
		data, err := codec.Marshal(img)
		if err != nil {
			r.c.log.Error("controller: bootstrap image encode failed", "err", err)
			break
		}
		_, err = rpc.InvokeAt(context.Background(), r.c.ctrlPeers, p.addr, proto.CtrlBootstrap,
			proto.CtrlBootstrapReq{Gen: gen, Leader: self, Image: data})
		if err != nil {
			var nl *core.NotLeaderError
			if errors.As(err, &nl) && nl.Gen > gen {
				r.c.stepDown(nl)
				return
			}
			r.c.log.Warn("controller: standby bootstrap failed", "standby", p.addr, "err", err)
			continue
		}
		r.mu.Lock()
		p.acked = img.Seq
		p.lost = false
		r.mu.Unlock()
		r.c.log.Info("controller: standby bootstrapped",
			"standby", p.addr, "seq", img.Seq, "gen", gen)
	}

	for _, p := range livePeers {
		_, err := rpc.InvokeAt(context.Background(), r.c.ctrlPeers, p.addr, proto.CtrlReplicate,
			proto.CtrlReplicateReq{Gen: gen, Leader: self})
		if err != nil {
			var nl *core.NotLeaderError
			if errors.As(err, &nl) && nl.Gen > gen {
				r.c.stepDown(nl)
				return
			}
			r.mu.Lock()
			p.lost = true
			r.mu.Unlock()
		}
	}
	// Catch ops raced in while bootstrapping.
	_ = r.flush()
}

// --- Leader-side image build -------------------------------------------

// buildImage captures a fuzzy full-state snapshot. Seq
// is read before any state, so ops enqueued during the capture replay
// over the snapshot on the standby — idempotently.
func (c *Controller) buildImage() groupImage {
	img := groupImage{Tenants: make(map[string]core.Quota)}

	c.repl.mu.Lock()
	img.Gen = c.repl.gen
	img.Seq = c.repl.seq
	c.repl.mu.Unlock()

	c.group.mu.Lock()
	img.NextID = c.group.nextID
	for addr, r := range c.group.contrib {
		img.Contrib = append(img.Contrib, contribImage{Addr: addr, First: r.First, N: r.N})
	}
	c.group.mu.Unlock()
	sort.Slice(img.Contrib, func(i, j int) bool { return img.Contrib[i].Addr < img.Contrib[j].Addr })

	img.Epoch = c.memberEpoch.Load()

	c.hbMu.Lock()
	for addr := range c.deadServers {
		img.Dead = append(img.Dead, addr)
	}
	for addr := range c.probation {
		img.Probation = append(img.Probation, addr)
	}
	c.hbMu.Unlock()
	sort.Strings(img.Dead)
	sort.Strings(img.Probation)

	c.qMu.Lock()
	for t, q := range c.tenantQuotas {
		img.Tenants[t] = q
	}
	c.qMu.Unlock()

	c.tiers.mu.Lock()
	for info, rec := range c.tiers.records {
		img.Tiers = append(img.Tiers, tierImage{Info: info, Path: rec.Path, Key: rec.Key, Gen: rec.Gen})
	}
	c.tiers.mu.Unlock()

	for _, sh := range c.shards {
		sh.mu.Lock()
		jobs := make([]core.JobID, 0, len(sh.jobs))
		for j := range sh.jobs {
			jobs = append(jobs, j)
		}
		sort.Slice(jobs, func(i, j int) bool { return jobs[i] < jobs[j] })
		for _, j := range jobs {
			img.Jobs = append(img.Jobs, dumpJob(j, sh.jobs[j]))
		}
		sh.mu.Unlock()
	}
	return img
}

// --- Replication RPC handlers ------------------------------------------

// handleReplicate applies one streamed batch (or heartbeat) from the
// active controller.
func (c *Controller) handleReplicate(req proto.CtrlReplicateReq) (proto.CtrlReplicateResp, error) {
	if err := c.observeLeader(req.Gen, req.Leader); err != nil {
		return proto.CtrlReplicateResp{}, err
	}
	c.applyMu.Lock()
	defer c.applyMu.Unlock()
	c.group.mu.Lock()
	applied := c.group.appliedSeq
	c.group.mu.Unlock()
	if len(req.Ops) > 0 {
		if req.FirstSeq > applied+1 {
			return proto.CtrlReplicateResp{}, fmt.Errorf(
				"controller: replication gap: have %d, batch starts %d: %w",
				applied, req.FirstSeq, core.ErrStaleEpoch)
		}
		for i, raw := range req.Ops {
			seq := req.FirstSeq + uint64(i)
			if seq <= applied {
				continue
			}
			var op replOp
			if err := codec.Unmarshal(raw, &op); err != nil {
				return proto.CtrlReplicateResp{}, err
			}
			if err := c.apply(op); err != nil {
				c.log.Warn("controller: replicated op not applied", "kind", op.Kind, "job", op.Job, "err", err)
			}
			applied = seq
		}
		c.group.mu.Lock()
		if applied > c.group.appliedSeq {
			c.group.appliedSeq = applied
		}
		c.group.mu.Unlock()
	}
	return proto.CtrlReplicateResp{AckedSeq: applied}, nil
}

// handleBootstrap installs a full snapshot from the active controller.
func (c *Controller) handleBootstrap(req proto.CtrlBootstrapReq) (proto.CtrlBootstrapResp, error) {
	if err := c.observeLeader(req.Gen, req.Leader); err != nil {
		return proto.CtrlBootstrapResp{}, err
	}
	var img groupImage
	if err := codec.Unmarshal(req.Image, &img); err != nil {
		return proto.CtrlBootstrapResp{}, err
	}
	if err := c.applyImage(img); err != nil {
		return proto.CtrlBootstrapResp{}, err
	}
	c.log.Info("controller: bootstrapped from leader",
		"leader", req.Leader, "gen", req.Gen, "seq", img.Seq)
	return proto.CtrlBootstrapResp{}, nil
}
