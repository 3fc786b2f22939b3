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
	"jiffy/internal/hierarchy"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
)

// Primary-backup replication of controller metadata (§4.2.1). Every
// durable metadata mutation — lease grants, chain commits, tier
// records, quota changes, membership events, repair commits — is a
// replOp that the active controller runs through its kind's apply
// (apply.go) and appends to a deterministic op-log streamed to the
// standbys, which run the same applies. An op is enqueued inside the
// critical section of its apply (so each key's log order is its apply
// order) but sent after the handler's dispatch completes, keeping RPCs
// out of every lock domain; the handler still waits for standby acks
// before answering the client, so an acknowledged control operation
// survives leader failure.
//
// A lease renewal is not in the log. A lease only promises that a
// prefix is not reclaimed before a time, and expiry flushes rather
// than drops, so a late expiry costs memory and only an early one is
// unsafe: the leader renews locally, a promoted or restored controller
// grants every lease a full term (rebuildAllocator), and expiry itself
// is a replicated node commit (reclaimLocked).
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
	_ // retired: RenewLease (renewals are leader-local, see rebuildAllocator)
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
	// Paths is retired with the RenewLease kind. It stays so the
	// entry's encoding, and with it codecVersion, does not change.
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

	// items is the in-flight flush's scratch, reused across flushes and
	// owned by whoever set sending.
	items []sendItem

	// box, buf and names are emit's scratch, owned under mu: an entry is
	// encoded from box into buf once, and the ring keeps an exact-size
	// copy; names holds a node upsert's parent names.
	box   replOp
	buf   []byte
	names []string
}

// replScratchMax caps the encode buffer emit keeps between entries: a
// rare large entry (a node with a long partition map) is encoded into
// a buffer of its own and dropped.
const replScratchMax = 64 << 10

// sendItem is one standby's share of a flush and its outcome. ops, the
// entries from first on, is a sub-slice of the ring: ring entries are
// never rewritten in place (emit only appends and trims the front, lead
// and stop drop the ring for a new one), so it stays valid after mu is
// released.
type sendItem struct {
	p     *standbyPeer
	first uint64
	ops   [][]byte
	acked uint64
	lost  bool
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
// locks held — it only assigns a sequence number and encodes; the
// network send happens in flush, after the caller's locks are gone.
func (r *replicator) emit(op replOp) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.box = op
	r.appendBoxLocked()
	r.mu.Unlock()
}

// emitNode appends a node upsert of n to the log, encoded from n itself
// under the shard lock the caller holds: the same bytes as an entry
// carrying imageOfNode(n), without the image's copies.
func (r *replicator) emitNode(job core.JobID, n *hierarchy.Node, now time.Time) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.box = replOp{Kind: opNodeUpsert, Job: job, Now: now, Node: viewOfNode(n, r.names[:0])}
	r.names = r.box.Node.Parents
	r.appendBoxLocked()
	r.mu.Unlock()
}

// appendBoxLocked encodes r.box into the scratch buffer, appends a copy
// to the ring and clears the box, so the scratch holds no reference
// into the hierarchy. Caller holds r.mu.
func (r *replicator) appendBoxLocked() {
	buf, err := codec.Append(r.buf[:0], &r.box)
	kind := r.box.Kind
	r.box = replOp{}
	clear(r.names)
	if cap(buf) <= replScratchMax {
		r.buf = buf
	} else {
		r.buf = nil
	}
	if err != nil {
		r.c.log.Error("controller: replication op encode failed", "kind", kind, "err", err)
		return
	}
	r.seq++
	if len(r.ring) == 0 {
		r.ringStart = r.seq
	}
	r.ring = append(r.ring, append(make([]byte, 0, len(buf)), buf...))
	if len(r.ring) > replRingMax {
		drop := len(r.ring) - replRingMax
		r.ring = r.ring[drop:]
		r.ringStart += uint64(drop)
	}
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
		items := r.items[:0]
		for _, p := range r.peers {
			if p.lost || p.acked >= r.seq {
				continue
			}
			if p.acked+1 < r.ringStart {
				// Fell off the replay window; the next pulse bootstraps.
				p.lost = true
				continue
			}
			lo, hi := p.acked+1-r.ringStart, r.seq+1-r.ringStart
			items = append(items, sendItem{p: p, first: p.acked + 1, ops: r.ring[lo:hi:hi]})
		}
		self := r.c.selfAddr()
		r.mu.Unlock()

		var deposed *core.NotLeaderError
		for i := range items {
			it := &items[i]
			resp, err := rpc.InvokeAt(context.Background(), r.c.ctrlPeers, it.p.addr, proto.CtrlReplicate,
				proto.CtrlReplicateReq{Gen: gen, Leader: self, FirstSeq: it.first, Ops: it.ops})
			if err != nil {
				var nl *core.NotLeaderError
				if errors.As(err, &nl) && nl.Gen > gen {
					deposed = nl
				}
				it.lost = true
				r.c.log.Warn("controller: replication stream to standby failed",
					"standby", it.p.addr, "err", err)
				continue
			}
			it.acked = resp.AckedSeq
		}

		r.mu.Lock()
		for _, it := range items {
			if it.lost {
				it.p.lost = true
			} else if it.acked > it.p.acked {
				it.p.acked = it.acked
			}
		}
		// Keep the scratch for the next flush, without the ring.
		clear(items)
		r.items = items
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
			// The decoder sets every field and never aliases raw, so
			// nothing of one entry is left in the box for the next, and
			// what an apply keeps (a node's map) is the entry's own.
			if err := codec.Unmarshal(raw, &c.applyBox); err != nil {
				c.applyBox = replOp{}
				return proto.CtrlReplicateResp{}, err
			}
			if err := c.apply(c.applyBox); err != nil {
				c.log.Warn("controller: replicated op not applied",
					"kind", c.applyBox.Kind, "job", c.applyBox.Job, "err", err)
			}
			applied = seq
		}
		c.applyBox = replOp{} // the box keeps nothing of the batch
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
