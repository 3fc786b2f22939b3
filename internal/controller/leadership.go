package controller

import (
	"sort"
	"sync"
	"time"

	"jiffy/internal/alloc"
	"jiffy/internal/core"
	"jiffy/internal/hierarchy"
	"jiffy/internal/proto"
)

// Leadership (§4.2 fault tolerance, control plane). Controllers form a
// replicated group: one active leader serves every client and server
// RPC, the standbys apply its op-log stream (replication.go) and
// answer everything else with a typed NotLeader redirect. Leadership
// is fenced by a monotonically increasing generation: each promotion
// increments it, every replication message carries it, and a deposed
// leader demotes itself the moment a standby answers with a higher
// generation than its own — so two controllers can never both have
// their writes acknowledged by the same standby set.
//
// Failover detection rides the existing heartbeat/clock machinery:
// the leader's stream (op batches and idle pulses) doubles as its
// heartbeat, and a standby promotes itself once the leader has been
// silent for the suspicion window, scaled by the standby's rank so the
// lowest-indexed standby wins without an election protocol.
//
// Documented limitations (see DESIGN.md §14): the group has no quorum
// — failover is failure-detection-based, so a partition that splits
// leader from standbys can lose acks the leader granted while cut off;
// and a leader crash mid-chain-splice can orphan replacement blocks
// that were created but never committed (they are reclaimed when their
// server re-registers).

// groupState is the controller's view of its replicated group.
type groupState struct {
	mu sync.Mutex
	// peers lists every group member's address, index-aligned across
	// all members; empty means solo (no replication, always leader).
	peers []string
	self  int
	// leaderAddr is who this controller believes leads; gen the
	// leadership generation it has observed.
	leaderAddr string
	gen        uint64
	// appliedSeq is the standby-side op-log position.
	appliedSeq uint64
	// lastLeaderContact is the last time the leader's stream reached
	// this standby (measured on the controller's clock).
	lastLeaderContact time.Time
	// contrib tracks each server's contributed block range; the
	// promotion-time allocator rebuild derives free lists from it.
	contrib map[string]contribRange
	nextID  core.BlockID
}

// ConfigureGroup joins this controller to a replicated group. peers
// lists every member's control address (identical order on every
// member), self is this controller's index, and leader the initial
// leader's index. Standbys must be configured (and listening) before
// the leader, so its first pulse can bootstrap them. Safe to call once,
// after Listen.
func (c *Controller) ConfigureGroup(peers []string, self, leader int) {
	if len(peers) < 2 || self < 0 || self >= len(peers) || leader < 0 || leader >= len(peers) {
		return
	}
	c.group.mu.Lock()
	c.group.peers = append([]string(nil), peers...)
	c.group.self = self
	c.group.leaderAddr = peers[leader]
	c.group.lastLeaderContact = c.clk.Now()
	c.group.mu.Unlock()

	if self == leader {
		c.group.mu.Lock()
		c.group.gen = 1
		seq := c.group.appliedSeq
		c.group.mu.Unlock()
		others := otherPeers(peers, self)
		c.repl.lead(1, seq, others)
		c.leading.Store(true)
		c.repl.pulseNow()
	} else {
		c.leading.Store(false)
	}

	if !c.bgDisabled && c.cfg.HeartbeatInterval > 0 {
		c.wg.Add(1)
		go c.groupWorker()
	}
	c.log.Info("controller: joined replicated group",
		"self", peers[self], "leader", peers[leader], "members", len(peers))
}

func otherPeers(peers []string, self int) []string {
	out := make([]string, 0, len(peers)-1)
	for i, p := range peers {
		if i != self {
			out = append(out, p)
		}
	}
	return out
}

// groupWorker paces the group protocol on the controller's clock: the
// leader pulses its stream (heartbeat + lost-standby bootstrap), a
// standby checks whether the leader has gone silent.
func (c *Controller) groupWorker() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case <-c.clk.After(c.cfg.HeartbeatInterval):
			if c.leading.Load() {
				c.repl.pulseNow()
			} else {
				c.CheckLeaderNow()
			}
		}
	}
}

// isLeader reports whether this controller currently serves clients.
func (c *Controller) isLeader() bool { return c.leading.Load() }

// notLeaderErr builds the redirect for a request that reached a
// standby.
func (c *Controller) notLeaderErr() *core.NotLeaderError {
	c.group.mu.Lock()
	defer c.group.mu.Unlock()
	return &core.NotLeaderError{Leader: c.group.leaderAddr, Gen: c.group.gen}
}

// selfAddr returns this controller's own group address (its bound
// listen address when solo).
func (c *Controller) selfAddr() string {
	c.group.mu.Lock()
	defer c.group.mu.Unlock()
	if len(c.group.peers) > 0 {
		return c.group.peers[c.group.self]
	}
	return c.boundAddr
}

// observeLeader fences an inbound replication message: reject lower
// generations with a redirect, adopt higher ones (demoting ourselves
// if we were leading — the sender out-promoted us). On adoption the
// standby's op-log position resets: sequence numbers from different
// leaders don't align, so the new leader must bootstrap us before
// streaming (it always does — see replicator.lead).
func (c *Controller) observeLeader(gen uint64, leader string) error {
	c.group.mu.Lock()
	switch {
	case gen < c.group.gen:
		nl := &core.NotLeaderError{Leader: c.group.leaderAddr, Gen: c.group.gen}
		c.group.mu.Unlock()
		return nl
	case gen > c.group.gen:
		wasLeading := c.leading.Load()
		c.group.gen = gen
		c.group.leaderAddr = leader
		c.group.appliedSeq = 0
		c.group.lastLeaderContact = c.clk.Now()
		c.group.mu.Unlock()
		if wasLeading {
			c.leading.Store(false)
			c.repl.stop()
			c.log.Warn("controller: deposed by higher generation", "leader", leader, "gen", gen)
		}
		return nil
	default:
		c.group.lastLeaderContact = c.clk.Now()
		c.group.mu.Unlock()
		return nil
	}
}

// stepDown demotes a leader that learned of a higher generation from a
// standby's redirect. Redirects at or below our own generation are
// stale (e.g. delayed from before our promotion) and ignored — the
// same fence observeLeader applies to inbound streams.
func (c *Controller) stepDown(nl *core.NotLeaderError) {
	c.group.mu.Lock()
	if nl.Gen <= c.group.gen {
		c.group.mu.Unlock()
		return
	}
	c.group.gen = nl.Gen
	c.group.leaderAddr = nl.Leader
	c.group.appliedSeq = 0
	c.group.lastLeaderContact = c.clk.Now()
	c.group.mu.Unlock()
	c.leading.Store(false)
	c.repl.stop()
	c.log.Warn("controller: stepping down", "leader", nl.Leader, "gen", nl.Gen)
}

// CheckLeaderNow runs one standby-side failover check synchronously:
// promote if the leader's stream has been silent longer than the
// suspicion window scaled by this standby's rank (so the
// lowest-indexed live standby takes over first, and a slower one only
// if that in turn goes silent). Deterministic tests call this under a
// virtual clock. Returns true when this call promoted.
func (c *Controller) CheckLeaderNow() bool {
	if c.leading.Load() || c.cfg.SuspicionWindow <= 0 {
		return false
	}
	c.group.mu.Lock()
	if len(c.group.peers) == 0 {
		c.group.mu.Unlock()
		return false
	}
	rank := 0
	for i := range c.group.peers {
		if i == c.group.self {
			break
		}
		if c.group.peers[i] != c.group.leaderAddr {
			rank++
		}
	}
	silent := c.clk.Now().Sub(c.group.lastLeaderContact)
	window := c.cfg.SuspicionWindow * time.Duration(rank+1)
	c.group.mu.Unlock()
	if silent <= window {
		return false
	}
	c.log.Warn("controller: leader silent beyond suspicion window; promoting",
		"silent", silent, "window", window)
	c.PromoteNow()
	return true
}

// PromoteNow makes this controller the group leader under a fresh,
// fenced generation. It rebuilds the allocator's free lists from the
// replicated metadata, advances the membership epoch (so post-failover
// chain repairs commit under a generation no pre-failover write can
// race), grants the servers a heartbeat grace period, points the
// replicator at the remaining peers, and finally opens for client
// traffic — then sweeps any dead servers whose chains the old leader
// may have died mid-repair on. Idempotent: promoting a leader returns
// its current generation.
func (c *Controller) PromoteNow() uint64 {
	// Exclude an in-flight op batch: once the generation advances no
	// further batch passes the fence, and holding applyMu here waits
	// out one already past it.
	c.applyMu.Lock()
	c.group.mu.Lock()
	if c.leading.Load() {
		gen := c.group.gen
		c.group.mu.Unlock()
		c.applyMu.Unlock()
		return gen
	}
	c.group.gen++
	gen := c.group.gen
	if len(c.group.peers) > 0 {
		c.group.leaderAddr = c.group.peers[c.group.self]
	}
	seq := c.group.appliedSeq
	peers := append([]string(nil), c.group.peers...)
	self := c.group.self
	c.group.mu.Unlock()

	c.failovers.Add(1)
	dead := c.rebuildAllocator()
	c.memberEpoch.Add(1)

	if len(peers) > 0 {
		c.repl.lead(gen, seq, otherPeers(peers, self))
	}
	c.leading.Store(true)
	c.applyMu.Unlock()
	c.log.Info("controller: promoted to leader", "gen", gen, "epoch", c.memberEpoch.Load())

	// The old leader may have died mid-repair; re-sweep every dead
	// server. Already-repaired chains no longer reference them, so the
	// sweep only touches what was actually left broken.
	for _, addr := range dead {
		c.repairAfterDeath(addr)
	}
	_ = c.repl.flush()
	return gen
}

// rebuildAllocator reconstitutes the allocator from the mirrored (or
// restored) metadata: each live server's free set is its contributed
// range minus the blocks the partition maps say are in use, and the
// probation set is re-suspended, so gray-failed servers stay excluded
// from allocation. This is the trick that lets the op-log and the state
// image skip allocator internals entirely — no cross-shard ordering
// between allocate and free ops can ever matter. Live servers get a
// heartbeat grace period. Returns the dead servers, sorted.
func (c *Controller) rebuildAllocator() []string {
	c.group.mu.Lock()
	contrib := make(map[string]contribRange, len(c.group.contrib))
	for a, r := range c.group.contrib {
		contrib[a] = r
	}
	nextID := c.group.nextID
	c.group.mu.Unlock()

	c.hbMu.Lock()
	var dead, probated []string
	for a := range c.deadServers {
		dead = append(dead, a)
	}
	for a := range c.probation {
		probated = append(probated, a)
	}
	now := c.clk.Now()
	for addr := range contrib {
		if c.deadServers[addr] {
			delete(contrib, addr)
		} else {
			c.lastBeat[addr] = now
		}
	}
	c.hbMu.Unlock()
	sort.Strings(dead)
	sort.Strings(probated)

	inUse := make(map[string]map[core.BlockID]bool)
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, h := range sh.jobs {
			h.Walk(func(n *hierarchy.Node) bool {
				for _, e := range n.Map.Blocks {
					if e.Lost {
						continue
					}
					for _, info := range e.Replicas() {
						set := inUse[info.Server]
						if set == nil {
							set = make(map[core.BlockID]bool)
							inUse[info.Server] = set
						}
						set[info.ID] = true
					}
				}
				return true
			})
		}
		sh.mu.Unlock()
	}
	var states []alloc.ServerState
	for addr, r := range contrib {
		used := inUse[addr]
		free := make([]core.BlockID, 0, r.N)
		for id := r.First; id < r.First+core.BlockID(r.N); id++ {
			if !used[id] {
				free = append(free, id)
			}
		}
		if end := r.First + core.BlockID(r.N); end > nextID {
			nextID = end
		}
		states = append(states, alloc.ServerState{Addr: addr, Total: r.N, Free: free})
	}
	sort.Slice(states, func(i, j int) bool { return states[i].Addr < states[j].Addr })
	c.alloc.Restore(states, nextID)
	for _, addr := range probated {
		c.alloc.Suspend(addr)
	}
	return dead
}

// Role reports this controller's view of the group for MethodCtrlRole.
func (c *Controller) Role() proto.CtrlRoleResp {
	c.group.mu.Lock()
	defer c.group.mu.Unlock()
	resp := proto.CtrlRoleResp{Gen: c.group.gen, IsLeader: c.leading.Load()}
	switch {
	case resp.IsLeader && len(c.group.peers) > 0:
		resp.Leader = c.group.peers[c.group.self]
	case resp.IsLeader:
		resp.Leader = c.boundAddr
	default:
		resp.Leader = c.group.leaderAddr
	}
	return resp
}

// PulseNow runs one leader-side stream pulse synchronously (heartbeat
// to standbys, re-bootstrap of lost ones); a no-op on standbys.
// Deterministic tests call this instead of advancing the group clock.
func (c *Controller) PulseNow() {
	if c.leading.Load() {
		c.repl.pulseNow()
	}
}

// Failovers reports how many times this controller has promoted
// itself (test/metrics hook).
func (c *Controller) Failovers() int64 { return c.failovers.Load() }

// ReplicationLag reports the op-log distance to the slowest live
// standby (test/metrics hook; zero when not leading).
func (c *Controller) ReplicationLag() int64 { return c.repl.lag() }
