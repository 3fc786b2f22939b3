package controller

import (
	"fmt"
	"slices"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/hierarchy"
	"jiffy/internal/proto"
)

// One apply path. Every change to replicated metadata is a replOp run
// through the one apply function of its kind, on every member alike:
// the leader decides (validation, allocation, data-plane calls), builds
// the op and runs its apply, then does what only a leader does
// (allocator calls, quota pushes and block deletes to servers, counters,
// logs, flush); a standby runs each streamed op through apply; and
// applyImage (bootstrap, RestoreState) resets the state and replays the
// image as ops. An apply reports whether it changed anything and, if it
// did, emits its op inside the critical section that changed the state,
// so each key's log order is its apply order (emit is a no-op except on
// a leader with standbys). Node upserts keep their shape: the leader
// edits its node and commitNodeLocked ships it, encoded in place from
// the node under the shard lock, with no image copy (the bytes of
// imageOfNode's entry). Only this file writes the replicated maps
// (internal/lint TestOneApplyPath).

// apply runs one streamed or replayed op through its kind's apply. Its
// error is a node image that could not be installed.
func (c *Controller) apply(op replOp) error {
	switch op.Kind {
	case opServerRegister:
		c.applyServerRegister(op)
	case opServerDead:
		c.applyServerDead(op)
	case opServerProbation:
		c.applyProbation(op)
	case opTier:
		c.applyTier(op)
	default: // the job-keyed kinds run under their job's shard lock; a retired kind matches none
		sh := c.shardFor(op.Job)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		switch op.Kind {
		case opRegisterJob:
			c.applyRegisterJob(sh, op)
		case opDeregisterJob:
			c.applyDeregisterJob(sh, op)
		case opNodeUpsert:
			return c.applyNodeUpsert(sh, op)
		case opRemoveNode:
			_ = c.applyRemoveNode(sh, op) // a refusal leaves the node, as on the leader
		}
	}
	return nil
}

// applyRegisterJob creates a job's hierarchy; false when it exists.
// Caller holds the shard lock.
func (c *Controller) applyRegisterJob(sh *shard, op replOp) bool {
	if _, exists := sh.jobs[op.Job]; exists {
		return false
	}
	sh.jobs[op.Job] = hierarchy.New(op.Job, op.Lease, op.Now)
	c.repl.emit(op)
	return true
}

// applyDeregisterJob drops a job, its index entries and its tenant
// quota, returning the dropped hierarchy (nil when there was none).
// Caller holds the shard lock.
func (c *Controller) applyDeregisterJob(sh *shard, op replOp) *hierarchy.Hierarchy {
	h, ok := sh.jobs[op.Job]
	if !ok {
		return nil
	}
	sh.dropJobIndexLocked(h)
	delete(sh.jobs, op.Job)
	c.mirrorTenantQuota(string(op.Job), core.Quota{})
	c.repl.emit(op)
	return h
}

// applyNodeUpsert installs a node image — create-or-update by name, the
// first parent giving the canonical path and the rest DAG edges — and
// indexes it. A job missing here was deregistered by an op still to come
// (a fuzzy bootstrap image already reflects that), so the image has
// nothing to land on. Caller holds the shard lock.
func (c *Controller) applyNodeUpsert(sh *shard, op replOp) error {
	h, ok := sh.jobs[op.Job]
	if !ok {
		return nil
	}
	ni := op.Node
	n, ok := h.Lookup(ni.Name)
	if !ok {
		if len(ni.Parents) == 0 {
			return fmt.Errorf("controller: root image %q does not match job %q", ni.Name, op.Job)
		}
		var buf [4]*hierarchy.Node
		parents := buf[:0]
		for _, p := range ni.Parents {
			pn, ok := h.Lookup(p)
			if !ok {
				return fmt.Errorf("controller: image parent %q missing: %w", p, core.ErrNotFound)
			}
			parents = append(parents, pn)
		}
		var err error
		if n, err = h.Add(ni.Name, parents, ni.Type, ni.LeaseDuration, op.Now); err != nil {
			return err
		}
	}
	n.LeaseDuration = ni.LeaseDuration
	n.LastRenewed = ni.LastRenewed
	n.Type = ni.Type
	n.Map = ni.Map
	n.Flushed = ni.Flushed
	n.FlushKey = ni.FlushKey
	n.Quota = ni.Quota
	c.indexNodeLocked(op.Job, n)
	c.repl.emit(op)
	return nil
}

// commitNodeLocked is the leader's half of a node upsert: after editing
// n in place it indexes the node and ships its image. Caller holds the
// shard lock.
func (c *Controller) commitNodeLocked(job core.JobID, n *hierarchy.Node) {
	c.indexNodeLocked(job, n)
	c.repl.emitNode(job, n, c.clk.Now())
}

// indexNodeLocked refreshes what a node's image implies outside the
// node, on leader and standby alike: the shard's server index, the ID
// high-water mark (every ID in the map was minted, so a promoted or
// restored allocator mints above it) and, for a job root, the tenant
// quota mirror. Caller holds the shard lock.
func (c *Controller) indexNodeLocked(job core.JobID, n *hierarchy.Node) {
	c.shardFor(job).reindexNodeLocked(job, n)
	var top core.BlockID
	for _, e := range n.Map.Blocks {
		top = max(top, e.Info.ID)
		for _, m := range e.Chain {
			top = max(top, m.ID)
		}
	}
	c.group.mu.Lock()
	c.group.nextID = max(c.group.nextID, top+1)
	c.group.mu.Unlock()
	if n.Name == string(job) { // the root: node names are unique per job
		c.mirrorTenantQuota(string(job), n.Quota)
	}
}

// mirrorTenantQuota keeps tenantQuotas equal to the job roots' quotas;
// a zero quota clears the tenant.
func (c *Controller) mirrorTenantQuota(tenant string, q core.Quota) {
	c.qMu.Lock()
	defer c.qMu.Unlock()
	if q.IsZero() {
		delete(c.tenantQuotas, tenant)
	} else {
		c.tenantQuotas[tenant] = q
	}
}

// applyRemoveNode detaches a node and drops its index entries. Its error
// is the hierarchy's refusal (the node has children, or is the root).
// Caller holds the shard lock.
func (c *Controller) applyRemoveNode(sh *shard, op replOp) error {
	h, ok := sh.jobs[op.Job]
	if !ok {
		return fmt.Errorf("controller: job %q: %w", op.Job, core.ErrNotFound)
	}
	n, _ := h.Lookup(op.Name)
	if err := h.Remove(op.Name); err != nil {
		return err
	}
	sh.dropNodeIndexLocked(n)
	c.repl.emit(op)
	return nil
}

// lockPaths locks the shards owning paths' jobs, each once and in shard
// order, and returns their indices for unlockShards: a renewal batch may
// span jobs, and it renews under all of their locks at once.
// The indices are appended to held (a caller's stack array holds a
// typical batch without allocating).
func (c *Controller) lockPaths(held []int, paths []core.Path) []int {
	for _, p := range paths {
		held = append(held, c.shardIndex(p.Job()))
	}
	slices.Sort(held)
	held = slices.Compact(held)
	for _, i := range held {
		c.shards[i].mu.Lock()
	}
	return held
}

// unlockShards releases the shards lockPaths locked.
func (c *Controller) unlockShards(held []int) {
	for _, i := range held {
		c.shards[i].mu.Unlock()
	}
}

// applyServerRegister records a server's contribution and registration
// mark, raises the ID high-water mark to it, and (re)admits the server
// to the tracked membership: registration counts as the first
// heartbeat, revives a server declared dead (its old blocks are gone),
// and lifts any probation (it restarted). Replayed over a fuzzy
// bootstrap image that already holds it, it only advances the epoch
// again, which is safe: the epoch need only stay ahead of what servers
// observed.
func (c *Controller) applyServerRegister(op replOp) {
	c.hbMu.Lock()
	defer c.hbMu.Unlock()
	c.group.mu.Lock()
	c.group.contrib[op.Addr] = contribRange{First: op.FirstID, N: op.NumBlocks}
	c.group.nextID = max(c.group.nextID, op.FirstID)
	c.group.mu.Unlock()
	c.lastBeat[op.Addr] = c.clk.Now()
	delete(c.deadServers, op.Addr)
	delete(c.probation, op.Addr)
	delete(c.probationStreak, op.Addr)
	c.memberEpoch.Add(1)
	c.repl.emit(op)
}

// applyServerDead adds a server to the dead set and bumps the membership
// epoch; false when it was already dead. Death supersedes probation: the
// chain splice is coming, so the softer exclusion is moot.
func (c *Controller) applyServerDead(op replOp) bool {
	c.hbMu.Lock()
	defer c.hbMu.Unlock()
	if c.deadServers[op.Addr] {
		return false
	}
	c.deadServers[op.Addr] = true
	delete(c.lastBeat, op.Addr)
	delete(c.probation, op.Addr)
	delete(c.probationStreak, op.Addr)
	c.memberEpoch.Add(1)
	c.repl.emit(op)
	return true
}

// applyProbation places a server on probation (op.On) or lifts it;
// false when the state did not change. A dead server is never probated.
func (c *Controller) applyProbation(op replOp) bool {
	c.hbMu.Lock()
	defer c.hbMu.Unlock()
	if op.On && c.deadServers[op.Addr] || c.probation[op.Addr] == op.On {
		return false
	}
	if op.On {
		c.probation[op.Addr] = true
	} else {
		delete(c.probation, op.Addr)
	}
	delete(c.probationStreak, op.Addr)
	c.repl.emit(op)
	return true
}

// applyTier records one member's tier transition: a demotion installs
// or refreshes the record (newer generations win), a promotion clears it
// unless a newer demotion has superseded the reported generation. False
// when the table did not change.
func (c *Controller) applyTier(op replOp) bool {
	req := op.Tier
	info := core.BlockInfo{ID: req.Block, Server: req.Server}
	c.tiers.mu.Lock()
	defer c.tiers.mu.Unlock()
	rec, ok := c.tiers.records[info]
	switch {
	case req.Demoted && (!ok || req.Gen > rec.Gen):
		c.tiers.records[info] = tierRecord{Path: req.Path, Key: req.Key, Gen: req.Gen}
	case !req.Demoted && ok && req.Gen >= rec.Gen:
		delete(c.tiers.records, info)
	default:
		return false
	}
	c.repl.emit(op)
	return true
}

// applyImage resets this controller's metadata and replays the image
// through the applies, as ops (standby bootstrap, checkpoint restore).
// The tenant quotas follow from the job roots and the epoch is the
// image's. The ID high-water mark only moves up: the replayed ops raise
// it, and then the image's mark does.
func (c *Controller) applyImage(img groupImage) error {
	now := c.clk.Now()
	var ops []replOp
	for _, ji := range img.Jobs {
		if len(ji.Nodes) == 0 {
			return fmt.Errorf("controller: empty job image for %q", ji.Job)
		}
		root := ji.Nodes[0]
		ops = append(ops, replOp{Kind: opRegisterJob, Job: ji.Job, Lease: root.LeaseDuration, Now: root.LastRenewed})
		for _, ni := range ji.Nodes {
			ops = append(ops, replOp{Kind: opNodeUpsert, Job: ji.Job, Node: ni, Now: now})
		}
	}
	for _, ci := range img.Contrib {
		ops = append(ops, replOp{Kind: opServerRegister, Addr: ci.Addr, FirstID: ci.First, NumBlocks: ci.N})
	}
	for _, addr := range img.Dead {
		ops = append(ops, replOp{Kind: opServerDead, Addr: addr})
	}
	for _, addr := range img.Probation {
		ops = append(ops, replOp{Kind: opServerProbation, Addr: addr, On: true})
	}
	for _, ti := range img.Tiers {
		ops = append(ops, replOp{Kind: opTier, Tier: proto.ReportTierReq{Server: ti.Info.Server, Block: ti.Info.ID,
			Path: ti.Path, Key: ti.Key, Gen: ti.Gen, Demoted: true}})
	}

	c.applyMu.Lock()
	defer c.applyMu.Unlock()
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.jobs = make(map[core.JobID]*hierarchy.Hierarchy)
		sh.byServer = make(map[string]map[*hierarchy.Node]core.JobID)
		sh.nodeServers = make(map[*hierarchy.Node][]string)
		sh.mu.Unlock()
	}
	c.group.mu.Lock()
	c.group.contrib = make(map[string]contribRange, len(img.Contrib))
	c.group.mu.Unlock()
	c.hbMu.Lock()
	c.lastBeat = make(map[string]time.Time)
	c.deadServers = make(map[string]bool, len(img.Dead))
	c.probation = make(map[string]bool, len(img.Probation))
	c.probationStreak = make(map[string]int)
	c.hbMu.Unlock()
	c.qMu.Lock()
	c.tenantQuotas = make(map[string]core.Quota, len(img.Tenants))
	c.qMu.Unlock()
	c.tiers.mu.Lock()
	c.tiers.records = make(map[core.BlockInfo]tierRecord, len(img.Tiers))
	c.tiers.mu.Unlock()
	for _, op := range ops {
		if err := c.apply(op); err != nil {
			return err
		}
	}

	c.group.mu.Lock()
	c.group.nextID = max(c.group.nextID, img.NextID)
	c.group.appliedSeq = img.Seq
	c.group.mu.Unlock()
	c.memberEpoch.Store(img.Epoch)
	return nil
}
