package controller

import (
	"fmt"
	"sort"

	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/hierarchy"
)

// Chain repair (§4.2.2 fault tolerance). When a memory server dies (or
// is drained), every chain with a member on it is spliced: the lost
// member is removed, a replacement is allocated on a healthy server and
// resynced from a surviving replica's snapshot, and every member —
// survivors and replacements alike — is switched to the new chain
// layout under a fresh replication generation (the membership epoch).
//
// Two orderings make the splice safe against writes still in flight on
// the old layout:
//
//   - Fence before snapshot. An acknowledgement requires every member
//     of the OLD chain to apply the write, so before the resync
//     snapshot is taken every old-chain member except its head is made
//     to reject further traffic — survivors by switching to the new
//     generation (ErrStaleEpoch for old-generation propagation), still
//     answering drained members by sealing, dead members by being
//     dead. From that point no write can be acknowledged that the
//     snapshot might miss; fenced writes fail fast and the client
//     retries against the repaired chain.
//
//   - Head last. The head is the only member that starts a new
//     generation's sequence stream, so it switches only after every
//     downstream member (survivors and resynced replacements) is
//     installed at sequence zero — a head switched early would consume
//     sequence numbers a not-yet-ready replacement can never fill.
//
// Lock discipline: the shard mutex is held only to collect the
// affected entries and to commit the result. The RPC-heavy splice
// (snapshot/restore/create, carrying full block payloads) runs with no
// locks held, and the commit re-validates that the entry is unchanged —
// a lost race rolls the splice back and replans from the current map,
// so concurrent metadata operations never stall behind a repair.
//
// Blocks with no surviving replica are rebuilt from a persisted copy —
// a member's tier object or the prefix's flush copy — when one exists;
// otherwise they are marked Lost in the partition map so clients fail
// fast with ErrBlockLost.

// repairAttempts bounds the collect → splice → commit retries for one
// entry. A retry follows either a lost commit race or the eviction of
// a further dead server discovered mid-splice, so the loop converges
// in practice within a round or two.
const repairAttempts = 4

// repairAfterDeath walks every job and repairs every partition entry
// that had a replica on the dead server. Callers must not hold a shard
// lock.
func (c *Controller) repairAfterDeath(addr string) {
	c.repairServer(addr, false)
}

// DrainServer migrates every block off a still-healthy server using
// the same splice machinery as death repair, then leaves the server
// out of the membership (it is marked dead and evicted from the
// allocator first, so concurrent scale-ups cannot re-place blocks on
// it mid-drain). Returns the number of migrated partition entries.
func (c *Controller) DrainServer(addr string) (int, error) {
	known := false
	for _, s := range c.alloc.Servers() {
		if s == addr {
			known = true
			break
		}
	}
	if !c.markServerDead(addr) {
		return 0, fmt.Errorf("controller: drain %s: server already dead: %w", addr, core.ErrNotFound)
	}
	if !known {
		// Nothing was ever placed there; the eviction above is enough.
		return 0, nil
	}
	c.log.Info("controller: draining server", "addr", addr)
	return c.repairServer(addr, true), nil
}

// repairTarget captures, under the shard lock, everything the unlocked
// splice needs to know about one affected partition entry.
type repairTarget struct {
	node     *hierarchy.Node
	path     core.Path
	dsType   core.DSType
	flushKey string
	entry    ds.PartitionEntry
}

// spliceResult is the outcome of one unlocked splice attempt.
type spliceResult struct {
	newChain        core.ReplicaChain // layout to commit (nil when lost or aborted)
	replacements    core.ReplicaChain // created this attempt; rolled back on a lost commit
	deleteAfter     core.ReplicaChain // drained members, deleted once the commit lands
	relinkSuccessor bool              // recovered queue segment: re-seal toward its successor
	lost            bool              // no copy anywhere: mark the entry Lost
	lostReason      string
	abort           bool // leave the entry untouched (e.g. no capacity on a drain)
	demote          bool // the drained server died mid-splice: retry as a death
	tierRecovered   bool // rebuilt from a member's tier object (counts a tier recovery)
}

// relinkOp is a queue re-seal to run after the commit unlocks.
type relinkOp struct {
	tail ds.PartitionEntry
	next core.BlockInfo
}

// repairServer splices addr out of every chain that references it.
// alive distinguishes a drain (the server still answers, so its data
// is migrated and its blocks deleted afterwards) from a death (never
// talk to it again). Returns the number of repaired entries.
func (c *Controller) repairServer(addr string, alive bool) int {
	repaired := 0
	for _, sh := range c.shards {
		for _, t := range c.collectTargets(sh, addr) {
			if c.repairEntry(sh, t, addr, alive) {
				repaired++
				c.chainRepairs.Add(1)
			}
		}
	}
	if repaired > 0 || !alive {
		c.log.Info("controller: repair complete", "addr", addr,
			"entries", repaired, "epoch", c.memberEpoch.Load())
	}
	if repaired > 0 {
		// Repairs can run off the RPC path (detector worker, evictServer
		// goroutine), so push their commits to the standbys here.
		_ = c.repl.flush()
	}
	return repaired
}

// collectTargets gathers the partition entries referencing addr from
// the shard's server index — O(affected entries), not a walk of every
// job. The shard lock is held only for the collection — no RPCs.
func (c *Controller) collectTargets(sh *shard, addr string) []repairTarget {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var targets []repairTarget
	for _, n := range sh.indexedNodesLocked(addr) {
		for _, e := range n.Map.Blocks {
			if e.Lost || !entryReferences(e, addr) {
				continue
			}
			targets = append(targets, repairTarget{
				node:     n,
				path:     n.CanonicalPath(),
				dsType:   n.Map.Type,
				flushKey: n.FlushKey,
				entry:    copyEntry(e),
			})
		}
	}
	// The index is a map; order the work deterministically.
	sort.Slice(targets, func(i, j int) bool {
		return targets[i].entry.Info.ID < targets[j].entry.Info.ID
	})
	return targets
}

// copyEntry clones the slices a splice plans from, so the unlocked
// phase never aliases map-owned memory.
func copyEntry(e ds.PartitionEntry) ds.PartitionEntry {
	e.Chain = append(core.ReplicaChain(nil), e.Chain...)
	e.Slots = append([]ds.SlotRange(nil), e.Slots...)
	return e
}

// entryReferences reports whether any replica of e lives on addr.
func entryReferences(e ds.PartitionEntry, addr string) bool {
	for _, info := range e.Replicas() {
		if info.Server == addr {
			return true
		}
	}
	return false
}

// repairEntry runs the collect → splice → commit loop for one entry.
func (c *Controller) repairEntry(sh *shard, t repairTarget, addr string, alive bool) bool {
	for attempt := 0; attempt < repairAttempts; attempt++ {
		if attempt > 0 {
			var ok bool
			if t, ok = c.refreshTarget(sh, t, addr); !ok {
				// The entry is gone, lost, or was already repaired by a
				// concurrent splice. A death repair splices a drained
				// member out as dead without deleting it, so the drain
				// deletes what it would have after its own commit.
				if alive {
					for _, m := range t.entry.Replicas() {
						if m.Server == addr {
							c.deleteBlockOnServer(m)
						}
					}
				}
				return false
			}
		}
		res, retry := c.spliceEntry(t, addr, c.memberEpoch.Load(), alive)
		if res.demote {
			alive = false
		}
		if retry {
			continue
		}
		if res.abort {
			return false
		}
		relinks, ok := c.commitRepair(sh, t, res)
		if !ok {
			// Lost the commit race: the entry changed while the splice
			// ran unlocked. Undo the side effects and replan.
			c.release(res.replacements)
			continue
		}
		if res.tierRecovered {
			c.tiers.recoveries.Add(1)
		}
		// Members spliced out of the chain take their tier records with
		// them: a recovery has consumed the object it needed, and any
		// other spliced-out member's object is stale the moment the new
		// chain (resynced or rebuilt) starts acknowledging writes.
		for _, old := range t.entry.Replicas() {
			kept := false
			for _, cur := range res.newChain {
				if cur == old {
					kept = true
					break
				}
			}
			if !kept {
				c.dropTierRecord(old)
			}
		}
		for _, info := range res.deleteAfter {
			c.deleteBlockOnServer(info)
		}
		for _, r := range relinks {
			if err := c.setNextOnChain(r.tail, r.next); err != nil {
				c.log.Warn("controller: queue relink after repair failed",
					"from", r.tail.Info.ID, "to", r.next.ID, "err", err)
			}
		}
		return true
	}
	c.log.Error("controller: entry repair did not converge; chain may be degraded",
		"block", t.entry.Info.ID, "addr", addr)
	return false
}

// refreshTarget re-reads the current state of t's entry for a retry.
// false when the entry no longer needs repair.
func (c *Controller) refreshTarget(sh *shard, t repairTarget, addr string) (repairTarget, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, e := range t.node.Map.Blocks {
		if e.Lost || e.Chunk != t.entry.Chunk || !entryReferences(e, addr) {
			continue
		}
		if t.dsType == core.DSKV && !slotsEqual(e.Slots, t.entry.Slots) {
			continue
		}
		t.entry = copyEntry(e)
		t.flushKey = t.node.FlushKey
		return t, true
	}
	return t, false
}

// spliceEntry performs the RPC-heavy part of one entry's repair with no
// locks held, returning the layout to commit. retry=true means the
// attempt must be restarted from a fresh view of the entry (a member
// died mid-splice, or the fence could not be established).
func (c *Controller) spliceEntry(t repairTarget, addr string, gen uint64, alive bool) (spliceResult, bool) {
	replicas := t.entry.Replicas()
	var survivors, doomedAlive core.ReplicaChain
	for _, info := range replicas {
		switch {
		case info.Server == addr && alive:
			doomedAlive = append(doomedAlive, info)
		case info.Server == addr || c.ServerDead(info.Server):
			// Members on other servers declared dead mid-repair are
			// spliced out in the same pass.
		default:
			survivors = append(survivors, info)
		}
	}
	if len(survivors) == 0 {
		return c.recoverSoleReplica(t, doomedAlive, gen)
	}

	// newChain is the survivors followed by the replacements placed
	// here. The old head, if it survives, is switched last (see the
	// package comment); every other survivor is fenced first.
	s, h := len(survivors), 0
	if survivors[0] == replicas[0] {
		h = 1
	}
	placed := []ds.PartitionEntry{{Chunk: t.entry.Chunk, Slots: t.entry.Slots}}
	newChain := survivors
	if err := c.place(t.path, t.dsType, placed, survivors, max(c.cfg.ChainLength-s, 0)); err != nil {
		c.log.Warn("controller: no chain replacement placed; degrading chain width",
			"block", t.entry.Info.ID, "have", s, "err", err)
	} else {
		newChain = placed[0].Replicas()
	}

	// Fence the old chain (see the package comment): the survivors
	// switch to the new generation now, so old-generation propagation
	// rejects and no write can be acknowledged after the snapshot
	// below. A survivor that cannot be switched would stay wedged on
	// the old generation and reject every new-generation mutation
	// forever — so the splice restarts instead, with the member evicted
	// when the failure was connectivity-class.
	if c.switchChain(newChain, gen, h, s) != nil {
		c.release(newChain[s:])
		return spliceResult{}, true
	}
	// Still-answering drained members are sealed: required when one of
	// them is the old tail (the last unfenced ack point), and it makes
	// writes racing the drain fail fast everywhere else too. A failed
	// seal is fence-preserving — it means the member is unreachable or
	// its block is already gone, and either way it can no longer apply
	// (and so never acknowledge) a write.
	for _, m := range doomedAlive {
		if err := c.sealBlockOnServer(m); err != nil {
			c.log.Debug("controller: seal of drained member failed; treating as dead",
				"block", m.ID, "on", m.Server, "err", err)
		}
	}

	if len(newChain) > s {
		// Every old-chain member holds every acknowledged write, and
		// the fence froze the survivors' old-generation stream, so the
		// tail-most survivor's snapshot is a superset of all
		// acknowledged writes.
		err := c.fill(fillSource{live: survivors[s-1]}, newChain[s:])
		if err == nil {
			err = c.switchChain(newChain, gen, s, len(newChain))
		}
		if err != nil {
			// Degrade: give up on the replacements and narrow the
			// layout to the survivors. The fence pass installed the wide
			// layout on them, and replication hops do not carry the
			// chain — each member forwards along its own copy — so every
			// survivor is re-switched to the narrow one before the head
			// starts the generation's stream. No write of this
			// generation exists yet, so resetting their sequence state
			// again is harmless.
			c.log.Warn("controller: chain replacement not installed; degrading chain width",
				"block", t.entry.Info.ID, "err", err)
			c.release(newChain[s:])
			newChain = survivors
			if c.switchChain(newChain, gen, h, s) != nil {
				return spliceResult{}, true
			}
		}
	}
	// The head switches last (see the package comment). When the old
	// head is doomed the new head was already switched in the fence
	// pass — safe, because no client routes writes to it until the
	// commit publishes it as the head.
	if c.switchChain(newChain, gen, 0, h) != nil {
		c.release(newChain[s:])
		return spliceResult{}, true
	}
	return spliceResult{
		newChain:     newChain,
		replacements: newChain[s:],
		deleteAfter:  doomedAlive,
	}, false
}

// recoverSoleReplica rebuilds an entry with no surviving replica onto a
// fresh chain. While draining, the old members still answer: sealing
// them is the fence — a member that cannot be sealed may still be
// acknowledging writes the snapshot would miss, so the attempt restarts,
// as a death when the drained server stopped answering — and the
// sealed old tail, which holds exactly the acknowledged writes, is the
// fill source. After a death the source is a persisted copy (see
// persistedCopies); with none that every new member can load, the
// entry is marked Lost.
func (c *Controller) recoverSoleReplica(t repairTarget, sealed core.ReplicaChain, gen uint64) (spliceResult, bool) {
	var srcs []fillSource
	if len(sealed) > 0 {
		srcs = []fillSource{{live: sealed[len(sealed)-1]}}
	} else if srcs = c.persistedCopies(t); len(srcs) == 0 {
		return spliceResult{lost: true, lostReason: "no persisted copy"}, false
	}
	placed := []ds.PartitionEntry{{Chunk: t.entry.Chunk, Slots: t.entry.Slots}}
	if err := c.place(t.path, t.dsType, placed, nil, c.cfg.ChainLength); err != nil {
		c.log.Warn("controller: no chain placed for a block with no survivor",
			"block", t.entry.Info.ID, "err", err)
		if len(sealed) > 0 {
			// Nothing sealed yet: the drain skips this entry and the data
			// stays readable and writable in place.
			return spliceResult{abort: true}, false
		}
		return spliceResult{lost: true, lostReason: "no chain placed for recovery"}, false
	}
	chain := placed[0].Replicas()
	for _, m := range sealed {
		if err := c.sealBlockOnServer(m); err != nil {
			c.log.Warn("controller: drain seal failed; restarting entry",
				"block", m.ID, "on", m.Server, "err", err)
			c.release(chain)
			return spliceResult{demote: unreachableAddr(err) == m.Server}, true
		}
	}
	res := spliceResult{newChain: chain, replacements: chain, deleteAfter: sealed, relinkSuccessor: true}
	var err error
	for _, src := range srcs {
		if err = c.fill(src, chain); err == nil {
			res.tierRecovered = src.tier
			break
		}
		c.log.Warn("controller: rebuild fill failed",
			"block", t.entry.Info.ID, "from", src.key, "err", err)
		if unreachableAddr(err) != "" {
			break // a member stopped answering: replace it, not the copy
		}
	}
	if err != nil {
		c.release(chain)
		if addr := unreachableAddr(err); addr != "" || len(sealed) > 0 {
			return spliceResult{demote: len(sealed) > 0 && addr == sealed[0].Server}, true
		}
		return spliceResult{lost: true, lostReason: "no persisted copy could be loaded"}, false
	}
	if c.switchChain(chain, gen, 0, len(chain)) != nil {
		c.release(chain)
		return spliceResult{}, true
	}
	c.log.Info("controller: block rebuilt with no survivor",
		"block", t.entry.Info.ID, "tier", res.tierRecovered, "new", placed[0].Info.ID)
	return res, false
}

// persistedCopies lists the persisted objects a dead entry with no
// survivor can be rebuilt from, best first. A member's tier object
// comes before the prefix's lease-flush copy: a tier record's existence
// proves no write was acknowledged after that member's demotion (see
// tier.go), so it is always current, while a flushed copy may predate
// later acknowledged writes. The flush manifest is read through the
// flush key captured at collect time — no locks held — and the entry
// matched by its partition role (chunk index, and slot ranges for KV
// stores).
func (c *Controller) persistedCopies(t repairTarget) []fillSource {
	var srcs []fillSource
	for _, m := range t.entry.Replicas() {
		if rec, ok := c.tierRecordFor(m); ok {
			srcs = append(srcs, fillSource{key: rec.Key, block: m.ID, gen: rec.Gen, tier: true})
		}
	}
	if t.flushKey == "" {
		return srcs
	}
	if m, err := c.readManifest(t.flushKey); err == nil {
		for _, me := range m.Entries {
			if me.Chunk == t.entry.Chunk && (t.dsType != core.DSKV || slotsEqual(me.Slots, t.entry.Slots)) {
				return append(srcs, me.source())
			}
		}
	}
	return srcs
}

// commitRepair publishes a spliced layout into the partition map. It
// re-validates under the shard lock that the entry is exactly the one
// the splice was planned from, so a concurrent mutation (another
// repair, a scale action, a teardown) fails the commit instead of
// being silently overwritten. Returns the queue relinks to run after
// unlock.
func (c *Controller) commitRepair(sh *shard, t repairTarget, res spliceResult) ([]relinkOp, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := findEntryLocked(t)
	if e == nil {
		return nil, false
	}
	if res.lost {
		c.markLostLocked(e, res.lostReason)
		t.node.Map.Epoch++
		c.commitNodeLocked(t.node.Job, t.node)
		return nil, true
	}
	headChanged := res.newChain.Head() != e.Info
	e.Info = res.newChain.Head()
	e.Chain = chainField(res.newChain)
	e.Lost = false
	t.node.Map.Epoch++

	// Queue segments are stitched by redirects: a repaired segment's
	// predecessor must re-seal toward the new head, and a segment
	// restored from the persistent tier re-seals toward its successor
	// (the restored state may predate the original seal). The RPCs run
	// after unlock; only the neighbor entries are captured here.
	var relinks []relinkOp
	if t.dsType == core.DSQueue {
		if headChanged && e.Chunk > 0 {
			if p, ok := queueNeighborLocked(t.node, e.Chunk-1); ok {
				relinks = append(relinks, relinkOp{tail: p, next: e.Info})
			}
		}
		if res.relinkSuccessor {
			if s2, ok := queueNeighborLocked(t.node, e.Chunk+1); ok {
				relinks = append(relinks, relinkOp{tail: copyEntry(*e), next: s2.Info})
			}
		}
	}
	c.commitNodeLocked(t.node.Job, t.node)
	return relinks, true
}

// findEntryLocked re-locates t's entry and verifies it is unchanged
// since collection: same head, chunk, and chain, and not since marked
// lost or torn down. Caller holds the shard lock.
func findEntryLocked(t repairTarget) *ds.PartitionEntry {
	for i := range t.node.Map.Blocks {
		e := &t.node.Map.Blocks[i]
		if !e.Lost && e.Info == t.entry.Info && e.Chunk == t.entry.Chunk &&
			chainsEqual(e.Chain, t.entry.Chain) {
			return e
		}
	}
	return nil
}

// chainsEqual reports whether two chains have identical members in
// identical order.
func chainsEqual(a, b core.ReplicaChain) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// queueNeighborLocked finds the live entry at the given chunk index.
// Caller holds the shard lock; the returned entry is a copy.
func queueNeighborLocked(n *hierarchy.Node, chunk int) (ds.PartitionEntry, bool) {
	for _, e := range n.Map.Blocks {
		if e.Chunk == chunk && !e.Lost {
			return copyEntry(e), true
		}
	}
	return ds.PartitionEntry{}, false
}

// markLostLocked flags an entry as unrecoverable so clients fail fast
// with ErrBlockLost instead of retrying against a dead server.
func (c *Controller) markLostLocked(e *ds.PartitionEntry, reason string) {
	e.Lost = true
	e.Chain = nil
	c.blocksLost.Add(1)
	c.log.Error("controller: block lost", "block", e.Info.ID, "reason", reason)
}

// slotsEqual reports whether two slot-range lists are identical.
func slotsEqual(a, b []ds.SlotRange) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
