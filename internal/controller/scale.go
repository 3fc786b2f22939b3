package controller

import (
	"fmt"

	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/hierarchy"
	"jiffy/internal/proto"
)

// ScaleUp handles an overload signal for a block (Fig. 8): allocate a
// new block from the free list, install it, trigger data-structure
// specific repartitioning, and advance the map epoch.
func (c *Controller) ScaleUp(req proto.ScaleUpReq) (proto.ScaleUpResp, error) {
	m, err := c.onSignal(req.Path, req.Block, func(n *hierarchy.Node, idx int) error {
		if n.Map.AtMaxBlocks() {
			return nil // bounded structure: refuse growth (maxQueueLength)
		}
		if err := c.checkMemoryQuotaLocked(n, c.cfg.ChainLength); err != nil {
			return err
		}
		switch n.Map.Type {
		case core.DSFile:
			return c.scaleUpFile(n, idx)
		case core.DSQueue:
			return c.scaleUpQueue(n, idx)
		case core.DSKV:
			return c.scaleUpKV(n, idx)
		default:
			if ds.IsCustom(n.Map.Type) {
				// Custom structures grow like files: append a chunk.
				return c.scaleUpFile(n, idx)
			}
			return fmt.Errorf("controller: scale up on %v: %w", n.Map.Type, core.ErrWrongType)
		}
	})
	if err == nil {
		c.scaleUps.Add(1)
	}
	return proto.ScaleUpResp{Map: m}, err
}

// onSignal runs fn, the handling of a scale signal, on the node at path
// and block's index in its map, under the job's lock, and answers the
// map as it stands afterwards. Signals may be stale (the structure
// already scaled, or the block is no longer the relevant one); a block
// no longer in the map gets the current map unchanged, so the caller
// simply refreshes. Every scale adds or removes a block, and one that
// did advances the map epoch and is committed.
func (c *Controller) onSignal(path core.Path, block core.BlockID, fn func(n *hierarchy.Node, idx int) error) (m ds.PartitionMap, err error) {
	err = c.withJob(path.Job(), func(h *hierarchy.Hierarchy) error {
		n, err := h.Resolve(path)
		if err != nil {
			return err
		}
		defer func() { m = n.Map.Clone() }()
		idx, blocks := blockIndex(&n.Map, block), len(n.Map.Blocks)
		if idx < 0 {
			return nil
		}
		if err := fn(n, idx); err != nil || len(n.Map.Blocks) == blocks {
			return err
		}
		n.Map.Epoch++
		c.commitNodeLocked(n.Job, n)
		return nil
	})
	return m, err
}

func blockIndex(m *ds.PartitionMap, id core.BlockID) int {
	for i, e := range m.Blocks {
		if e.Info.ID == id {
			return i
		}
	}
	return -1
}

// scaleUpFile appends the next chunk block if the signaled block is
// currently the last chunk (files only grow at the end; §5.1).
func (c *Controller) scaleUpFile(n *hierarchy.Node, idx int) error {
	maxChunk := 0
	for _, e := range n.Map.Blocks {
		if e.Chunk > maxChunk {
			maxChunk = e.Chunk
		}
	}
	if n.Map.Blocks[idx].Chunk != maxChunk {
		return nil // stale: a later chunk already exists
	}
	// n.Map.Type rather than DSFile: custom structures share this
	// append-a-chunk growth path.
	added := []ds.PartitionEntry{{Chunk: maxChunk + 1}}
	if err := c.place(n.CanonicalPath(), n.Map.Type, added, nil, c.cfg.ChainLength); err != nil {
		return err
	}
	n.Map.Blocks = append(n.Map.Blocks, added[0])
	return nil
}

// scaleUpQueue appends a new tail segment and links the old tail to it
// (§5.2).
func (c *Controller) scaleUpQueue(n *hierarchy.Node, idx int) error {
	tail, _ := n.Map.Tail()
	if n.Map.Blocks[idx].Info.ID != tail.Info.ID {
		return nil // stale: not the tail anymore
	}
	added := []ds.PartitionEntry{{Chunk: tail.Chunk + 1}}
	if err := c.place(n.CanonicalPath(), core.DSQueue, added, nil, c.cfg.ChainLength); err != nil {
		return err
	}
	if err := c.setNextOnChain(tail, added[0].Info); err != nil {
		c.releaseEntries(added)
		return err
	}
	n.Map.Blocks = append(n.Map.Blocks, added[0])
	return nil
}

// scaleUpKV splits an overloaded shard: the upper half of its hash
// slots, with their pairs, moves to a new chain (§5.3). The controller
// owns the authoritative slot assignment, so it computes the split
// itself and the servers only carry it out (moveSlots).
func (c *Controller) scaleUpKV(n *hierarchy.Node, idx int) error {
	donor := &n.Map.Blocks[idx]
	upper := ds.UpperHalf(donor.Slots)
	if upper == nil {
		return nil // single-slot shard; cannot split further
	}
	// The new chain starts owning nothing; the move hands it the slots
	// once every member holds their pairs.
	added := []ds.PartitionEntry{{}}
	if err := c.place(n.CanonicalPath(), core.DSKV, added, nil, c.cfg.ChainLength); err != nil {
		return err
	}
	if err := c.moveSlots(*donor, added[0], upper, true); err != nil {
		c.releaseEntries(added)
		return err
	}
	added[0].Slots = upper
	donor.Slots = ds.SubtractRanges(donor.Slots, upper)
	n.Map.Blocks = append(n.Map.Blocks, added[0])
	return nil
}

// moveSlots hands ranges, with their pairs, from the donor chain to the
// target chain: a split's new chain or a merge's live sibling. It is a
// fill (rebuild.go) between ownership changes, each one SlotOwnership
// call to a chain's head: a sequenced op, so its ack means every member
// changed at the same seq.
//
//  1. the donor disowns the ranges. A write its head sequenced before
//     the disown is on every member, and one after is refused, so the
//     donor's tail now holds every acknowledged pair there, and no more
//     arrive;
//  2. each target member pulls those pairs from the donor's tail;
//  3. the target owns the ranges;
//  4. a split's donor drops the pairs (a merge releases the donor).
//
// Only block names and slot ranges pass through the controller. A
// failure before step 4 undoes what was done, in reverse — a merge's
// sibling drops what it pulled, the donor owns the ranges again — and
// the caller releases a split's new chain, so a failed move leaves the
// cluster as it was. From step 4 on the target owns the ranges and the
// move stands: a failed drop leaves only unowned pairs in the donor,
// which no op reads and any later pull of those slots replaces.
func (c *Controller) moveSlots(donor, target ds.PartitionEntry, ranges []ds.SlotRange, split bool) error {
	if len(ranges) == 0 {
		return nil // nothing to move; a fill without slots would restore the whole target
	}
	change := func(e ds.PartitionEntry, own, drop bool) error {
		head := e.WriteTarget()
		_, err := callServer(c, head.Server, proto.SlotOwnership,
			proto.SlotOwnershipReq{Block: head.ID, Ranges: ranges, Own: own, Drop: drop})
		if err != nil {
			c.log.Warn("controller: slot ownership change failed", "block", e.Info.ID,
				"ranges", ranges, "own", own, "drop", drop, "err", err)
		}
		return err
	}
	undo := func(err error) error {
		if !split {
			change(target, false, true)
		}
		change(donor, true, false)
		return err
	}
	if err := change(donor, false, false); err != nil {
		return undo(err)
	}
	if err := c.fill(fillSource{live: donor.ReadTarget(), slots: ranges}, target.Replicas()); err != nil {
		return undo(err)
	}
	if err := change(target, true, false); err != nil {
		return undo(err)
	}
	if split {
		change(donor, false, true)
	}
	return nil
}

// ScaleDown handles an underload signal: merge the block's contents
// into a sibling (KV), or reclaim a drained head segment (queue), then
// return the block to the free list. File structures never shrink
// (append-only; §5.1).
func (c *Controller) ScaleDown(req proto.ScaleDownReq) (proto.ScaleDownResp, error) {
	m, err := c.onSignal(req.Path, req.Block, func(n *hierarchy.Node, idx int) error {
		switch n.Map.Type {
		case core.DSQueue:
			return c.scaleDownQueue(n, idx)
		case core.DSKV:
			return c.scaleDownKV(n, idx)
		}
		return nil
	})
	if err == nil {
		c.scaleDowns.Add(1)
	}
	return proto.ScaleDownResp{Map: m}, err
}

// scaleDownQueue reclaims a drained (non-tail) segment.
func (c *Controller) scaleDownQueue(n *hierarchy.Node, idx int) error {
	tail, _ := n.Map.Tail()
	victim := n.Map.Blocks[idx]
	if victim.Info.ID == tail.Info.ID {
		return nil // never reclaim the tail
	}
	c.release(victim.Replicas())
	n.Map.Blocks = append(n.Map.Blocks[:idx], n.Map.Blocks[idx+1:]...)
	return nil
}

// scaleDownKV merges a nearly empty shard into a sibling: move all of
// its slots (and pairs) to the sibling with the fewest slots, then
// reclaim the block.
func (c *Controller) scaleDownKV(n *hierarchy.Node, idx int) error {
	if len(n.Map.Blocks) < 2 {
		return nil // last shard stays
	}
	victim := n.Map.Blocks[idx]
	// Choose the sibling with the fewest slots to keep slot counts
	// balanced.
	sibling, best := -1, 1<<30
	for i, e := range n.Map.Blocks {
		count := 0
		for _, r := range e.Slots {
			count += r.Count()
		}
		if i != idx && count < best {
			best, sibling = count, i
		}
	}
	if err := c.moveSlots(victim, n.Map.Blocks[sibling], victim.Slots, false); err != nil {
		return err
	}
	n.Map.Blocks[sibling].Slots = ds.AddRanges(n.Map.Blocks[sibling].Slots, victim.Slots)
	c.release(victim.Replicas())
	n.Map.Blocks = append(n.Map.Blocks[:idx], n.Map.Blocks[idx+1:]...)
	return nil
}
