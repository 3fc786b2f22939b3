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
// specific repartitioning, and advance the map epoch. Signals may be
// stale (the structure already scaled, or the block is no longer the
// relevant one); those return the current map unchanged so the caller
// simply refreshes.
func (c *Controller) ScaleUp(req proto.ScaleUpReq) (proto.ScaleUpResp, error) {
	var resp proto.ScaleUpResp
	err := c.withJob(req.Path.Job(), func(h *hierarchy.Hierarchy) error {
		n, err := h.Resolve(req.Path)
		if err != nil {
			return err
		}
		defer func() { resp.Map = n.Map.Clone() }()
		idx := blockIndex(&n.Map, req.Block)
		if idx < 0 {
			return nil // stale signal: block already gone
		}
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
	return resp, err
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
	n.Map.Epoch++
	c.commitNodeLocked(n.Job, n)
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
	n.Map.Epoch++
	c.commitNodeLocked(n.Job, n)
	return nil
}

// scaleUpKV splits an overloaded shard: reassign the upper half of its
// hash slots to a new block and move the corresponding pairs (§5.3).
// The controller owns the authoritative slot assignment, so it computes
// the split itself and ships only the move to the data plane.
func (c *Controller) scaleUpKV(n *hierarchy.Node, idx int) error {
	donor := &n.Map.Blocks[idx]
	upper := upperHalf(donor.Slots)
	if upper == nil {
		return nil // single-slot shard; cannot split further
	}
	// The new chain starts owning nothing; the move transfers ownership
	// along with the data into every member.
	added := []ds.PartitionEntry{{}}
	if err := c.place(n.CanonicalPath(), core.DSKV, added, nil, c.cfg.ChainLength); err != nil {
		return err
	}
	added[0].Slots = upper
	if err := c.moveSlotRanges(*donor, upper, added[0].Replicas()); err != nil {
		c.releaseEntries(added)
		return err
	}
	donor.Slots = subtractAll(donor.Slots, upper)
	n.Map.Blocks = append(n.Map.Blocks, added[0])
	n.Map.Epoch++
	c.commitNodeLocked(n.Job, n)
	return nil
}

// moveSlotRanges moves ranges — pairs and slot ownership — from every
// replica of donor into every member of targets. It deliberately never
// restores a live replica from a snapshot: a restore would clobber
// writes the chain acknowledged while the snapshot was in flight (the
// repair path obeys the same rule — survivors are never restored).
//
// Exports run tail first. The tail holds exactly the acknowledged
// prefix of the chain, so once its export succeeds no acknowledged pair
// can be lost; upstream members' exports land on the targets afterwards
// in chain order, so the head's (newest) value of each moved key wins.
// A write racing the move is either captured by an upstream export or
// rejected once its replica has disowned the slot — rejected writes are
// never acknowledged and the client retries against the refreshed map.
func (c *Controller) moveSlotRanges(donor ds.PartitionEntry, ranges []ds.SlotRange,
	targets core.ReplicaChain) error {
	members := donor.Replicas()
	var exports [][]ds.KVEntry
	var sources core.ReplicaChain
	// undo re-imports everything exported so far back into its source
	// replica, restoring pairs and ownership.
	undo := func() {
		for i := range exports {
			if err := c.importEntriesOnServer(sources[i], ranges, exports[i]); err != nil {
				c.log.Warn("controller: slot-move undo failed; replica dropped moved pairs",
					"block", sources[i].ID, "on", sources[i].Server, "err", err)
			}
		}
	}
	for i := len(members) - 1; i >= 0; i-- {
		entries, err := c.exportSlotsOnServer(members[i], ranges)
		if err != nil {
			undo()
			return err
		}
		exports = append(exports, entries)
		sources = append(sources, members[i])
	}
	for _, entries := range exports {
		for _, t := range targets {
			err := c.importEntriesOnServer(t, ranges, entries)
			if err != nil {
				err = c.importEntriesOnServer(t, ranges, entries)
			}
			if err != nil {
				undo()
				return err
			}
		}
	}
	return nil
}

// ScaleDown handles an underload signal: merge the block's contents
// into a sibling (KV), or reclaim a drained head segment (queue), then
// return the block to the free list. File structures never shrink
// (append-only; §5.1).
func (c *Controller) ScaleDown(req proto.ScaleDownReq) (proto.ScaleDownResp, error) {
	var resp proto.ScaleDownResp
	err := c.withJob(req.Path.Job(), func(h *hierarchy.Hierarchy) error {
		n, err := h.Resolve(req.Path)
		if err != nil {
			return err
		}
		defer func() { resp.Map = n.Map.Clone() }()
		idx := blockIndex(&n.Map, req.Block)
		if idx < 0 {
			return nil // stale
		}
		switch n.Map.Type {
		case core.DSQueue:
			return c.scaleDownQueue(n, idx)
		case core.DSKV:
			return c.scaleDownKV(n, idx)
		default:
			return nil
		}
	})
	if err == nil {
		c.scaleDowns.Add(1)
	}
	return resp, err
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
	n.Map.Epoch++
	c.commitNodeLocked(n.Job, n)
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
	sibling := -1
	best := 1 << 30
	for i, e := range n.Map.Blocks {
		if i == idx {
			continue
		}
		count := 0
		for _, r := range e.Slots {
			count += r.Count()
		}
		if count < best {
			best, sibling = count, i
		}
	}
	// Move into every sibling replica directly: restoring the live
	// sibling chain from a snapshot would clobber writes it acked while
	// the snapshot was in flight (see moveSlotRanges).
	if err := c.moveSlotRanges(victim, victim.Slots,
		n.Map.Blocks[sibling].Replicas()); err != nil {
		return err
	}
	n.Map.Blocks[sibling].Slots = unionAll(n.Map.Blocks[sibling].Slots, victim.Slots)
	c.release(victim.Replicas())
	n.Map.Blocks = append(n.Map.Blocks[:idx], n.Map.Blocks[idx+1:]...)
	n.Map.Epoch++
	c.commitNodeLocked(n.Job, n)
	return nil
}

// upperHalf returns the top half of the slots covered by ranges, or
// nil when fewer than two slots are owned. Mirrors ds.(*KV).SplitUpper
// but runs on the controller's authoritative metadata.
func upperHalf(ranges []ds.SlotRange) []ds.SlotRange {
	total := 0
	for _, r := range ranges {
		total += r.Count()
	}
	if total < 2 {
		return nil
	}
	want := total / 2
	// Take slots from the high end.
	sorted := append([]ds.SlotRange(nil), ranges...)
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j].Lo > sorted[i].Lo {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	var out []ds.SlotRange
	for _, r := range sorted {
		if want == 0 {
			break
		}
		take := r.Count()
		if take > want {
			take = want
		}
		out = append(out, ds.SlotRange{Lo: r.Hi - take + 1, Hi: r.Hi})
		want -= take
	}
	return out
}

// subtractAll removes sub from ranges slot-accurately.
func subtractAll(ranges, sub []ds.SlotRange) []ds.SlotRange {
	out := append([]ds.SlotRange(nil), ranges...)
	for _, s := range sub {
		next := out[:0:0]
		for _, r := range out {
			if s.Hi < r.Lo || s.Lo > r.Hi {
				next = append(next, r)
				continue
			}
			if r.Lo < s.Lo {
				next = append(next, ds.SlotRange{Lo: r.Lo, Hi: s.Lo - 1})
			}
			if r.Hi > s.Hi {
				next = append(next, ds.SlotRange{Lo: s.Hi + 1, Hi: r.Hi})
			}
		}
		out = next
	}
	return out
}

// unionAll merges two range sets (no coalescing needed for
// correctness, but adjacent ranges are joined for compactness).
func unionAll(a, b []ds.SlotRange) []ds.SlotRange {
	all := append(append([]ds.SlotRange(nil), a...), b...)
	if len(all) == 0 {
		return nil
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j].Lo < all[i].Lo {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	out := []ds.SlotRange{all[0]}
	for _, r := range all[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi+1 {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}
