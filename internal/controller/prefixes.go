package controller

import (
	"fmt"
	"slices"
	"strings"

	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/hierarchy"
	"jiffy/internal/proto"
)

// CreatePrefix implements createAddrPrefix (§4.1): adds a node to the
// job's hierarchy and, when a data structure type is given, provisions
// its initial blocks.
func (c *Controller) CreatePrefix(req proto.CreatePrefixReq) (proto.CreatePrefixResp, error) {
	var resp proto.CreatePrefixResp
	lease := req.LeaseDuration
	if lease <= 0 {
		lease = c.cfg.LeaseDuration
	}
	err := c.withJob(req.Path.Job(), func(h *hierarchy.Hierarchy) error {
		n, err := h.Create(req.Path, req.Parents, req.Type, lease, c.clk.Now())
		if err != nil {
			return err
		}
		if req.Type != core.DSNone {
			if err := c.provisionLocked(n, req.Type, req.InitialBlocks, req.MaxBlocks); err != nil {
				// Roll the node back so a retry can succeed.
				h.Remove(n.Name)
				return err
			}
		}
		c.commitNodeLocked(n.Job, n)
		resp.Map = n.Map.Clone()
		resp.LeaseDuration = lease
		return nil
	})
	return resp, err
}

// provisionLocked places a data structure's initial blocks and
// installs its map on the node; a failure leaves nothing behind. Caller
// holds the shard lock and commits the node.
func (c *Controller) provisionLocked(n *hierarchy.Node, t core.DSType, initialBlocks, maxBlocks int) error {
	if t != core.DSFile && t != core.DSQueue && t != core.DSKV && !ds.IsCustom(t) {
		return fmt.Errorf("controller: %w: %v", core.ErrWrongType, t)
	}
	if initialBlocks <= 0 {
		initialBlocks = 1
	}
	if maxBlocks > 0 && initialBlocks > maxBlocks {
		initialBlocks = maxBlocks
	}
	if t == core.DSKV && initialBlocks > c.cfg.NumHashSlots {
		initialBlocks = c.cfg.NumHashSlots
	}
	if err := c.checkMemoryQuotaLocked(n, initialBlocks*c.cfg.ChainLength); err != nil {
		return err
	}
	m := ds.PartitionMap{Type: t, Epoch: 1, MaxBlocks: maxBlocks, Blocks: make([]ds.PartitionEntry, initialBlocks)}
	if t == core.DSKV {
		m.NumSlots = c.cfg.NumHashSlots
	} else if t != core.DSQueue {
		// Files, and custom structures with file-like elasticity:
		// chunk-indexed blocks, scale-up appends.
		m.ChunkSize = c.cfg.BlockSize
	}
	per := c.cfg.NumHashSlots / initialBlocks
	for i := range m.Blocks {
		m.Blocks[i].Chunk = i
		if t == core.DSKV {
			hi := (i+1)*per - 1
			if i == initialBlocks-1 {
				hi = c.cfg.NumHashSlots - 1
			}
			m.Blocks[i].Slots = []ds.SlotRange{{Lo: i * per, Hi: hi}}
		}
	}
	if err := c.place(n.CanonicalPath(), t, m.Blocks, nil, c.cfg.ChainLength); err != nil {
		return err
	}
	// Pre-provisioned queue segments form a linked list up front.
	if err := c.linkQueue(t, m.Blocks); err != nil {
		c.releaseEntries(m.Blocks)
		return err
	}
	n.Map = m
	return nil
}

// CreateHierarchy implements createHierarchy (§4.1): builds the whole
// address hierarchy from an execution DAG in one call. Nodes must be
// listed parents-before-children.
func (c *Controller) CreateHierarchy(req proto.CreateHierarchyReq) error {
	lease := req.LeaseDuration
	if lease <= 0 {
		lease = c.cfg.LeaseDuration
	}
	// Every name is checked before any node is made: a bad name later
	// in the DAG must not leave the nodes before it behind.
	for _, node := range req.Nodes {
		if err := core.ValidateComponent(node.Name); err != nil {
			return fmt.Errorf("controller: dag node %q: %w", node.Name, err)
		}
	}
	return c.withJob(req.Job, func(h *hierarchy.Hierarchy) error {
		var buf [4]*hierarchy.Node
		for _, node := range req.Nodes {
			parents := buf[:0]
			if len(node.Parents) == 0 {
				parents = append(parents, h.Root())
			}
			for _, p := range node.Parents {
				pn, ok := h.Lookup(p)
				if !ok {
					return fmt.Errorf("controller: dag parent %q: %w", p, core.ErrNotFound)
				}
				parents = append(parents, pn)
			}
			n, err := h.Add(node.Name, parents, node.Type, lease, c.clk.Now())
			if err != nil {
				return err
			}
			if node.Type != core.DSNone {
				if err := c.provisionLocked(n, node.Type, node.InitialBlocks, node.MaxBlocks); err != nil {
					// Roll the node back, as CreatePrefix does.
					h.Remove(n.Name)
					return err
				}
			}
			c.commitNodeLocked(n.Job, n)
		}
		return nil
	})
}

// RemovePrefix explicitly reclaims a prefix and its blocks (the
// "application explicitly reclaims" path of §3.1).
func (c *Controller) RemovePrefix(path core.Path) error {
	return c.withJob(path.Job(), func(h *hierarchy.Hierarchy) error {
		n, err := h.Resolve(path)
		if err != nil {
			return err
		}
		if err := c.applyRemoveNode(c.shardFor(n.Job), replOp{Kind: opRemoveNode, Job: n.Job, Name: n.Name}); err != nil {
			// The node stays (it still has children): release its blocks
			// and replicate its emptied partition map instead.
			c.releaseBlocksLocked(n)
			c.commitNodeLocked(n.Job, n)
			return err
		}
		c.releaseEntries(n.Map.Blocks)
		return nil
	})
}

// RenewLease implements the renewal service: refresh the given
// prefixes plus their propagation sets (§3.2). The batch stops at the
// first path that does not resolve; the paths before it are renewed.
// A renewal is leader-local and emits no op-log entry: a promoted or
// restored controller grants every lease a full term instead
// (rebuildAllocator), so no lease expires earlier than the leader's.
func (c *Controller) RenewLease(paths []core.Path) (int, error) {
	c.renews.Add(1)
	var buf [8]int
	defer c.unlockShards(c.lockPaths(buf[:0], paths))
	now := c.clk.Now()
	total := 0
	for _, p := range paths {
		h, err := c.shardFor(p.Job()).job(p.Job())
		if err != nil {
			return total, err
		}
		n, err := h.Renew(p, now)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// LeaseInfo reports a prefix's lease configuration and state.
func (c *Controller) LeaseInfo(path core.Path) (proto.LeaseInfoResp, error) {
	var resp proto.LeaseInfoResp
	err := c.withJob(path.Job(), func(h *hierarchy.Hierarchy) error {
		n, err := h.Resolve(path)
		if err != nil {
			return err
		}
		resp.Duration = n.LeaseDuration
		resp.LastRenewed = n.LastRenewed
		return nil
	})
	return resp, err
}

// Open returns a prefix's current partition map (the client-side
// handle acquisition of initDataStructure). Opening a flushed prefix
// reloads it from the persistent tier first.
func (c *Controller) Open(path core.Path) (proto.OpenResp, error) {
	var resp proto.OpenResp
	err := c.withJob(path.Job(), func(h *hierarchy.Hierarchy) error {
		n, err := h.Resolve(path)
		if err != nil {
			return err
		}
		if n.Type == core.DSNone {
			return fmt.Errorf("controller: prefix %q has no data structure: %w",
				path, core.ErrWrongType)
		}
		if n.Flushed {
			if err := c.loadLocked(n, n.FlushKey); err != nil {
				return err
			}
			c.commitNodeLocked(n.Job, n)
		}
		resp.Map = n.Map.Clone()
		resp.LeaseDuration = n.LeaseDuration
		return nil
	})
	if err == nil {
		// Tell the client which servers are on gray-failure probation so
		// its hedge-target ranking skips them.
		resp.Probation = c.ProbationList()
	}
	return resp, err
}

// ListPrefixes reports a job's hierarchy (CLI/diagnostics), sorted by
// canonical path.
func (c *Controller) ListPrefixes(job core.JobID) (proto.ListPrefixesResp, error) {
	var resp proto.ListPrefixesResp
	err := c.withJob(job, func(h *hierarchy.Hierarchy) error {
		h.Walk(func(n *hierarchy.Node) bool {
			resp.Prefixes = append(resp.Prefixes, proto.PrefixInfo{
				Path:        n.CanonicalPath(),
				Type:        n.Type,
				Blocks:      len(n.Map.Blocks),
				LastRenewed: n.LastRenewed,
			})
			return true
		})
		slices.SortFunc(resp.Prefixes, func(a, b proto.PrefixInfo) int { return strings.Compare(string(a.Path), string(b.Path)) })
		return nil
	})
	return resp, err
}

// Stats reports controller-wide statistics, including the metadata
// footprint measured in §6.4.
func (c *Controller) Stats() proto.ControllerStatsResp {
	total, free, servers := c.alloc.Stats()
	resp := proto.ControllerStatsResp{
		TotalBlocks:     total,
		FreeBlocks:      free,
		AllocatedBlocks: total - free,
		Servers:         servers,
		DegradedServers: c.ProbationList(),
	}
	for _, s := range c.shards {
		s.mu.Lock()
		resp.Jobs += len(s.jobs)
		for _, h := range s.jobs {
			resp.Prefixes += h.Len()
			resp.MetadataBytes += h.MetadataBytes()
		}
		s.mu.Unlock()
	}
	return resp
}
