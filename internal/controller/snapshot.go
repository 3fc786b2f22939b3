package controller

import (
	"fmt"
	"time"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/hierarchy"
)

// Controller state checkpointing. The paper adopts primary-backup
// fault tolerance for the control plane (§4.2.1, citing ZooKeeper-style
// mechanisms); the building block either way is a serializable image of
// the controller's system-wide state. There is one such image,
// groupImage (replication.go): the leader bootstraps standbys from it,
// and SaveState writes the same bytes to the persistent store, so a
// fresh controller started with RestoreState resumes exactly where a
// promoted standby would — serving the same jobs, whose data still
// lives untouched on the memory servers.

type jobImage struct {
	Job   core.JobID
	Nodes []nodeImage
}

// nodeImage serializes one hierarchy node; parents are recorded by
// name, and nodes are emitted parents-before-children so restoration
// can rebuild edges in one pass.
type nodeImage struct {
	Name          string
	Parents       []string
	LeaseDuration time.Duration
	LastRenewed   time.Time
	Type          core.DSType
	Map           ds.PartitionMap
	Flushed       bool
	FlushKey      string
	Quota         core.Quota
}

// imageOfNode serializes one node, parents by name (the hierarchy's
// names are unique per job).
func imageOfNode(n *hierarchy.Node) nodeImage {
	var parents []string
	for _, p := range n.Parents() {
		parents = append(parents, p.Name)
	}
	return nodeImage{
		Name:          n.Name,
		Parents:       parents,
		LeaseDuration: n.LeaseDuration,
		LastRenewed:   n.LastRenewed,
		Type:          n.Type,
		Map:           n.Map.Clone(),
		Flushed:       n.Flushed,
		FlushKey:      n.FlushKey,
		Quota:         n.Quota,
	}
}

// SaveState checkpoints the controller's metadata into the persistent
// store under key.
func (c *Controller) SaveState(key string) error {
	data, err := codec.Marshal(c.buildImage())
	if err != nil {
		return err
	}
	return c.persist.Put(key, data)
}

// dumpJob serializes one hierarchy strictly parents-before-children
// (topological order — plain DFS is not enough, since a multi-parent
// node can be reached before all of its parents have been visited).
func dumpJob(job core.JobID, h *hierarchy.Hierarchy) jobImage {
	// Root first: restore re-creates it via hierarchy.New.
	root := h.Root()
	img := jobImage{Job: job, Nodes: []nodeImage{imageOfNode(root)}}
	var all []*hierarchy.Node
	h.Walk(func(n *hierarchy.Node) bool {
		if n != root {
			all = append(all, n)
		}
		return true
	})
	emitted := map[string]bool{root.Name: true}
	for len(all) > 0 {
		progressed := false
		rest := all[:0]
		for _, n := range all {
			ni := imageOfNode(n)
			ready := true
			for _, p := range ni.Parents {
				if !emitted[p] {
					ready = false
				}
			}
			if !ready {
				rest = append(rest, n)
				continue
			}
			img.Nodes = append(img.Nodes, ni)
			emitted[n.Name] = true
			progressed = true
		}
		all = rest
		if !progressed {
			// A cycle would be a hierarchy invariant violation; emit
			// nothing further rather than looping forever.
			break
		}
	}
	return img
}

// RestoreState rebuilds the controller's metadata from a checkpoint:
// hierarchies with their server index, membership, dead and probation
// sets, tier records and tenant quotas come from the image, the free
// lists are derived from it the way a promoting standby derives them.
// Must be called on a fresh controller (no registered jobs); the memory
// servers referenced by the image must still hold their blocks.
func (c *Controller) RestoreState(key string) error {
	data, err := c.persist.Get(key)
	if err != nil {
		return fmt.Errorf("controller: restore %q: %w", key, err)
	}
	var img groupImage
	if err := codec.Unmarshal(data, &img); err != nil {
		return fmt.Errorf("controller: restore %q: %w", key, err)
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		n := len(sh.jobs)
		sh.mu.Unlock()
		if n > 0 {
			return fmt.Errorf("controller: restore onto %d registered jobs: %w", n, core.ErrExists)
		}
	}
	if err := c.applyImage(img); err != nil {
		return err
	}
	c.rebuildAllocator()
	return nil
}
