package controller

import (
	"fmt"
	"slices"
	"strings"
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
// names are unique per job). The image owns its partition map: it
// outlives the shard lock it was taken under.
func imageOfNode(n *hierarchy.Node) nodeImage {
	img := viewOfNode(n, nil)
	img.Map = img.Map.Clone()
	return img
}

// viewOfNode is imageOfNode without the copy: the parent names are
// appended to names and the partition map is n's own, so the view is
// good only while the caller holds n's shard lock and does not change
// n. The op-log encodes a node upsert from it (replicator.emitNode).
func viewOfNode(n *hierarchy.Node, names []string) nodeImage {
	for _, p := range n.Parents() {
		names = append(names, p.Name)
	}
	return nodeImage{
		Name:          n.Name,
		Parents:       names,
		LeaseDuration: n.LeaseDuration,
		LastRenewed:   n.LastRenewed,
		Type:          n.Type,
		Map:           n.Map,
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
// node can be reached before all of its parents have been visited). It
// walks depth-first from the root over children in name order and emits
// a node when its last parent has been emitted, so each node's image is
// built once and the order is deterministic.
func dumpJob(job core.JobID, h *hierarchy.Hierarchy) jobImage {
	var all []*hierarchy.Node
	h.Walk(func(n *hierarchy.Node) bool {
		all = append(all, n)
		return true
	})
	// Walk has no order; collecting the children of sorted nodes lists
	// every node's children in name order.
	slices.SortFunc(all, func(a, b *hierarchy.Node) int { return strings.Compare(a.Name, b.Name) })
	waiting := make(map[*hierarchy.Node]int, len(all)) // parents not yet emitted
	children := make(map[*hierarchy.Node][]*hierarchy.Node, len(all))
	for _, n := range all {
		ps := n.Parents()
		waiting[n] = len(ps)
		for _, p := range ps {
			children[p] = append(children[p], n)
		}
	}
	img := jobImage{Job: job, Nodes: make([]nodeImage, 0, len(all))}
	var emit func(n *hierarchy.Node)
	emit = func(n *hierarchy.Node) {
		img.Nodes = append(img.Nodes, imageOfNode(n))
		for _, c := range children[n] {
			// A node on a cycle (a hierarchy invariant violation) never
			// reaches zero and is left out rather than looped over.
			if waiting[c]--; waiting[c] == 0 {
				emit(c)
			}
		}
	}
	// Root first: restore re-creates it via hierarchy.New.
	emit(h.Root())
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
