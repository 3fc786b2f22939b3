package controller

import (
	"fmt"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/hierarchy"
	"jiffy/internal/rpc"
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

// SaveState checkpoints the controller's metadata into the persistent
// store under key.
func (c *Controller) SaveState(key string) error {
	data, err := rpc.Marshal(c.buildImage())
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
	if err := rpc.Unmarshal(data, &img); err != nil {
		return err
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

// restoreJob rebuilds one hierarchy from its image.
func restoreJob(img jobImage, now time.Time) (*hierarchy.Hierarchy, error) {
	if len(img.Nodes) == 0 {
		return nil, fmt.Errorf("controller: empty job image for %q", img.Job)
	}
	h := hierarchy.New(img.Job, img.Nodes[0].LeaseDuration, now)
	for _, ni := range img.Nodes {
		if _, err := upsertNode(h, ni, now); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// upsertNode installs one node image in h: create-or-update by name,
// the first parent giving the canonical path and the rest DAG edges.
// Parents must already be present.
func upsertNode(h *hierarchy.Hierarchy, ni nodeImage, now time.Time) (*hierarchy.Node, error) {
	n, ok := h.Lookup(ni.Name)
	if !ok {
		if len(ni.Parents) == 0 {
			return nil, fmt.Errorf("controller: root image %q does not match job %q", ni.Name, h.Root().Name)
		}
		var paths []core.Path
		for _, p := range ni.Parents {
			pn, ok := h.Lookup(p)
			if !ok {
				return nil, fmt.Errorf("controller: image parent %q missing: %w", p, core.ErrNotFound)
			}
			paths = append(paths, pn.CanonicalPath())
		}
		created, err := h.Create(paths[0].MustChild(ni.Name), paths[1:], ni.Type, ni.LeaseDuration, now)
		if err != nil {
			return nil, err
		}
		n = created
	}
	n.LeaseDuration = ni.LeaseDuration
	n.LastRenewed = ni.LastRenewed
	n.Type = ni.Type
	n.Map = ni.Map
	n.Flushed = ni.Flushed
	n.FlushKey = ni.FlushKey
	n.Quota = ni.Quota
	return n, nil
}
