package controller

import (
	"fmt"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/hierarchy"
	"jiffy/internal/proto"
)

// manifest records a flushed prefix's layout so Load can rebuild the
// partition map exactly (block roles, slots, chunk indices).
type manifest struct {
	Type      core.DSType
	NumSlots  int
	ChunkSize int
	Entries   []manifestEntry
}

// manifestEntry pairs a flushed block's role with the key of its JTO1
// object and the envelope identity FlushBlock reported for it, which
// LoadBlock checks before restoring anything.
type manifestEntry struct {
	Chunk int
	Slots []ds.SlotRange
	Key   string
	Block core.BlockID
	Gen   uint64
}

// source names the entry's object as a fill source.
func (me manifestEntry) source() fillSource {
	return fillSource{key: me.Key, block: me.Block, gen: me.Gen}
}

// autoFlushKey is where lease expiry flushes a prefix.
func autoFlushKey(path core.Path) string { return "jiffy-flush/" + string(path) }

// FlushPrefix implements flushAddrPrefix (§4.1): snapshot every block
// of the prefix into the persistent store under externalPath. Data
// stays in memory; this is a checkpoint, not a reclaim.
func (c *Controller) FlushPrefix(path core.Path, externalPath string) (int, error) {
	count := 0
	err := c.withJob(path.Job(), func(h *hierarchy.Hierarchy) error {
		n, err := h.Resolve(path)
		if err != nil {
			return err
		}
		var cnt int
		cnt, err = c.flushLocked(n, externalPath)
		count = cnt
		if err == nil {
			c.commitNodeLocked(n.Job, n)
		}
		return err
	})
	return count, err
}

// flushLocked writes a node's blocks and manifest to the persistent
// store. Caller holds the shard lock.
func (c *Controller) flushLocked(n *hierarchy.Node, externalPath string) (int, error) {
	if externalPath == "" {
		externalPath = autoFlushKey(n.CanonicalPath())
	}
	m := manifest{
		Type:      n.Map.Type,
		NumSlots:  n.Map.NumSlots,
		ChunkSize: n.Map.ChunkSize,
	}
	for i, e := range n.Map.Blocks {
		key := fmt.Sprintf("%s/block-%d", externalPath, i)
		// Flush from the read target — under chain replication the
		// tail holds only fully propagated writes.
		obj, err := c.flushBlockOnServer(e.ReadTarget(), key)
		if err != nil {
			return i, err
		}
		m.Entries = append(m.Entries, manifestEntry{Chunk: e.Chunk, Slots: e.Slots, Key: key,
			Block: obj.Block, Gen: obj.Gen})
		c.flushBlocks.Add(1)
	}
	data, err := codec.Marshal(m)
	if err != nil {
		return len(m.Entries), err
	}
	if err := c.persist.Put(externalPath+"/manifest", data); err != nil {
		return len(m.Entries), err
	}
	n.FlushKey = externalPath
	return len(m.Entries), nil
}

// LoadPrefix implements loadAddrPrefix (§4.1): rebuild the prefix's
// blocks from a flushed snapshot, allocating fresh memory.
func (c *Controller) LoadPrefix(path core.Path, externalPath string) (proto.LoadPrefixResp, error) {
	var resp proto.LoadPrefixResp
	err := c.withJob(path.Job(), func(h *hierarchy.Hierarchy) error {
		n, err := h.Resolve(path)
		if err != nil {
			return err
		}
		if err := c.loadLocked(n, externalPath); err != nil {
			return err
		}
		c.commitNodeLocked(n.Job, n)
		resp.Map = n.Map.Clone()
		return nil
	})
	return resp, err
}

// readManifest is the one reader of a flush manifest: LoadPrefix
// rebuilds a prefix from it, and a death recovery finds a block's
// flushed copy in it.
func (c *Controller) readManifest(externalPath string) (manifest, error) {
	var m manifest
	data, err := c.persist.Get(externalPath + "/manifest")
	if err != nil {
		return m, fmt.Errorf("controller: load %q: %w", externalPath, err)
	}
	if err := codec.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("controller: load %q: %w", externalPath, err)
	}
	return m, nil
}

// loadLocked rebuilds a node's data from the persistent store onto
// fresh chains. Every entry is placed and filled before the node is
// touched, so a failure rolls back the new chains and leaves the prefix
// — its blocks, its map and what the standbys hold — as it was; only
// once the replacement exists are the old blocks released. Caller
// holds the shard lock and commits the node.
func (c *Controller) loadLocked(n *hierarchy.Node, externalPath string) error {
	if externalPath == "" {
		externalPath = n.FlushKey
	}
	if externalPath == "" {
		externalPath = autoFlushKey(n.CanonicalPath())
	}
	m, err := c.readManifest(externalPath)
	if err != nil {
		return err
	}
	blocks := make([]ds.PartitionEntry, len(m.Entries))
	for i, me := range m.Entries {
		blocks[i] = ds.PartitionEntry{Chunk: me.Chunk, Slots: me.Slots}
	}
	if err := c.place(n.CanonicalPath(), m.Type, blocks, nil, c.cfg.ChainLength); err != nil {
		return err
	}
	for i := 0; err == nil && i < len(blocks); i++ {
		err = c.fill(m.Entries[i].source(), blocks[i].Replicas())
	}
	if err == nil {
		err = c.linkQueue(m.Type, blocks)
	}
	if err != nil {
		c.releaseEntries(blocks)
		return err
	}
	c.releaseEntries(n.Map.Blocks)
	n.Map = ds.PartitionMap{
		Type:      m.Type,
		Epoch:     n.Map.Epoch + 1,
		NumSlots:  m.NumSlots,
		ChunkSize: m.ChunkSize,
		MaxBlocks: n.Map.MaxBlocks,
		Blocks:    blocks,
	}
	n.Flushed = false
	n.FlushKey = externalPath
	return nil
}
