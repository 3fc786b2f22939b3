package controller

import (
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/proto"
)

// Chain rebuilding (§4.2.2: "Jiffy supports chain replication at block
// granularity"). Every logical block is backed by a chain of
// Config.ChainLength physical blocks — clients write at the head and
// read at the tail; memory-server-side propagation lives in
// internal/server/replication.go. Whenever the controller puts a
// block's data onto a new chain it takes the same three steps, one
// function each:
//
//   - place allocates the members (the allocator's most-free placement
//     spreads them across servers) and creates each one with its
//     partition role and the whole chain recorded;
//   - fill has each new member load its data itself, from a live
//     member's snapshot or from a persisted object, so block bytes move
//     between memory servers and never through the controller;
//   - switchChain moves members to the chain under a new replication
//     generation, tail first.
//
// Provisioning, the scale-ups, the KV merge, LoadPrefix, the repair
// splice, drain migration and death recovery are those steps plus each
// caller's own fence and its own commit; whatever a caller placed but
// does not commit it gives back with release. DESIGN.md §13's rebuild
// table lists them side by side.

// place puts one chain per role onto the cluster and fills in each
// role's Info and Chain. A chain is keep — a splice's survivors, which
// exist already — followed by width new members, and every new member
// is created on its server with the role and the whole chain recorded.
// A member on an unreachable server evicts that server and the
// placement starts over from a fresh allocation, so the retry lands on
// healthy servers instead of looping on the dead one (the allocator's
// most-free placement would otherwise keep choosing it: a dead server
// stops consuming blocks, so its free count only looks better). Any
// other failure deletes and frees everything this call created.
func (c *Controller) place(path core.Path, t core.DSType, roles []ds.PartitionEntry,
	keep core.ReplicaChain, width int) error {
	for {
		infos, err := c.alloc.Allocate(len(roles) * width)
		if err != nil {
			return err
		}
		created := 0
		for i := 0; err == nil && i < len(roles); i++ {
			chain := core.ReplicaChain(infos[i*width : (i+1)*width : (i+1)*width])
			if len(keep) > 0 {
				chain = append(append(core.ReplicaChain(nil), keep...), chain...)
			}
			r := &roles[i]
			r.Info, r.Chain = chain.Head(), chainField(chain)
			for _, m := range chain[len(keep):] {
				if err = c.createBlockOnServer(m, path, t, r.Chunk, r.Slots, r.Chain); err != nil {
					break
				}
				created++
			}
		}
		if err == nil {
			return nil
		}
		for _, m := range infos[:created] {
			c.deleteBlockOnServer(m)
		}
		c.alloc.Free(infos)
		addr := unreachableAddr(err)
		if addr == "" {
			return err
		}
		c.evictServer(addr)
	}
}

// fillSource is where a fill takes a block's data from: a live member,
// whose snapshot every target pulls from it, or a persisted JTO1 object
// (internal/tier) that every target reads. An object is refused unless
// its envelope carries the identity the caller's metadata recorded for
// it — the tier record's, or the one the flush manifest entry kept from
// FlushBlock. A live source with slots set is a KV split's or merge's
// donor: each target pulls only its pairs in those slots, which replace
// the target's there without changing what it owns.
type fillSource struct {
	live  core.BlockInfo // a live member; zero for a persisted object
	slots []ds.SlotRange // a live KV member's slots to pull; nil for all
	key   string         // the object's key, and its identity:
	block core.BlockID
	gen   uint64
	tier  bool // the object is a tier record's (counts a tier recovery)
}

// fill has every target load src's data with one LoadBlock, which the
// server refuses for a persisted object whose envelope is not src's.
// Targets are new members only — survivors are never restored, so
// writes racing a splice cannot be clobbered by an older snapshot — or,
// for a slot pull, the members of a chain that does not own the slots.
// A member on an unreachable server evicts that server; when a target
// answered but its pull failed, only the controller's own probe can
// find a live source unreachable.
func (c *Controller) fill(src fillSource, targets core.ReplicaChain) error {
	var err error
	for i := 0; err == nil && i < len(targets); i++ {
		_, err = callServer(c, targets[i].Server, proto.LoadBlock, proto.LoadBlockReq{Block: targets[i].ID,
			Key: src.key, WantBlock: src.block, WantGen: src.gen, From: src.live, Slots: src.slots})
	}
	if err != nil && unreachableAddr(err) == "" && src.live.Server != "" {
		if _, perr := callServer(c, src.live.Server, proto.ServerStats, proto.ServerStatsReq{}); unreachableAddr(perr) != "" {
			err = perr
		}
	}
	if addr := unreachableAddr(err); addr != "" {
		c.evictServer(addr)
	}
	return err
}

// switchChain moves chain[lo:hi] to chain under generation gen, tail
// first, so no member starts forwarding a generation's stream before
// everything downstream of it is installed (see repair.go). A member
// gets one retry; a connectivity-class failure evicts its server, so
// the caller's restarted rebuild (and the server's own death repair)
// observe it dead instead of leaving it wedged on the old generation.
func (c *Controller) switchChain(chain core.ReplicaChain, gen uint64, lo, hi int) error {
	for i := hi - 1; i >= lo; i-- {
		err := c.updateChainOnServer(chain[i], chainField(chain), gen)
		if err != nil {
			err = c.updateChainOnServer(chain[i], chainField(chain), gen)
		}
		if err != nil {
			if addr := unreachableAddr(err); addr != "" {
				c.evictServer(addr)
			}
			c.log.Warn("controller: chain switch failed",
				"block", chain[i].ID, "on", chain[i].Server, "err", err)
			return err
		}
	}
	return nil
}

// release deletes blocks on their servers and returns them to the free
// list: the rollback of a placement nobody committed, and the reclaim
// of chains nobody references any more.
func (c *Controller) release(members core.ReplicaChain) {
	if len(members) == 0 {
		return
	}
	for _, m := range members {
		c.deleteBlockOnServer(m)
	}
	c.alloc.Free(members)
}

// releaseEntries releases every member of every entry.
func (c *Controller) releaseEntries(entries []ds.PartitionEntry) {
	var members core.ReplicaChain
	for _, e := range entries {
		members = append(members, e.Replicas()...)
	}
	c.release(members)
}

// chainField returns the chain to record in metadata and on blocks:
// nil for the unreplicated common case (so single-replica deployments
// carry no extra bytes anywhere).
func chainField(chain core.ReplicaChain) core.ReplicaChain {
	if len(chain) <= 1 {
		return nil
	}
	return chain
}

// linkQueue seals each segment of a queue toward its successor, the
// linked list a provisioned or loaded queue starts as.
func (c *Controller) linkQueue(t core.DSType, blocks []ds.PartitionEntry) error {
	for i := 0; t == core.DSQueue && i+1 < len(blocks); i++ {
		if err := c.setNextOnChain(blocks[i], blocks[i+1].Info); err != nil {
			return err
		}
	}
	return nil
}

// setNextOnChain seals a queue tail by linking it to the successor
// chain's head. The seal is sent to the tail's chain head only: it is
// a sequenced mutation, so the server propagates it down the chain in
// order with the enqueues that preceded it.
func (c *Controller) setNextOnChain(tail ds.PartitionEntry, next core.BlockInfo) error {
	head := tail.WriteTarget()
	_, err := callServer(c, head.Server, proto.SetNext, proto.SetNextReq{Block: head.ID, Next: next})
	return err
}
