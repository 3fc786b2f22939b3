package controller

import (
	"sync"
	"sync/atomic"

	"jiffy/internal/core"
	"jiffy/internal/proto"
)

// Tiered-block bookkeeping. Memory servers report every tier
// transition: a demotion before the in-memory copy is released, a
// promotion (rehydration) before the block serves again. The records
// live in their own map under their own mutex — never the job shard
// locks — because reports arrive synchronously from servers that may
// themselves be answering a shard-locked control RPC (e.g. a slot
// export that forced a rehydration); taking the shard lock here would
// deadlock that call.
//
// Records are keyed by (server, block): each chain member demotes
// independently, and a stale report from a member spliced out by a
// repair lands under a key no current chain references, so it is
// harmless. The generation fences demote/rehydrate races per member.
//
// The invariant that makes recovery safe: a recorded tier object
// always contains every acknowledged write of its block. Acknowledging
// a write requires every chain member to apply it, which forces a
// tiered member to rehydrate — and the rehydration clears the record
// before the op (and hence the ack) can proceed.

// tierRecord is the controller's view of one member's demoted block.
type tierRecord struct {
	Path core.Path
	Key  string
	Gen  uint64
}

// tierState is the controller-side tier table, embedded in Controller.
type tierState struct {
	mu      sync.Mutex
	records map[core.BlockInfo]tierRecord

	demotes    atomic.Int64
	promotes   atomic.Int64
	recoveries atomic.Int64
}

// ReportTier records one member's tier transition (see applyTier).
func (c *Controller) ReportTier(req proto.ReportTierReq) (proto.ReportTierResp, error) {
	c.applyTier(replOp{Kind: opTier, Tier: req})
	if req.Demoted {
		c.tiers.demotes.Add(1)
	} else {
		c.tiers.promotes.Add(1)
	}
	return proto.ReportTierResp{}, nil
}

// tierRecordFor looks up the record for one chain member.
func (c *Controller) tierRecordFor(info core.BlockInfo) (tierRecord, bool) {
	c.tiers.mu.Lock()
	defer c.tiers.mu.Unlock()
	rec, ok := c.tiers.records[info]
	return rec, ok
}

// dropTierRecord forgets a member's record, on the standbys too, and
// garbage-collects its persist-tier object. Called when the block is
// deleted or when a repair splices the member out (its object is either
// consumed by the recovery or stale).
func (c *Controller) dropTierRecord(info core.BlockInfo) {
	rec, ok := c.tierRecordFor(info)
	if ok {
		// Applied like the promotion of the recorded generation.
		c.applyTier(replOp{Kind: opTier, Tier: proto.ReportTierReq{Server: info.Server, Block: info.ID, Gen: rec.Gen}})
		if err := c.persist.Delete(rec.Key); err != nil {
			c.log.Debug("controller: tier object delete failed", "key", rec.Key, "err", err)
		}
	}
}

// tieredBlockCount returns the number of recorded tiered members, for
// the jiffy_ctrl_blocks_tiered gauge.
func (c *Controller) tieredBlockCount() int64 {
	c.tiers.mu.Lock()
	defer c.tiers.mu.Unlock()
	return int64(len(c.tiers.records))
}
