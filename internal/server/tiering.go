package server

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"jiffy/internal/blockstore"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
	"jiffy/internal/tier"
)

// This file implements the server half of cold-block tiering: the
// demotion worker that evicts cold blocks to the persist tier when the
// server crosses its memory watermark (or the block goes idle), and
// the transparent rehydrate-on-access path. Policy lives in
// internal/tier; this file owns the mechanics and their ordering
// guarantees:
//
//   - Demotion: flip the block to Demoting (new ops bounce at
//     BeginOp), wait for in-flight ops to drain, snapshot, write the
//     tier object, report the demotion to the controller, and only
//     then release the memory. Because the report lands before the
//     memory goes away, the controller's recorded tier key always
//     covers every acknowledged write — a tiered block survives its
//     whole chain dying.
//   - Rehydration: restore the partition from the tier object and
//     report the promotion to the controller before the block starts
//     serving again, so no write can be acknowledged while the
//     controller still believes a stale tier object is authoritative.
//
// Both transitions serialize on the block's TierMu; the data path
// never takes that lock — it pins residency with two atomic ops
// (BeginOp/EndOp) and stamps heat with one more.

// tieringConfigured reports whether any demotion trigger is enabled.
func (s *Server) tieringConfigured() bool {
	return s.cfg.MemoryWatermarkBytes > 0 || s.cfg.TierIdleAfter > 0
}

// tierWorker paces periodic demotion scans.
func (s *Server) tierWorker() {
	defer s.wg.Done()
	t := s.clk.NewTimer(s.cfg.TierScanPeriod)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C():
			if _, err := s.TierTickNow(); err != nil {
				s.log.Debug("server: tier scan failed", "err", err)
			}
			t.Reset(s.cfg.TierScanPeriod)
		}
	}
}

// TierTickNow runs one demotion scan synchronously: refresh the heat
// clock, evaluate the policy over resident blocks, and demote the
// planned victims. It returns the number of blocks demoted and the
// first demotion error (later victims are still attempted).
// Deterministic tests call this directly with TierScanPeriod=0, the
// same idiom as HeartbeatNow.
func (s *Server) TierTickNow() (int, error) {
	now := s.clk.Now()
	s.store.SetHeatNow(now.UnixNano())
	policy := tier.Policy{
		WatermarkBytes: s.cfg.MemoryWatermarkBytes,
		Cooldown:       s.cfg.TierCooldown,
		IdleAfter:      s.cfg.TierIdleAfter,
	}
	blocks := s.store.List()
	byID := make(map[core.BlockID]*blockstore.Block, len(blocks))
	cands := make([]tier.Candidate, 0, len(blocks))
	for _, b := range blocks {
		if b.TierState() != blockstore.TierMemory {
			continue
		}
		byID[b.ID] = b
		cands = append(cands, tier.Candidate{
			ID:         b.ID,
			Bytes:      int64(b.Partition.Bytes()),
			LastAccess: time.Unix(0, b.LastAccess()),
			PromotedAt: time.Unix(0, b.PromotedAt()),
			Pinned:     b.Sealed(),
		})
	}
	demoted := 0
	var firstErr error
	for _, id := range policy.Plan(now, cands) {
		ok, err := s.demoteBlock(byID[id])
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ok {
			demoted++
		}
	}
	return demoted, firstErr
}

// tierKeyFor names the persist-tier object for one demotion of b. The
// generation suffix makes keys unique across demote/rehydrate cycles,
// so a slow delete of the old object can never clobber a new one.
func (s *Server) tierKeyFor(b *blockstore.Block, gen uint64) string {
	return fmt.Sprintf("jiffy-tier/%s/%d/%d", s.addr, uint64(b.ID), gen)
}

// demoteBlock evicts one block to the persist tier. Returns false when
// the block was skipped (no longer resident, or sealed). See the file
// comment for the ordering argument.
func (s *Server) demoteBlock(b *blockstore.Block) (bool, error) {
	b.TierMu.Lock()
	defer b.TierMu.Unlock()
	if b.TierState() != blockstore.TierMemory || b.Sealed() {
		return false, nil
	}
	// Fence new ops, then wait out the ones already pinned. Ops are
	// normally short, so this drains in microseconds — but a pinned
	// replica op can legitimately park in ApplyInOrder waiting for an
	// earlier sequence number whose carrier is itself stuck behind this
	// demotion, so the wait must be bounded: give up, unfence, and let
	// the next scan retry once the stream has drained.
	b.SetTierState(blockstore.TierDemoting)
	const drainSpins = 100_000
	for i := 0; b.Inflight() != 0; i++ {
		if i >= drainSpins {
			b.SetTierState(blockstore.TierMemory)
			return false, nil
		}
		runtime.Gosched()
	}
	revert := func() { b.SetTierState(blockstore.TierMemory) }

	snap, err := b.Partition.Snapshot()
	if err != nil {
		revert()
		return false, fmt.Errorf("server: demote %v: snapshot: %w", b.ID, err)
	}
	gen := b.TierGen + 1
	key := s.tierKeyFor(b, gen)
	if err := s.persist.Put(key, encodeObject(b, gen, snap)); err != nil {
		revert()
		return false, fmt.Errorf("server: demote %v: persist: %w", b.ID, err)
	}
	// The controller must record the tier key before the memory copy
	// disappears: once this report lands, the block is recoverable from
	// the persist tier even if this whole server dies.
	if err := s.reportTier(b.ID, b.Path, key, gen, true); err != nil {
		_ = s.persist.Delete(key)
		revert()
		return false, fmt.Errorf("server: demote %v: report: %w", b.ID, err)
	}
	oldKey := b.TierKey
	b.TierGen = gen
	b.TierKey = key
	// Release the memory by restoring an empty partition of the same
	// shape. The real contents now live (only) in the tier object.
	if empty := emptySnapshot(b); empty != nil {
		if err := b.Partition.Restore(empty); err != nil {
			// The tier object is valid and recorded; serving resumes
			// from memory. Next scan retries the demotion.
			revert()
			return false, fmt.Errorf("server: demote %v: release: %w", b.ID, err)
		}
	}
	b.SetTierState(blockstore.TierTiered)
	if oldKey != "" {
		_ = s.persist.Delete(oldKey) // superseded by the new generation
	}
	s.tierDemotions.Inc()
	return true, nil
}

// emptySnapshot builds a zero-entry snapshot matching b's partition
// shape, used to release a demoted block's memory. Nil means the
// shape could not be rebuilt (custom types); the demotion then keeps
// the memory copy and is effectively a no-op, which is safe.
func emptySnapshot(b *blockstore.Block) []byte {
	p, err := ds.New(b.Partition.Type(), b.Partition.Capacity(), b.NumSlots)
	if err != nil {
		return nil
	}
	snap, err := p.Snapshot()
	if err != nil {
		return nil
	}
	return snap
}

// rehydrateBlock restores a tiered block from the persist tier. Called
// from the resolve loop when an op finds the block not resident; by
// the time it returns nil the block is serving from memory again and
// the controller has cleared its tier record. Idempotent: concurrent
// callers serialize on TierMu and the losers find the block already
// resident.
func (s *Server) rehydrateBlock(b *blockstore.Block) error {
	b.TierMu.Lock()
	defer b.TierMu.Unlock()
	if b.TierState() == blockstore.TierMemory {
		return nil
	}
	_, obj, err := s.readObject(b.TierKey, b.ID, b.TierGen)
	if err != nil {
		return fmt.Errorf("server: rehydrate %v: %w", b.ID, err)
	}
	if err := b.Partition.Restore(obj.Snapshot); err != nil {
		return fmt.Errorf("server: rehydrate %v: restore: %w", b.ID, err)
	}
	// The controller must forget the tier key before the block serves
	// again: otherwise a later chain repair could resurrect the stale
	// tier object over writes acknowledged after this rehydration. A
	// failed report fails the op; the client retries and sees latency,
	// not data loss.
	if err := s.reportTier(b.ID, b.Path, b.TierKey, b.TierGen, false); err != nil {
		return fmt.Errorf("server: rehydrate %v: report: %w", b.ID, err)
	}
	_ = s.persist.Delete(b.TierKey) // best-effort GC; key is generation-unique
	b.TierKey = ""
	now := s.clk.Now().UnixNano()
	b.SetPromotedAt(now)
	b.Touch(now)
	b.SetTierState(blockstore.TierMemory)
	s.tierPromotions.Inc()
	s.tierRehydrateBytes.Add(int64(len(obj.Snapshot)))
	return nil
}

// encodeObject stamps a snapshot of b as the JTO1 object of
// generation gen — the one format of a block in the persist tier,
// written by demotion and by flush alike.
func encodeObject(b *blockstore.Block, gen uint64, snap []byte) []byte {
	return tier.Encode(tier.Object{
		Block:    b.ID,
		Gen:      gen,
		Type:     b.Partition.Type(),
		Capacity: b.Partition.Capacity(),
		NumSlots: b.NumSlots,
		Chunk:    b.Chunk,
		Snapshot: snap,
	})
}

// readObject is the one reader of a block object in the persist tier,
// shared by rehydration, LoadBlock and the flush of a demoted block: it
// checks the envelope's CRC and that the object is the (block, gen) the
// caller's metadata recorded, and returns the raw bytes with the
// decoded object, whose snapshot aliases them.
func (s *Server) readObject(key string, block core.BlockID, gen uint64) ([]byte, tier.Object, error) {
	data, err := s.persist.Get(key)
	if err != nil {
		return nil, tier.Object{}, fmt.Errorf("persist get %q: %w", key, err)
	}
	obj, err := tier.Decode(data)
	if err == nil && (obj.Block != block || obj.Gen != gen) {
		err = fmt.Errorf("%w: %q holds block %v gen %d, want block %v gen %d",
			tier.ErrBadObject, key, obj.Block, obj.Gen, block, gen)
	}
	return data, obj, err
}

// reportTier synchronously records a tier transition with the
// controller. With no controller configured (unit tests) the local
// transition proceeds unrecorded.
func (s *Server) reportTier(id core.BlockID, path core.Path, key string, gen uint64, demoted bool) error {
	if len(s.ctrlAddrs) == 0 {
		return nil
	}
	_, err := rpc.Invoke(context.Background(), s.ctrl, proto.ReportTier, proto.ReportTierReq{
		Server:  s.addr,
		Block:   id,
		Path:    path,
		Key:     key,
		Gen:     gen,
		Demoted: demoted,
	})
	return err
}
