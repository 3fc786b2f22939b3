package server

import (
	"context"
	"fmt"

	"jiffy/internal/blockstore"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
)

// handle is the memory server's RPC dispatch. The three data-plane
// methods are the entries to the op path (oppath.go); every other
// method is served from the control table (buildTable).
func (s *Server) handle(ctx context.Context, conn *rpc.ServerConn, method uint16, payload []byte) (rpc.Response, error) {
	switch method {
	case proto.MethodDataOp:
		return s.runOp(ctx, conn, payload)
	case proto.MethodDataOpBatch:
		return s.runBatch(ctx, conn, payload)
	case proto.MethodReplicate:
		// Chain-internal: the acknowledgement is the empty response.
		return rpc.Response{}, s.runHop(ctx, conn, payload)
	default:
		b, err := s.table.Dispatch(ctx, conn, method, payload)
		return rpc.BytesResponse(b), err
	}
}

// serve registers a control method whose implementation needs neither
// the request context nor the connection.
func serve[Req, Resp any](s *Server, m proto.Method[Req, Resp], fn func(Req) (Resp, error)) {
	rpc.Handle(&s.table, m, func(_ context.Context, _ *rpc.ServerConn, req Req) (Resp, error) {
		return fn(req)
	})
}

// buildTable declares the control-plane methods the server serves.
func (s *Server) buildTable() {
	serve(s, proto.CreateBlock, s.createBlock)
	serve(s, proto.DeleteBlock, s.deleteBlock)
	rpc.Handle(&s.table, proto.SetNext, func(ctx context.Context, conn *rpc.ServerConn, req proto.SetNextReq) (proto.SetNextResp, error) {
		// Sealing is a sequenced mutation: on replicated queues it
		// flows down the chain in order with the enqueues it follows.
		return proto.SetNextResp{}, s.sequenced(ctx, conn, &opCtx{op: core.OpQueueSetNext, block: req.Block,
			args: [][]byte{ds.RedirectPayload(req.Next)}, checkNow: true})
	})
	rpc.Handle(&s.table, proto.SlotOwnership, func(ctx context.Context, conn *rpc.ServerConn, req proto.SlotOwnershipReq) (proto.SlotOwnershipResp, error) {
		// So is a change of ownership: a put the head sequenced before
		// a disown is owned on every member, and one after it is
		// refused at the head. It never signals: a move is no growth.
		op := core.OpDisownSlots
		if req.Own {
			op = core.OpOwnSlots
		}
		return proto.SlotOwnershipResp{}, s.sequenced(ctx, conn, &opCtx{op: op, block: req.Block,
			args: ds.SlotArgs(op, req.Ranges, req.Drop)})
	})
	serve(s, proto.FlushBlock, s.flushBlock)
	rpc.Handle(&s.table, proto.LoadBlock, s.loadBlock)
	rpc.Handle(&s.table, proto.Subscribe, func(_ context.Context, conn *rpc.ServerConn, req proto.SubscribeReq) (proto.SubscribeResp, error) {
		return proto.SubscribeResp{SubID: s.subs.add(conn, req.Blocks, req.Ops)}, nil
	})
	serve(s, proto.Unsubscribe, func(req proto.UnsubscribeReq) (proto.UnsubscribeResp, error) {
		s.subs.remove(req.SubID)
		return proto.UnsubscribeResp{}, nil
	})
	serve(s, proto.ServerStats, func(proto.ServerStatsReq) (proto.ServerStatsResp, error) {
		blocks, used := s.store.Stats()
		return proto.ServerStatsResp{
			Blocks:    blocks,
			UsedBytes: used,
			Capacity:  blocks * s.cfg.BlockSize,
			Ops:       s.ops.Load(),
		}, nil
	})
	serve(s, proto.SnapshotBlock, s.snapshotBlock)
	serve(s, proto.SetTenantQuota, func(req proto.SetTenantQuotaReq) (proto.SetTenantQuotaResp, error) {
		s.gate.SetQuota(req.Tenant, req.Quota)
		return proto.SetTenantQuotaResp{}, nil
	})
	serve(s, proto.UpdateChain, func(req proto.UpdateChainReq) (proto.UpdateChainResp, error) {
		b, err := s.store.Get(req.Block)
		if err != nil {
			return proto.UpdateChainResp{}, err
		}
		if req.Seal {
			b.Seal()
		} else {
			b.SetChain(req.Chain, req.Gen)
		}
		return proto.UpdateChainResp{}, nil
	})
}

// deleteBlock frees a block.
func (s *Server) deleteBlock(req proto.DeleteBlockReq) (proto.DeleteBlockResp, error) {
	// Take the tier object with the block: a deleted block's demoted
	// contents would otherwise hold persistent storage forever.
	if b, err := s.store.Get(req.Block); err == nil {
		b.TierMu.Lock()
		if b.TierKey != "" {
			if derr := s.persist.Delete(b.TierKey); derr != nil {
				s.log.Debug("server: tier object delete failed", "key", b.TierKey, "err", derr)
			}
			b.TierKey = ""
		}
		b.TierMu.Unlock()
	}
	return proto.DeleteBlockResp{}, s.store.Delete(req.Block)
}

// sequenced runs a control method's op on its block as a sequenced
// mutation: sent to a chain's head, every member applies it at the same
// seq, in order with the data ops around it. Its scratch is borrowed
// from l, the request's connection.
func (s *Server) sequenced(ctx context.Context, l lender, o *opCtx) error {
	b, err := s.resolve(o.block)
	if err != nil {
		return err
	}
	defer b.EndOp()
	sc := borrowScratch(l)
	defer sc.Release()
	o.b, o.n, o.sc = b, 1, sc
	refused, err := s.sequence(ctx, o)
	if err == nil {
		err = refused
	}
	return err
}

// kvShard is b's partition, which must be a KV shard.
func kvShard(b *blockstore.Block) (*ds.KV, error) {
	kv, ok := b.Partition.(*ds.KV)
	if !ok {
		return nil, fmt.Errorf("server: block %v is not a kv shard: %w", b.ID, core.ErrWrongType)
	}
	return kv, nil
}

// flushBlock writes a block to the persistent store as a JTO1 object
// stamped with the block's current tier generation. A demoted block's
// object already sits in the persist tier: its bytes are copied under
// the flush key instead of rehydrating, which is what lets an idle
// tenant's lease expire without pulling its cold blocks back into
// memory. TierMu keeps the block in whichever of the two states it is.
func (s *Server) flushBlock(req proto.FlushBlockReq) (proto.FlushBlockResp, error) {
	b, err := s.store.Get(req.Block)
	if err != nil {
		return proto.FlushBlockResp{}, err
	}
	b.TierMu.Lock()
	defer b.TierMu.Unlock()
	var data []byte
	if b.TierState() == blockstore.TierTiered {
		data, _, err = s.readObject(b.TierKey, b.ID, b.TierGen)
	} else {
		var snap []byte
		if snap, err = b.Partition.Snapshot(); err == nil {
			data = encodeObject(b, b.TierGen, snap)
		}
	}
	if err == nil {
		err = s.persist.Put(req.Key, data)
	}
	return proto.FlushBlockResp{Bytes: len(data), Block: b.ID, Gen: b.TierGen}, err
}

// loadBlock restores a block's partition from a live member's snapshot,
// pulled over a session of its own, or from a persisted object carrying
// the identity the caller recorded. With slots named, the live member's
// pairs in them replace the block's there, and nothing else changes. An
// unreachable source's error loses its class (%v), so the caller does
// not take this server for unreachable.
func (s *Server) loadBlock(ctx context.Context, _ *rpc.ServerConn, req proto.LoadBlockReq) (proto.LoadBlockResp, error) {
	b, err := s.resolve(req.Block)
	if err != nil {
		return proto.LoadBlockResp{}, err
	}
	defer b.EndOp()
	if req.From != (core.BlockInfo{}) {
		peer, err := s.dial(req.From.Server)
		var snap proto.SnapshotBlockResp
		if err == nil {
			snap, err = rpc.Invoke(ctx, peer, proto.SnapshotBlock, proto.SnapshotBlockReq{Block: req.From.ID, Slots: req.Slots})
			peer.Close()
		}
		if err != nil {
			return proto.LoadBlockResp{}, fmt.Errorf("server: load %v from %v: %v", b.ID, req.From, err)
		}
		if len(req.Slots) == 0 {
			return proto.LoadBlockResp{}, b.Partition.Restore(snap.Snapshot)
		}
		kv, err := kvShard(b)
		if err == nil {
			err = kv.LoadSlots(req.Slots, snap.Snapshot)
		}
		return proto.LoadBlockResp{}, err
	}
	_, obj, err := s.readObject(req.Key, req.WantBlock, req.WantGen)
	if err != nil {
		return proto.LoadBlockResp{}, fmt.Errorf("server: load %v: %w", b.ID, err)
	}
	return proto.LoadBlockResp{}, b.Partition.Restore(obj.Snapshot)
}

// snapshotBlock returns a block's serialized partition state, or a KV
// shard's pairs in the slots named.
func (s *Server) snapshotBlock(req proto.SnapshotBlockReq) (proto.SnapshotBlockResp, error) {
	b, err := s.resolve(req.Block)
	if err != nil {
		return proto.SnapshotBlockResp{}, err
	}
	defer b.EndOp()
	if len(req.Slots) == 0 {
		snap, err := b.Partition.Snapshot()
		return proto.SnapshotBlockResp{Snapshot: snap}, err
	}
	kv, err := kvShard(b)
	if err != nil {
		return proto.SnapshotBlockResp{}, err
	}
	snap, err := kv.SnapshotSlots(req.Slots)
	return proto.SnapshotBlockResp{Snapshot: snap}, err
}

// createBlock installs a partition per the controller's instruction.
func (s *Server) createBlock(req proto.CreateBlockReq) (proto.CreateBlockResp, error) {
	var part ds.Partition
	switch req.Type {
	case core.DSFile:
		part = ds.NewFile(req.Capacity)
	case core.DSQueue:
		part = ds.NewQueue(req.Capacity)
	case core.DSKV:
		part = ds.NewKV(req.Capacity, req.NumSlots, req.Slots)
	default:
		p, err := ds.NewCustom(req.Type, req.Capacity, req.NumSlots)
		if err != nil {
			return proto.CreateBlockResp{}, fmt.Errorf("server: create block of type %v: %w", req.Type, core.ErrWrongType)
		}
		part = p
	}
	b := &blockstore.Block{
		ID:        req.Block,
		Path:      req.Path,
		Tenant:    string(req.Path.Job()),
		Partition: part,
		Chunk:     req.Chunk,
		NumSlots:  req.NumSlots,
	}
	// Creation counts as a promotion: the cooldown window protects the
	// fresh block from immediate demotion, and the access stamp keeps
	// it out of the idle scan until it has actually gone idle.
	now := s.clk.Now().UnixNano()
	b.Touch(now)
	b.SetPromotedAt(now)
	b.SetChain(req.Chain, 0)
	return proto.CreateBlockResp{}, s.store.Create(b)
}
