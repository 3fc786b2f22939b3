package server

import (
	"context"
	"errors"
	"fmt"

	"jiffy/internal/blockstore"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
	"jiffy/internal/wire"
)

// handle is the memory server's RPC dispatch. Data-plane ops build
// their responses as scatter-gather views into block memory (see
// handleDataOp) and replication hops use the same binary codec (see
// applyReplicated); every other method is served from the control
// table (buildTable).
func (s *Server) handle(ctx context.Context, conn *rpc.ServerConn, method uint16, payload []byte) (rpc.Response, error) {
	switch method {
	case proto.MethodDataOp:
		return s.handleDataOp(ctx, payload)
	case proto.MethodDataOpBatch:
		b, err := s.handleDataOpBatch(ctx, payload)
		return rpc.BytesResponse(b), err
	case proto.MethodReplicate:
		// Chain-internal: the acknowledgement is the empty response.
		return rpc.Response{}, s.applyReplicated(ctx, payload)
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
	rpc.Handle(&s.table, proto.SetNext, func(ctx context.Context, _ *rpc.ServerConn, req proto.SetNextReq) (proto.SetNextResp, error) {
		// Sealing is a sequenced mutation: on replicated queues it
		// flows down the chain in order with the enqueues it follows.
		_, err := s.applyMutation(ctx, req.Block, core.OpQueueSetNext,
			[][]byte{ds.RedirectPayload(req.Next)})
		return proto.SetNextResp{}, err
	})
	rpc.Handle(&s.table, proto.MoveSlots, func(ctx context.Context, _ *rpc.ServerConn, req proto.MoveSlotsReq) (proto.MoveSlotsResp, error) {
		return s.moveSlots(ctx, req)
	})
	serve(s, proto.ExportSlots, s.exportSlots)
	serve(s, proto.ImportEntries, s.importEntries)
	serve(s, proto.SetOwnedSlots, s.setOwnedSlots)
	serve(s, proto.FlushBlock, s.flushBlock)
	serve(s, proto.LoadBlock, s.loadBlock)
	rpc.Handle(&s.table, proto.Subscribe, func(_ context.Context, conn *rpc.ServerConn, req proto.SubscribeReq) (proto.SubscribeResp, error) {
		return proto.SubscribeResp{SubID: s.subs.add(conn, req.Blocks, req.Ops)}, nil
	})
	serve(s, proto.Unsubscribe, func(req proto.UnsubscribeReq) (proto.UnsubscribeResp, error) {
		s.subs.remove(req.SubID)
		return proto.UnsubscribeResp{}, nil
	})
	serve(s, proto.ServerStats, func(proto.ServerStatsReq) (proto.ServerStatsResp, error) {
		blocks, used, _ := s.store.Stats()
		return proto.ServerStatsResp{
			Blocks:    blocks,
			UsedBytes: used,
			Capacity:  blocks * s.cfg.BlockSize,
			Ops:       s.ops.Load(),
		}, nil
	})
	serve(s, proto.SnapshotBlock, s.snapshotBlock)
	serve(s, proto.RestoreBlock, s.restoreBlock)
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
	// contents must never be resurrected (block IDs are recycled).
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

// kvShard resolves a block that must hold a KV shard; the caller ends
// the op on the returned block.
func (s *Server) kvShard(id core.BlockID) (*blockstore.Block, *ds.KV, error) {
	b, err := s.resolve(id)
	if err != nil {
		return nil, nil, err
	}
	kv, ok := b.Partition.(*ds.KV)
	if !ok {
		b.EndOp()
		return nil, nil, fmt.Errorf("server: block %v is not a kv shard: %w", id, core.ErrWrongType)
	}
	return b, kv, nil
}

// setOwnedSlots overwrites a KV block's owned ranges (merge commits).
func (s *Server) setOwnedSlots(req proto.SetOwnedSlotsReq) (proto.SetOwnedSlotsResp, error) {
	b, kv, err := s.kvShard(req.Block)
	if err != nil {
		return proto.SetOwnedSlotsResp{}, err
	}
	defer b.EndOp()
	kv.SetOwned(req.Ranges)
	return proto.SetOwnedSlotsResp{}, nil
}

// flushBlock snapshots a block into the persistent store.
func (s *Server) flushBlock(req proto.FlushBlockReq) (proto.FlushBlockResp, error) {
	b, err := s.store.Get(req.Block)
	if err != nil {
		return proto.FlushBlockResp{}, err
	}
	// Tiered fast path: a demoted block's snapshot already sits in
	// the persist tier — copy it under the flush key instead of
	// rehydrating. This is what lets an idle tenant's lease expire
	// without pulling all its cold blocks back into memory.
	if done, n, ferr := s.flushTiered(b, req.Key); done {
		return proto.FlushBlockResp{Bytes: n}, ferr
	}
	if err := s.resolveBlock(b); err != nil {
		return proto.FlushBlockResp{}, err
	}
	defer b.EndOp()
	snap, err := b.Partition.Snapshot()
	if err != nil {
		return proto.FlushBlockResp{}, err
	}
	return proto.FlushBlockResp{Bytes: len(snap)}, s.persist.Put(req.Key, snap)
}

// loadBlock restores a block's partition from the persistent store.
func (s *Server) loadBlock(req proto.LoadBlockReq) (proto.LoadBlockResp, error) {
	b, err := s.resolve(req.Block)
	if err != nil {
		return proto.LoadBlockResp{}, err
	}
	defer b.EndOp()
	snap, err := s.persist.Get(req.Key)
	if err != nil {
		return proto.LoadBlockResp{}, err
	}
	return proto.LoadBlockResp{}, b.Partition.Restore(snap)
}

// snapshotBlock returns a block's serialized partition state.
func (s *Server) snapshotBlock(req proto.SnapshotBlockReq) (proto.SnapshotBlockResp, error) {
	b, err := s.resolve(req.Block)
	if err != nil {
		return proto.SnapshotBlockResp{}, err
	}
	defer b.EndOp()
	snap, err := b.Partition.Snapshot()
	return proto.SnapshotBlockResp{Snapshot: snap}, err
}

// restoreBlock replaces a block's partition state from a snapshot.
func (s *Server) restoreBlock(req proto.RestoreBlockReq) (proto.RestoreBlockResp, error) {
	b, err := s.resolve(req.Block)
	if err != nil {
		return proto.RestoreBlockResp{}, err
	}
	defer b.EndOp()
	return proto.RestoreBlockResp{}, b.Partition.Restore(req.Snapshot)
}

// handleInline is the read-pump fast path for small single data-plane
// ops (see rpc.SetInlineHandler): decode, pin, apply, respond — no
// per-request goroutine, no frame copy, with the request payload still
// in connection-owned storage. Anything that might block the pump —
// an active admission gate, tier rehydration, chain replication at the
// head — punts to the regular goroutine dispatch path with
// rpc.ErrDispatchAsync, so QoS, tiering, and replication behavior are
// byte-for-byte those of handleDataOp. Results never alias the request
// payload (partitions copy on insert; returned previous values are
// removed from, or views into, block memory), so responding from
// reused request storage is safe.
func (s *Server) handleInline(ctx context.Context, conn *rpc.ServerConn, method uint16, payload []byte) (rpc.Response, error) {
	if s.gate.Active() {
		// Admission decisions (token debits, throttle errors, queue
		// stats) belong on the fully instrumented path.
		return rpc.Response{}, rpc.ErrDispatchAsync
	}
	op, blockID, args, err := ds.DecodeRequest(payload)
	if err != nil {
		return rpc.Response{}, err
	}
	b, err := s.store.Get(blockID)
	if err != nil {
		return rpc.Response{}, err
	}
	if op.IsMutation() && len(b.Chain()) > 1 {
		// Chain-head sequencing forwards synchronously to the successor;
		// replica applies wait on sequence order. Neither belongs on the
		// read pump.
		return rpc.Response{}, rpc.ErrDispatchAsync
	}
	if !b.BeginOp() {
		// Demoted or demoting: resolving means persist-tier IO.
		return rpc.Response{}, rpc.ErrDispatchAsync
	}
	b.Touch(s.store.HeatNow())
	s.ops.Add(1)
	unpin := true
	defer func() {
		if unpin {
			b.EndOp()
		}
	}()

	var res [][]byte
	var release func()
	if op.IsMutation() {
		res, err = s.applyMutationOn(ctx, b, op, args, true)
	} else if v, handled, verr := ds.ApplyView(b.Partition, op, args); handled {
		// The view path bypasses Store.ApplyOn; keep the op counter
		// accurate (same accounting as handleDataOp).
		s.store.CountOps(1)
		res, release, err = v.Vals, v.Release, verr
	} else {
		res, err = s.store.ApplyOn(b, op, args, true)
	}
	if err != nil {
		if p := ds.RedirectPayloadOf(err); p != nil {
			return rpc.BytesResponse(p), core.ErrRedirect
		}
		return rpc.Response{}, err
	}
	var notifyData []byte
	if len(args) > 0 {
		notifyData = args[0]
	}
	// notify marshals synchronously (copying notifyData) and pushes over
	// buffered writers, so it is safe both on the read pump and with
	// data aliasing reused request storage.
	s.notify(blockID, op, notifyData)
	head, vec := ds.AppendValsVec(wire.GetBuf(), res)
	if release != nil {
		// A leased view aliases block memory until the wire layer fires
		// Release; keep the residency pin until then (it fires during
		// the synchronous response write on this path).
		unpin = false
		lease := release
		release = func() {
			lease()
			b.EndOp()
		}
	}
	return rpc.Response{Payload: head, Vec: vec, Release: release}, nil
}

// handleDataOp executes one data-plane operation: apply locally,
// propagate down the replication chain for mutations, then notify
// subscribers.
//
// Non-mutating ops are tried on the zero-copy view path first: the
// result slices alias block memory and travel to the socket without a
// server-side copy, with Response.Release carrying any read lease the
// partition holds (fired by the wire layer once the frame's bytes are
// consumed). Mutations and ops without a view form fall back to Apply,
// whose results are owned by the response outright — dequeued items and
// deleted/updated previous values are removed from the partition when
// they are returned, so vectoring them is ownership transfer, not
// aliasing.
func (s *Server) handleDataOp(ctx context.Context, payload []byte) (rpc.Response, error) {
	op, blockID, args, err := ds.DecodeRequest(payload)
	if err != nil {
		return rpc.Response{}, err
	}
	s.ops.Add(1)

	// resolve pins the block resident (rehydrating it from the persist
	// tier first if it was demoted); the pin is released when the
	// response no longer references block memory — at return for owned
	// results, at frame-release time for zero-copy views.
	b, err := s.resolve(blockID)
	if err != nil {
		return rpc.Response{}, err
	}
	unpin := true
	defer func() {
		if unpin {
			b.EndOp()
		}
	}()

	// Admission control keys on the tenant (the path's job component).
	// Chain-internal traffic (MethodReplicate) is exempt: it was already
	// admitted at the head, and re-charging it would double-bill
	// replicated tenants.
	admitted, aerr := s.gate.Admit(ctx, b.Tenant, 1, argBytes(args))
	if aerr != nil {
		var te *core.ThrottleError
		if errors.As(aerr, &te) {
			// The throttle rides the response payload like redirects do,
			// so the client recovers the retry-after hint (see ErrOf).
			return rpc.BytesResponse([]byte(te.Error())), te
		}
		return rpc.Response{}, aerr
	}
	if admitted != nil {
		defer admitted()
	}

	var res [][]byte
	var release func()
	if op.IsMutation() {
		res, err = s.applyMutationOn(ctx, b, op, args, true)
	} else if v, handled, verr := ds.ApplyView(b.Partition, op, args); handled {
		// The view path bypasses Store.ApplyOn; keep the op counter
		// accurate. On error no lease is held (ViewReader contract).
		s.store.CountOps(1)
		res, release, err = v.Vals, v.Release, verr
	} else {
		res, err = s.store.ApplyOn(b, op, args, true)
	}
	if err != nil {
		// Redirect errors carry the successor block in their payload.
		if p := ds.RedirectPayloadOf(err); p != nil {
			return rpc.BytesResponse(p), core.ErrRedirect
		}
		return rpc.Response{}, err
	}
	var notifyData []byte
	if len(args) > 0 {
		notifyData = args[0]
	}
	s.notify(blockID, op, notifyData)
	head, vec := ds.AppendValsVec(wire.GetBuf(), res)
	if release != nil {
		// A leased view aliases block memory until the wire layer fires
		// Release; keep the residency pin until then so a demotion
		// cannot release the memory under the in-flight frame.
		unpin = false
		lease := release
		release = func() {
			lease()
			b.EndOp()
		}
	}
	return rpc.Response{Payload: head, Vec: vec, Release: release}, nil
}

// handleDataOpBatch executes many data-plane ops from one request
// frame. All destination blocks are resolved under a single blockstore
// lock acquisition, ops apply in request order with per-op error
// attribution (one op's failure never aborts its neighbours), and
// repartition-threshold checks run once per mutated block after the
// whole batch lands. The per-op results travel back in one response
// frame, encoded into a pooled buffer.
func (s *Server) handleDataOpBatch(ctx context.Context, payload []byte) ([]byte, error) {
	ops, err := ds.DecodeBatchRequest(payload)
	if err != nil {
		return nil, err
	}
	s.ops.Add(int64(len(ops)))

	ids := make([]core.BlockID, 0, len(ops))
	seen := make(map[core.BlockID]struct{}, len(ops))
	for _, o := range ops {
		if _, dup := seen[o.Block]; !dup {
			seen[o.Block] = struct{}{}
			ids = append(ids, o.Block)
		}
	}
	blocks := s.store.GetMany(ids)

	// Pin every destination block resident for the whole batch,
	// rehydrating demoted ones. A block whose rehydration fails is
	// dropped from the map and its ops get the failure attributed
	// per-op, like any other per-block error. Batch results are copied
	// into the response buffer, so all pins release at return.
	var rehydrateErrs map[core.BlockID]error
	for id, b := range blocks {
		if err := s.resolveBlock(b); err != nil {
			if rehydrateErrs == nil {
				rehydrateErrs = make(map[core.BlockID]error)
			}
			rehydrateErrs[id] = err
			delete(blocks, id)
		}
	}
	defer func() {
		for _, b := range blocks {
			b.EndOp()
		}
	}()

	// Admission is charged once per distinct tenant in the batch (ops
	// and bytes summed), so a batch waits in the DRR queue at most once.
	// A throttled tenant's ops all fail with the per-tenant error;
	// neighbours from other tenants proceed.
	var throttledTenants map[string]error
	if s.gate.Active() {
		type tenantDemand struct{ ops, bytes int64 }
		demand := make(map[string]*tenantDemand)
		for _, o := range ops {
			b, ok := blocks[o.Block]
			if !ok {
				continue
			}
			t := b.Tenant
			d := demand[t]
			if d == nil {
				d = &tenantDemand{}
				demand[t] = d
			}
			d.ops++
			for _, a := range o.Args {
				d.bytes += int64(len(a))
			}
		}
		for t, d := range demand {
			release, aerr := s.gate.Admit(ctx, t, d.ops, d.bytes)
			if aerr != nil {
				if throttledTenants == nil {
					throttledTenants = make(map[string]error)
				}
				throttledTenants[t] = aerr
				continue
			}
			if release != nil {
				defer release()
			}
		}
	}

	results := make([]ds.BatchResult, len(ops))
	mutated := make(map[core.BlockID]*blockstore.Block, len(blocks))
	for i, o := range ops {
		b, ok := blocks[o.Block]
		if !ok {
			if rerr := rehydrateErrs[o.Block]; rerr != nil {
				results[i] = ds.ErrResult(rerr)
				continue
			}
			results[i] = ds.ErrResult(fmt.Errorf("blockstore: block %v unknown: %w",
				o.Block, core.ErrStaleEpoch))
			continue
		}
		if throttledTenants != nil {
			if terr := throttledTenants[b.Tenant]; terr != nil {
				results[i] = ds.ErrResult(terr)
				continue
			}
		}
		var res [][]byte
		var oerr error
		if o.Op.IsMutation() {
			res, oerr = s.applyMutationOn(ctx, b, o.Op, o.Args, false)
			if oerr == nil {
				mutated[o.Block] = b
			}
		} else {
			res, oerr = s.store.ApplyOn(b, o.Op, o.Args, false)
		}
		if oerr != nil {
			results[i] = ds.ErrResult(oerr)
			continue
		}
		var notifyData []byte
		if len(o.Args) > 0 {
			notifyData = o.Args[0]
		}
		s.notify(o.Block, o.Op, notifyData)
		results[i] = ds.OKResult(res)
	}
	for _, b := range mutated {
		s.store.CheckThresholds(b)
	}
	return ds.AppendBatchResults(wire.GetBuf(), results), nil
}

// argBytes sums the request argument bytes of one op — the ingress
// byte measure charged against a tenant's BytesPerSec bucket.
func argBytes(args [][]byte) int64 {
	var n int64
	for _, a := range args {
		n += int64(len(a))
	}
	return n
}

// applyMutation applies a mutating op, sequencing and propagating it
// down the replication chain when the block is a replicated head.
func (s *Server) applyMutation(ctx context.Context, blockID core.BlockID, op core.OpType, args [][]byte) ([][]byte, error) {
	b, gerr := s.resolve(blockID)
	if gerr != nil {
		return nil, gerr
	}
	defer b.EndOp()
	return s.applyMutationOn(ctx, b, op, args, true)
}

// applyMutationOn applies a mutating op against a resolved block.
// checkNow is threaded to the blockstore's threshold evaluation (false
// on the batch path, which checks once per block afterwards).
func (s *Server) applyMutationOn(ctx context.Context, b *blockstore.Block, op core.OpType, args [][]byte, checkNow bool) ([][]byte, error) {
	if chain := b.Chain(); len(chain) > 1 && chain.Head().ID == b.ID {
		// Replicated mutation at the chain head: apply under the
		// block's sequence lock so the propagation stream's order
		// matches local order, then forward synchronously. The chain
		// used for forwarding is re-read under that lock together with
		// the stamped generation, so a repair splice landing between
		// the check above and the sequence assignment can never pair a
		// new generation with the old layout (which would let mid-chain
		// survivors apply a mutation the spliced-in replacement misses,
		// wedging the sequence stream on the hole).
		res, locked, seq, gen, err := b.NextReplSeq(func() ([][]byte, error) {
			return s.store.ApplyOn(b, op, args, checkNow)
		})
		if err != nil {
			return nil, err
		}
		if rerr := s.propagate(ctx, b, locked, seq, gen, op, args); rerr != nil {
			return nil, rerr
		}
		return res, nil
	}
	if b.Sealed() {
		return nil, fmt.Errorf("server: block %v sealed for migration: %w",
			b.ID, core.ErrStaleEpoch)
	}
	res, err := s.store.ApplyOn(b, op, args, checkNow)
	if err == nil && b.Sealed() {
		// The seal landed while the mutation was applying: the
		// migration snapshot may not include it, so it must not be
		// acknowledged. The client retries against the migrated block.
		return nil, fmt.Errorf("server: block %v sealed for migration: %w",
			b.ID, core.ErrStaleEpoch)
	}
	return res, err
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

// moveSlots is the donor side of KV repartitioning (Fig. 8 step 4):
// export the pairs in the moving ranges and deliver them to the target
// block — possibly on another server, possibly on this one.
func (s *Server) moveSlots(ctx context.Context, req proto.MoveSlotsReq) (proto.MoveSlotsResp, error) {
	b, kv, err := s.kvShard(req.Block)
	if err != nil {
		return proto.MoveSlotsResp{}, err
	}
	defer b.EndOp()
	entries := kv.ExportSlots(req.Ranges)
	imp := proto.ImportEntriesReq{Block: req.Target.ID, Ranges: req.Ranges, Entries: entries}
	if req.Target.Server == s.addr {
		_, err = s.importEntries(imp)
	} else {
		_, err = rpc.InvokeAt(ctx, s.peers, req.Target.Server, proto.ImportEntries, imp)
	}
	return proto.MoveSlotsResp{Moved: len(entries)}, err
}

// exportSlots removes and returns the pairs in the moving ranges from
// one replica, disowning the ranges. The controller calls this on every
// chain member (tail first) during repartitioning, so no member is ever
// brought back in sync by a snapshot restore while live.
func (s *Server) exportSlots(req proto.ExportSlotsReq) (proto.ExportSlotsResp, error) {
	b, kv, err := s.kvShard(req.Block)
	if err != nil {
		return proto.ExportSlotsResp{}, err
	}
	defer b.EndOp()
	return proto.ExportSlotsResp{Entries: kv.ExportSlots(req.Ranges)}, nil
}

// importEntries is the recipient side of a slot move.
func (s *Server) importEntries(req proto.ImportEntriesReq) (proto.ImportEntriesResp, error) {
	b, kv, err := s.kvShard(req.Block)
	if err != nil {
		return proto.ImportEntriesResp{}, err
	}
	defer b.EndOp()
	kv.ImportEntries(req.Ranges, req.Entries)
	return proto.ImportEntriesResp{}, nil
}
