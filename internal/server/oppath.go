package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"jiffy/internal/blockstore"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/rpc"
	"jiffy/internal/wire"
)

// The data-op path (§4.2.2): every data op runs through the stages
// decode → lookup → pin → admit → apply → forward → notify → encode,
// entered from runOp (one op, on the read pump or its own goroutine),
// runBatch (a batch frame) or runHop (a chain hop). DESIGN.md's "Server
// op path" table says what each stage owns, when the inline entry
// punts and which entries skip it; TestOpPathTable pins it.

// opCtx is one data op on its way through the stages, held on the
// stack of the entry that runs it.
type opCtx struct {
	op    core.OpType
	block core.BlockID
	args  [][]byte // alias the request frame: valid until the entry returns
	b     *blockstore.Block

	// hop marks a chain hop, position seq of generation gen in the
	// block's replication stream; a hop whose op is OpNop is a skip (see
	// sequence). inline marks an op run on the read pump.
	hop, inline bool
	seq, gen    uint64
	// checkNow evaluates the repartition thresholds right after a
	// mutation. A batch checks once per mutated block at its end, and a
	// hop never: the controller knows the head's block, not a replica's.
	checkNow bool

	// out is the response the result is encoded onto: the pooled
	// payload of a single op, the batch response of a batched one, the
	// scratch buffer of a hop, whose answer is discarded. An op the
	// partition answers by appending (ds.AppendAnswer) extends it in the
	// apply stage and sets encoded; any other result is res, which the
	// entry encodes.
	out     []byte
	encoded bool
	res     [][]byte
	lease   func() // a view's read lease, held until res is encoded
}

// scratch is the vectors one entry decodes into — an op's or a hop's
// args, a batch frame's ops and their one arg vector — the vector a
// view extends with its one value (a batch takes one for all its
// views), and the buffer a hop's discarded answer is encoded onto.
// They cross the Partition and ViewReader interfaces, so on the stack
// they would escape; pooled, a steady-state entry allocates none.
type scratch struct {
	args, res [][]byte
	ops       []ds.BatchOp
	out       []byte
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{args: make([][]byte, 0, 4), res: make([][]byte, 0, 1), out: make([]byte, 0, 16)}
}}

// scratchMax bounds the vectors a scratch keeps: release clears every
// pooled element, so one huge batch must not tax the ops after it.
const scratchMax = 1 << 10

// release drops what the vectors point at — the request frame, block
// memory — and pools them, unless a batch grew them past scratchMax.
func (sc *scratch) release() {
	if cap(sc.args) > scratchMax || cap(sc.ops) > scratchMax {
		return
	}
	clear(sc.args[:cap(sc.args)])
	clear(sc.res[:cap(sc.res)])
	clear(sc.ops[:cap(sc.ops)])
	sc.args, sc.res, sc.ops, sc.out = sc.args[:0], sc.res[:0], sc.ops[:0], sc.out[:0]
	scratchPool.Put(sc)
}

// runOp runs one op (MethodDataOp). Inline, it returns
// rpc.ErrDispatchAsync at the first stage that would block, holding
// nothing, and the rpc layer runs it again from decode on a goroutine.
// The response never aliases the request payload: partitions copy what
// they keep, and a result is either owned outright (a dequeued item, a
// removed value), copied into the response (a KV value, a small view)
// or a view into block memory (see encode).
func (s *Server) runOp(ctx context.Context, payload []byte, inline bool) (rpc.Response, error) {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	o := opCtx{checkNow: true, inline: inline, out: wire.GetBuf(), res: sc.res[:0]}
	var err error
	if o.op, o.block, o.args, err = ds.DecodeRequestInto(sc.args[:0], payload); err != nil {
		return o.encode(err)
	}
	sc.args = o.args
	if o.op.IsControl() {
		return o.encode(errControlOp)
	}
	if o.b, err = s.store.Get(o.block); err != nil {
		return o.encode(err)
	}
	if inline && o.op.IsMutation() && len(o.b.Chain()) > 1 {
		// The head forwards synchronously; a replica waits on sequence order.
		return o.encode(rpc.ErrDispatchAsync)
	}
	if err = s.pin(o.b, inline); err != nil {
		return o.encode(err)
	}
	defer func() {
		if o.lease == nil { // else the response's Release unpins
			o.b.EndOp()
		}
	}()
	release, err := s.admit(ctx, o.b.Tenant, 1, argBytes(o.args), inline)
	if err != nil {
		return o.encode(err)
	}
	if release != nil {
		defer release()
	}
	return o.encode(s.apply(ctx, &o))
}

// errControlOp refuses a control-only op kind (core.OpType.IsControl)
// in a client's data op: it reaches a block only through its control
// method and as a hop, so a client cannot, say, disown its own shard's
// slots behind the controller's back.
var errControlOp = fmt.Errorf("server: a control op in a data op: %w", core.ErrWrongType)

// encode answers one op. An error takes the wire form a batch result
// has too (ds.ErrResult): its code, with the redirect target or the
// message as payload. A result the apply stage encoded already is the
// payload as it stands. Any other result under the inline frame
// threshold is copied into the payload, and a view's lease released
// here; a larger one goes out as scatter-gather segments, and when they
// alias block memory under a view's lease, the lease and the residency
// pin are held until the rpc layer has written the frame.
func (o *opCtx) encode(err error) (rpc.Response, error) {
	switch {
	case err == rpc.ErrDispatchAsync:
		wire.PutBuf(o.out)
		return rpc.Response{}, err
	case err != nil:
		wire.PutBuf(o.out)
		return rpc.BytesResponse(ds.ErrResult(err).Blob), err
	case o.encoded:
		return rpc.BytesResponse(o.out), nil
	case argBytes(o.res) <= wire.InlineFrameThreshold:
		o.out = ds.AppendVals(o.out, o.res)
		if o.lease != nil {
			o.lease()
			o.lease = nil
		}
		return rpc.BytesResponse(o.out), nil
	}
	head, vec := ds.AppendValsVec(o.out, o.res)
	resp := rpc.Response{Payload: head, Vec: vec}
	if o.lease != nil {
		lease, b := o.lease, o.b
		resp.Release = func() {
			lease()
			b.EndOp()
		}
	}
	return resp, nil
}

// runBatch runs a batch (MethodDataOpBatch). Ops fail independently,
// each failure attributed to its op alone, and the repartition
// thresholds are evaluated once per mutated block after the whole
// batch. Each result is encoded into the pooled response, and a view's
// lease released, before the next op runs: a file read's lease held
// across a later write to the same chunk would deadlock the batch on
// itself.
func (s *Server) runBatch(ctx context.Context, payload []byte) (rpc.Response, error) {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	ops, args, err := ds.DecodeBatchRequestInto(sc.ops, sc.args, payload)
	sc.args = args
	if err != nil {
		return rpc.Response{}, err
	}
	sc.ops = ops
	// The per-block maps grow with the distinct blocks the batch touches —
	// one or two for a shuffle batch — not with its ops: unsized, they
	// stay on the stack up to eight blocks.
	blocks := make(map[core.BlockID]*blockstore.Block)
	refused := make(map[core.BlockID]error)
	for _, bo := range ops {
		if bo.Op.IsControl() || blocks[bo.Block] != nil || refused[bo.Block] != nil {
			continue
		}
		b, err := s.store.Get(bo.Block)
		if err == nil {
			err = s.pin(b, false)
		}
		if err != nil {
			refused[bo.Block] = err
			continue
		}
		blocks[bo.Block] = b
	}
	defer func() {
		for _, b := range blocks {
			b.EndOp()
		}
	}()
	// A tenant's ops and bytes are charged together, so a batch waits in
	// the DRR queue at most once; a throttled tenant's ops all fail with
	// its refusal while other tenants' proceed.
	if s.gate.Active() {
		demand := make(map[string][2]int64)
		for _, bo := range ops {
			if b := blocks[bo.Block]; b != nil {
				d := demand[b.Tenant]
				demand[b.Tenant] = [2]int64{d[0] + 1, d[1] + argBytes(bo.Args)}
			}
		}
		for tenant, d := range demand {
			release, err := s.admit(ctx, tenant, d[0], d[1], false)
			if err != nil {
				for id, b := range blocks {
					if b.Tenant == tenant {
						refused[id] = err
					}
				}
			} else if release != nil {
				defer release()
			}
		}
	}
	// The batch response: u16 count, then one result per op. An op
	// answered by appending encodes its value onto the response behind
	// an OK result header whose length it backfills; any other outcome
	// goes through ds.AppendResult.
	resp := binary.BigEndian.AppendUint16(wire.GetBuf(), uint16(len(ops)))
	mutated := make(map[core.BlockID]*blockstore.Block)
	for _, bo := range ops {
		mark := len(resp)
		o := opCtx{op: bo.Op, block: bo.Block, args: bo.Args, b: blocks[bo.Block],
			out: ds.BeginResult(resp), res: sc.res[:0]}
		err := refused[bo.Block]
		if bo.Op.IsControl() {
			err = errControlOp
		}
		if err == nil {
			if err = s.apply(ctx, &o); err == nil && o.op.IsMutation() {
				mutated[o.block] = o.b
			}
		}
		if err == nil && o.encoded {
			resp = ds.EndResult(o.out, mark)
		} else {
			resp = ds.AppendResult(o.out[:mark], ds.ErrResult(err), o.res)
		}
		if o.lease != nil {
			o.lease()
		}
	}
	for _, b := range mutated {
		s.store.CheckThresholds(b)
	}
	return rpc.BytesResponse(resp), nil
}

// runHop runs a chain hop (MethodReplicate): a mutation forwarded by
// the predecessor, applied in its sequence order and forwarded on. Its
// args alias the inbound frame, which the rpc layer recycles once the
// empty response is written, through the local apply (partitions copy
// what they keep) and the onward hop; they decode into a pooled vector,
// and the answer, which the empty response discards, into the pooled
// buffer. A hop is not admitted — the head admitted the op, and
// charging it again would bill a replicated tenant twice — and it
// leaves notification to the head, whose block the subscribers know.
// A skip (OpNop) only fills its seq (see sequence).
func (s *Server) runHop(ctx context.Context, payload []byte) error {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	o := opCtx{hop: true, out: sc.out[:0]}
	var err error
	if o.seq, o.gen, o.op, o.block, o.args, err = ds.DecodeReplicateInto(sc.args[:0], payload); err != nil {
		return err
	}
	sc.args = o.args
	if o.b, err = s.resolve(o.block); err != nil {
		return err
	}
	defer o.b.EndOp()
	if o.op == core.OpNop {
		// A skip fills its seq and is passed on: nothing is applied,
		// counted or notified.
		return s.sequence(ctx, &o)
	}
	err = s.apply(ctx, &o)
	sc.out = o.out
	return err
}

// pin holds b resident for one operation, rehydrating it first if it
// has been demoted; on success the caller owes b.EndOp(). Inline, a
// demoted block punts instead: rehydration is persist-tier IO.
func (s *Server) pin(b *blockstore.Block, inline bool) error {
	for !b.BeginOp() {
		if inline {
			return rpc.ErrDispatchAsync
		}
		if err := s.rehydrateBlock(b); err != nil {
			return err
		}
	}
	b.Touch(s.store.HeatNow())
	return nil
}

// admit charges the QoS gate for ops operations and bytes ingress
// bytes on tenant's behalf (the path's job component); the caller runs
// the returned release, if any, once the work is done. Inline, an
// active gate punts: token debits, DRR waits and throttle accounting
// do not belong on the read pump.
func (s *Server) admit(ctx context.Context, tenant string, ops, bytes int64, inline bool) (func(), error) {
	if inline && s.gate.Active() {
		return nil, rpc.ErrDispatchAsync
	}
	return s.gate.Admit(ctx, tenant, ops, bytes)
}

// argBytes sums the bytes of one op's vector: its request args — the
// ingress byte measure charged against a tenant's BytesPerSec bucket —
// or its result.
func argBytes(args [][]byte) int64 {
	var n int64
	for _, a := range args {
		n += int64(len(a))
	}
	return n
}

// apply runs the op against its pinned block and counts it: the one
// place ServerStats.Ops moves. A mutation is sequenced and forwarded
// (sequence). A read takes the partition's zero-copy view when it has
// one, leaving o.lease set if the view holds a read lease, and is
// answered like a mutation otherwise (applyOn). A successful op then
// notifies its block's subscribers, unless it is a hop. A file append
// refused as full may first wait for its chunk's growth and run once
// more (awaitGrowth).
func (s *Server) apply(ctx context.Context, o *opCtx) (err error) {
	s.ops.Add(1)
	if o.op.IsMutation() {
		err = s.sequence(ctx, o)
		if err != nil && o.op == core.OpFileAppend && !o.hop && errors.Is(err, core.ErrBlockFull) {
			if err = s.awaitGrowth(ctx, o, err); err == nil {
				err = s.sequence(ctx, o)
			}
		}
	} else if v, handled, verr := ds.ApplyView(o.b.Partition, o.op, o.args, o.res[:0]); handled {
		o.res, o.lease, err = v.Vals, v.Release, verr
	} else {
		err = s.applyOn(o)
	}
	if err == nil && !o.hop {
		var data []byte
		if len(o.args) > 0 {
			data = o.args[0]
		}
		// notify marshals synchronously, copying data out of the frame.
		s.notify(o.block, o.op, data)
	}
	return err
}

// awaitGrowth is the apply stage's growth wait. An append refused as
// full while its chunk's over-signal is in flight waits for the answer,
// which links the chunk to its successor (deliverSignal); the caller
// then applies it once more, and it is redirected — or refused again
// when the signal grew nothing, and the client grows the file itself.
// A batch that crossed the threshold and filled the chunk in one frame
// has not signalled yet (it checks at its end), so the check runs
// first. With no signal in flight the append is applied once more at
// once: the answer may have linked the chunk since the refusal.
// Inline, the op punts rather than wait, uncounted, since it reruns
// from decode. The wait ends on the answer, on ctx and on Close.
func (s *Server) awaitGrowth(ctx context.Context, o *opCtx, refused error) error {
	s.store.CheckThresholds(o.b)
	growth := o.b.Growth()
	switch {
	case growth == nil:
		return nil
	case o.inline:
		s.ops.Add(-1)
		return rpc.ErrDispatchAsync
	}
	select {
	case <-growth:
		return nil
	case <-ctx.Done():
		return refused
	case <-s.stop:
		return fmt.Errorf("server: shutting down: %w", core.ErrClosed)
	}
}

// applyOn runs the op against its block. A built-in op whose answer is
// an integer or a copied value — a KV get, its value copied under the
// bucket lock; a file write or append; any usage — is encoded onto o.out
// (ds.AppendAnswer) and sets o.encoded; any other op is the partition's
// Apply, its result o.res.
func (s *Server) applyOn(o *opCtx) error {
	out, handled, err := s.store.AppendOn(o.b, o.out, o.op, o.args, o.checkNow)
	if handled {
		o.out, o.encoded = out, err == nil
		return err
	}
	o.res, err = s.store.ApplyOn(o.b, o.op, o.args, o.checkNow)
	return err
}

// sequence applies a mutation (applyOn) in chain order and forwards it
// to the block's successor. A hop applies in its predecessor's sequence
// order (ApplyInOrder). Its seq is consumed even when the apply
// refuses, so a refusing replica forwards a skip (an OpNop hop) in its
// place, counted in jiffy_server_hop_refusals_total, and a skip it
// receives fills the seq without applying: a member's refusal never
// leaves a gap that parks every later hop at its successors. The head
// of a replicated chain takes the next sequence number under the lock
// it applies under (NextReplSeq); any other block applies directly, and
// refuses once sealed for migration.
// The chain forwarded along is read under the same lock as the sequence
// number, so a repair splice landing meanwhile can never pair a new
// generation with the old layout — which would let mid-chain survivors
// apply a mutation the spliced-in replacement misses, wedging the
// stream on the hole.
func (s *Server) sequence(ctx context.Context, o *opCtx) (err error) {
	b := o.b
	applyOn := func() error { return s.applyOn(o) }
	var chain core.ReplicaChain
	seq, gen := o.seq, o.gen
	switch c := b.Chain(); {
	case o.hop:
		var refused error
		chain, err = b.ApplyInOrder(seq, gen, func() error {
			if o.op != core.OpNop {
				refused = applyOn()
			}
			return nil
		})
		if err == nil && refused != nil {
			s.hopRefusals.Inc()
			if err = s.propagate(ctx, b, chain, seq, gen, core.OpNop, nil); err == nil {
				err = refused
			}
		}
		if err != nil {
			return fmt.Errorf("server: replica apply: %w", err)
		}
	case len(c) > 1 && c.Head().ID == b.ID:
		chain, seq, gen, err = b.NextReplSeq(applyOn)
	default:
		if !b.Sealed() {
			err = applyOn()
		}
		if err == nil && b.Sealed() {
			// Sealed, possibly while the mutation applied: the migration
			// snapshot may miss it, so it is not acknowledged and the
			// client retries against the migrated block.
			err = fmt.Errorf("server: block %v sealed for migration: %w", b.ID, core.ErrStaleEpoch)
		}
	}
	if err != nil {
		return err
	}
	return s.propagate(ctx, b, chain, seq, gen, o.op, o.args)
}
