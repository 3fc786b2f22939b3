package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"jiffy/internal/blockstore"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/rpc"
	"jiffy/internal/wire"
)

// The data-op path (§4.2.2): every data op runs through the stages
// decode → lookup → pin → admit → apply → forward → notify → encode,
// on the connection's worker, entered from one of three entries, one
// per frame kind: runOp (one op), runBatch (a batch frame) or runHop (a
// chain hop). No stage runs on the read pump, so a stage may block on
// what bounds itself, holding only its own worker. DESIGN.md's "Server
// op path" table says what each stage owns and which entries skip it;
// TestOpPathTable pins it.

// opCtx is one data op on its way through the stages, held on the
// stack of the entry that runs it.
type opCtx struct {
	op    core.OpType
	block core.BlockID
	args  [][]byte // alias the request frame: valid until the entry returns
	b     *blockstore.Block

	// n is how many records the op applies as one run: a single op's
	// append of several records (runOp), args holding them one each,
	// lands them under one hold of the chunk lock. Any other op — an
	// append of one record, every op of a batch frame, a hop — is a run
	// of one, args its vector. The apply stage ends a run at its first
	// refused or unforwarded record (cut) and answers the records
	// acknowledged before it; only a run none of whose records was
	// acknowledged answers an error. offs holds the offset each
	// acknowledged append landed at.
	n    int
	offs []int

	// hop marks a chain hop, position seq of generation gen in the
	// block's replication stream; a hop whose op is OpNop is a skip (see
	// sequence).
	hop      bool
	seq, gen uint64
	// checkNow evaluates the repartition thresholds right after a
	// mutation. A batch checks once per mutated block at its end, and a
	// hop never: the controller knows the head's block, not a replica's.
	checkNow bool
	// framed marks an op of a batch frame: each answer the apply stage
	// encodes onto out is its own batch result (begin, end).
	framed bool

	// out is the response the result is encoded onto: the pooled
	// payload of a single op, the batch response of a batched one, the
	// scratch buffer of a hop, whose answer is discarded. An op the
	// partition answers by appending (ds.AppendAnswer) extends it in the
	// apply stage and sets encoded; any other result is res, which the
	// entry encodes.
	out     []byte
	encoded bool
	res     [][]byte
	lease   wire.Releaser // a view's read lease, held until res is encoded

	// sc is the entry's scratch, borrowed from its connection: the
	// vectors an answer's segments and a forwarded hop's are built in,
	// and the holder of what an answer that aliases block memory keeps
	// until it is written.
	sc *scratch
}

// scratch is the vectors one entry decodes into — an op's or a hop's
// args, a batch frame's ops and their one arg vector — the vector a
// view extends with its one value (a batch takes one for all its
// views), the segments of a large answer (vec) and of each hop it
// forwards (fwd), the offsets a run of appends landed at, kept at the
// size the longest run grew it to, the buffer a hop's discarded answer
// is encoded onto (out) and the one each forwarded hop's header is
// (hop).
// They cross the Partition and ViewReader interfaces and reach the
// transport, so on the stack they would escape; borrowed from the
// request's connection (lender), which keeps them across collections,
// a steady-state entry allocates none.
//
// A scratch is also the Release of an answer sent as segments (encode):
// those may alias block memory under a view's lease, so the scratch
// keeps the segments, the lease and the block's pin (b) until the rpc
// layer has written the frame, and then ends them and goes back to its
// connection.
type scratch struct {
	args, res [][]byte
	vec, fwd  [][]byte
	ops       []ds.BatchOp
	offs      []int
	out, hop  []byte

	b     *blockstore.Block
	lease wire.Releaser
	home  lender
}

// lender is where an entry borrows its scratch: the request's
// connection (rpc.ServerConn), which keeps what it is handed back.
type lender interface {
	Scratch() any
	PutScratch(any)
}

// borrowScratch takes a scratch from l, or makes one that goes back to
// l; a nil l gets one the collector takes.
func borrowScratch(l lender) *scratch {
	if l != nil {
		if sc, _ := l.Scratch().(*scratch); sc != nil {
			return sc
		}
	}
	return &scratch{args: make([][]byte, 0, 4), res: make([][]byte, 0, 1), offs: make([]int, 0, 1),
		out: make([]byte, 0, 16), hop: make([]byte, 0, 64), home: l}
}

// scratchMax bounds the vectors a scratch keeps: Release clears every
// kept element, so one huge batch must not tax the ops after it.
const scratchMax = 1 << 10

// Release ends what the scratch holds for an answer — the view's
// lease, then the block's pin — drops what the vectors point at — the
// request frame, block memory — and hands them back to the connection,
// unless a batch grew them past scratchMax.
func (sc *scratch) Release() {
	if sc.lease != nil {
		sc.lease.Release()
	}
	if sc.b != nil {
		sc.b.EndOp()
	}
	sc.lease, sc.b = nil, nil
	if sc.home == nil || cap(sc.args) > scratchMax || cap(sc.ops) > scratchMax || cap(sc.offs) > scratchMax {
		return
	}
	clear(sc.args[:cap(sc.args)])
	clear(sc.res[:cap(sc.res)])
	clear(sc.vec[:cap(sc.vec)])
	clear(sc.fwd[:cap(sc.fwd)])
	clear(sc.ops[:cap(sc.ops)])
	sc.args, sc.res, sc.vec, sc.fwd = sc.args[:0], sc.res[:0], sc.vec[:0], sc.fwd[:0]
	sc.ops, sc.offs, sc.out, sc.hop = sc.ops[:0], sc.offs[:0], sc.out[:0], sc.hop[:0]
	sc.home.PutScratch(sc)
}

// runOp runs one op (MethodDataOp); an append of several records is
// one run of them (opCtx.n).
// The response never aliases the request payload: partitions copy what
// they keep, and a result is either owned outright (a dequeued item, a
// removed value), copied into the response (a KV value, a small view)
// or a view into block memory (see encode).
func (s *Server) runOp(ctx context.Context, l lender, payload []byte) (resp rpc.Response, err error) {
	sc := borrowScratch(l)
	defer func() {
		if resp.Release == nil { // else the rpc layer releases it
			sc.Release()
		}
	}()
	o := opCtx{n: 1, checkNow: true, out: wire.GetBuf(), res: sc.res[:0], offs: sc.offs[:0], sc: sc}
	if o.op, o.block, o.args, err = ds.DecodeRequestInto(sc.args[:0], payload); err != nil {
		return o.encode(err)
	}
	sc.args = o.args
	if o.op.IsControl() {
		return o.encode(errControlOp)
	}
	if o.op == core.OpFileAppend && len(o.args) > 1 {
		o.n = len(o.args) // a run: each arg is a record
	}
	if o.b, err = s.resolve(o.block); err != nil {
		return o.encode(err)
	}
	sc.b = o.b // the pin ends with the scratch
	// The admit stage: the QoS gate charges the tenant the run's records
	// and ingress bytes; release runs once the work is done.
	release, err := s.gate.Admit(ctx, o.b.Tenant, int64(o.n), argBytes(o.args))
	if err != nil {
		return o.encode(err)
	}
	if release != nil {
		defer release()
	}
	resp, err = o.encode(s.apply(ctx, &o))
	sc.offs = o.offs
	return resp, err
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
// here; a larger one goes out as scatter-gather segments in the
// scratch's vector, and its Release is the scratch: the segments, the
// view's lease and the residency pin are held until the rpc layer has
// written the frame.
func (o *opCtx) encode(err error) (rpc.Response, error) {
	switch {
	case err != nil:
		wire.PutBuf(o.out)
		return rpc.BytesResponse(ds.ErrResult(err).Blob), err
	case o.encoded:
		return rpc.BytesResponse(o.out), nil
	case argBytes(o.res) <= wire.InlineFrameThreshold:
		o.out = ds.AppendVals(o.out, o.res)
		if o.lease != nil {
			o.lease.Release()
			o.lease = nil
		}
		return rpc.BytesResponse(o.out), nil
	}
	head, vec := ds.AppendValsVec(o.sc.vec[:0], o.out, o.res)
	o.sc.vec, o.sc.lease, o.lease = vec, o.lease, nil
	return rpc.Response{Payload: head, Vec: vec, Release: o.sc}, nil
}

// runBatch runs a batch (MethodDataOpBatch). Ops fail independently,
// each failure attributed to its op alone, and the repartition
// thresholds are evaluated once per mutated block after the whole
// batch. Each result is encoded into the pooled response, and a view's
// lease released, before the next op runs: a file read's lease held
// across a later write to the same chunk would deadlock the batch on
// itself.
func (s *Server) runBatch(ctx context.Context, l lender, payload []byte) (rpc.Response, error) {
	sc := borrowScratch(l)
	defer sc.Release()
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
		b, err := s.resolve(bo.Block)
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
			release, err := s.gate.Admit(ctx, tenant, d[0], d[1])
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
	// The batch response: u16 count, then one result per op. The apply
	// stage encodes an answer it builds by appending as a whole result
	// (framed); any other outcome goes through ds.AppendResult. Each op
	// is a run of one.
	resp := binary.BigEndian.AppendUint16(wire.GetBuf(), uint16(len(ops)))
	mutated := make(map[core.BlockID]*blockstore.Block)
	for _, bo := range ops {
		o := opCtx{op: bo.Op, block: bo.Block, args: bo.Args, n: 1, b: blocks[bo.Block],
			framed: true, out: resp, res: sc.res[:0], offs: sc.offs[:0], sc: sc}
		err := refused[bo.Block]
		if bo.Op.IsControl() {
			err = errControlOp
		}
		if err == nil {
			err = s.apply(ctx, &o)
			if o.op.IsMutation() && err == nil {
				mutated[o.block] = o.b
			}
		}
		resp = o.out
		switch {
		case err != nil:
			resp = ds.AppendResult(resp, ds.ErrResult(err), nil)
		case !o.encoded:
			resp = ds.AppendResult(resp, ds.ErrResult(nil), o.res)
		}
		if o.lease != nil {
			o.lease.Release()
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
// what they keep) and the onward hop; they decode into the scratch's
// vector, and the answer, which the empty response discards, into its
// buffer. A hop is not admitted — the head admitted the op, and
// charging it again would bill a replicated tenant twice — and it
// leaves notification to the head, whose block the subscribers know.
// A skip (OpNop) only fills its seq (see sequence).
func (s *Server) runHop(ctx context.Context, l lender, payload []byte) error {
	sc := borrowScratch(l)
	defer sc.Release()
	o := opCtx{n: 1, hop: true, out: sc.out[:0], offs: sc.offs[:0], sc: sc}
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
		_, err = s.sequence(ctx, &o)
		return err
	}
	err = s.apply(ctx, &o)
	sc.out = o.out
	return err
}

// resolve is the lookup and pin stages: it looks up a block and holds
// it resident for one operation, rehydrating it first if it has been
// demoted; on success the caller owes b.EndOp().
func (s *Server) resolve(id core.BlockID) (*blockstore.Block, error) {
	b, err := s.store.Get(id)
	if err != nil {
		return nil, err
	}
	for !b.BeginOp() {
		if err := s.rehydrateBlock(b); err != nil {
			return nil, err
		}
	}
	b.Touch(s.store.HeatNow())
	return b, nil
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

// apply runs the op's run against its pinned block and counts its
// records: the one place ServerStats.Ops moves, by n once per run. A
// mutation is sequenced and forwarded (sequence). A read takes the
// partition's zero-copy view when it has one, leaving o.lease set if
// the view holds a read lease, and is answered like a mutation
// otherwise (applyOn). Each acknowledged record then notifies its
// block's subscribers, unless it is a hop. An append refused as full
// may first wait for its chunk's growth and run once more (awaitGrowth):
// sequence reports a refusal only when no record of the run was
// acknowledged, so the wait never follows a landed record.
func (s *Server) apply(ctx context.Context, o *opCtx) (err error) {
	if o.op.IsMutation() {
		var refused error
		refused, err = s.sequence(ctx, o)
		if err == nil && o.op == core.OpFileAppend && !o.hop && errors.Is(refused, core.ErrBlockFull) {
			if err = s.awaitGrowth(ctx, o, refused); err == nil {
				refused, err = s.sequence(ctx, o)
			}
		}
		if err == nil {
			err = refused
		}
	} else if v, handled, verr := ds.ApplyView(o.b.Partition, o.op, o.args, o.res[:0]); handled {
		o.res, o.lease, err = v.Vals, v.Lease, verr
	} else {
		_, err = s.applyOn(o)
	}
	s.ops.Add(int64(o.n))
	if err == nil && !o.hop {
		s.notify(o, o.n)
	}
	return err
}

// record is the args of the run's i-th record: the op's own vector in
// a run of one.
func (o *opCtx) record(i int) [][]byte {
	if o.n == 1 {
		return o.args
	}
	return o.args[i : i+1]
}

// cut ends the run after its first n records.
func (o *opCtx) cut(n int) {
	if n < o.n {
		o.n, o.args = n, o.args[:n]
	}
}

// begin opens an answer on o.out — its own batch result when framed —
// and returns the mark end closes it at.
func (o *opCtx) begin() int {
	mark := len(o.out)
	if o.framed {
		o.out = ds.BeginResult(o.out)
	}
	return mark
}

// end closes the answer begin opened at mark.
func (o *opCtx) end(mark int) {
	if o.framed {
		o.out = ds.EndResult(o.out, mark)
	}
	o.encoded = true
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
// The wait ends on the answer, on ctx and on Close, and holds only the
// op's own worker: the connection's other requests go on meanwhile.
func (s *Server) awaitGrowth(ctx context.Context, o *opCtx, refused error) error {
	s.store.CheckThresholds(o.b)
	growth := o.b.Growth()
	if growth == nil {
		return nil
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

// applyOn runs the op against its block and reports how many records
// of its run landed. A run of appends to a file chunk lands under one
// hold of the chunk lock (Store.AppendRun), back to back, until a
// record is refused; their offsets go to o.offs, and sequence answers
// them once they are forwarded. A built-in op
// whose answer is an integer or a copied value — a KV get, its value
// copied under the bucket lock; a file write; any usage — is encoded
// onto o.out (ds.AppendAnswer) and sets o.encoded; any other op is the
// partition's Apply, its result o.res.
func (s *Server) applyOn(o *opCtx) (int, error) {
	// An append whose vector is not one record falls through to the
	// partition's own argument check.
	if o.op == core.OpFileAppend && len(o.args) == o.n {
		offs, handled, err := s.store.AppendRun(o.b, o.args, o.offs[:0], o.checkNow)
		if handled {
			o.offs = offs
			return len(offs), err
		}
	}
	mark := o.begin()
	out, handled, err := s.store.AppendOn(o.b, o.out, o.op, o.args, o.checkNow)
	if handled && err == nil {
		o.out = out
		o.end(mark)
		return 1, nil
	}
	o.out = o.out[:mark]
	if !handled {
		o.res, err = s.store.ApplyOn(o.b, o.op, o.args, o.checkNow)
	}
	if err != nil {
		return 0, err
	}
	return 1, nil
}

// sequence applies a mutation's run (applyOn) in chain order, forwards
// it to the block's successor and answers it. A run that had records
// acknowledged is cut to them and answers them, whatever stopped it: a
// refused record, or a failed forward, which leaves records that landed
// unacknowledged; the client sends the rest again. An append answers
// where its records landed: one record its offset, several the first
// one's offset and how many landed, back to back. A run none of whose
// records was acknowledged returns the refusal that stopped it, or
// apart from it err: a seal or a failed forward. A hop
// applies in its predecessor's sequence order (ApplyInOrder). Its seq
// is consumed even when the apply refuses, so a refusing replica
// forwards a skip (an OpNop hop) in its place, counted in
// jiffy_server_hop_refusals_total, and a skip it receives fills the seq
// without applying: a member's refusal never leaves a gap that parks
// every later hop at its successors. The head of a replicated chain
// applies the run under the lock it takes consecutive sequence numbers
// under, one per landed record (NextReplSeq), and forwards each record
// as its own hop. Any other block applies directly, and refuses once
// sealed for migration. The chain forwarded along is read under the
// same lock as the sequence numbers, so a repair splice landing
// meanwhile can never pair a new generation with the old layout — which
// would let mid-chain survivors apply a mutation the spliced-in
// replacement misses, wedging the stream on the hole.
func (s *Server) sequence(ctx context.Context, o *opCtx) (refused, err error) {
	b, mark := o.b, len(o.out)
	landed := 0
	applyOn := func() int {
		landed, refused = s.applyOn(o)
		return landed
	}
	var chain core.ReplicaChain
	var seq, gen uint64
	switch c := b.Chain(); {
	case o.hop:
		chain, err = b.ApplyInOrder(o.seq, o.gen, func() error {
			if o.op != core.OpNop {
				applyOn()
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("server: replica apply: %w", err)
		}
		if refused != nil {
			s.hopRefusals.Inc()
			return refused, s.propagate(ctx, o, chain, o.seq, o.gen, core.OpNop, nil)
		}
		return nil, s.propagate(ctx, o, chain, o.seq, o.gen, o.op, o.args)
	case len(c) > 1 && c.Head().ID == b.ID:
		if chain, seq, gen, err = b.NextReplSeq(applyOn); err != nil {
			return nil, err
		}
	default:
		if !b.Sealed() {
			applyOn()
		}
		if b.Sealed() {
			// Sealed, possibly while the run applied: the migration
			// snapshot may miss it, so no record of it is acknowledged and
			// the client retries against the migrated block.
			o.out, o.offs = o.out[:mark], o.offs[:0]
			return nil, fmt.Errorf("server: block %v sealed for migration: %w", b.ID, core.ErrStaleEpoch)
		}
	}
	// A failed forward unacknowledges its record and every later one of
	// the run, which are still forwarded: each fills its seq at the
	// successor, as a refusing replica's skip does.
	acked := landed
	if len(chain) > 1 { // else there is no successor
		for i := range landed {
			if ferr := s.propagate(ctx, o, chain, seq+uint64(i), gen, o.op, o.record(i)); ferr != nil && err == nil {
				err, acked = ferr, i
			}
		}
	}
	switch {
	case acked > 0:
		o.cut(acked)
		refused, err = nil, nil
	case err != nil:
		o.out = o.out[:mark]
		o.cut(landed)
	case refused != nil:
		o.cut(1)
	}
	if len(o.offs) > acked {
		o.offs = o.offs[:acked]
	}
	if n := len(o.offs); n > 0 {
		m := o.begin()
		if n == 1 {
			o.out = ds.AppendU64(o.out, uint64(o.offs[0]))
		} else {
			o.out = ds.AppendU64(o.out, uint64(o.offs[0]), uint64(n))
		}
		o.end(m)
	}
	return refused, err
}
