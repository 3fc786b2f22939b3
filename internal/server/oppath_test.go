package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"jiffy/internal/blockstore"
	"jiffy/internal/clock"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
	"jiffy/internal/wire"
)

// The op-path table: every entry to the data-op path (oppath.go) — the
// inline entry as the rpc layer runs it (punting to the goroutine
// entry), the goroutine entry, a one-op batch, and the chain hop for
// mutations — against every op kind, block state and gate state. Each
// cell asserts the answer and which stages ran, and that no residency
// pin outlives the response.

// opKind is one op the table drives, with the "v0" its block is seeded
// with; a mutation's args do not fit beside the seed in a block of
// fullCap bytes.
type opKind struct {
	name    string
	typ     core.DSType
	op      core.OpType
	args    [][]byte
	seed    [][]byte // OpPut / OpFileWrite / OpEnqueue args writing "v0"
	fullCap int      // the block capacity of the full state
}

var opKinds = []opKind{
	{"kv.get", core.DSKV, core.OpGet, [][]byte{[]byte("k")}, [][]byte{[]byte("k"), []byte("v0")}, 3},
	{"kv.put", core.DSKV, core.OpPut, [][]byte{[]byte("k1"), []byte("v1")}, [][]byte{[]byte("k"), []byte("v0")}, 4},
	{"file.read", core.DSFile, core.OpFileRead, [][]byte{ds.U64(0), ds.U64(2)}, [][]byte{ds.U64(0), []byte("v0")}, 2},
	{"file.write", core.DSFile, core.OpFileWrite, [][]byte{ds.U64(2), []byte("v1")}, [][]byte{ds.U64(0), []byte("v0")}, 2},
	{"queue.enqueue", core.DSQueue, core.OpEnqueue, [][]byte{[]byte("v1")}, [][]byte{[]byte("v0")}, 2},
	{"queue.peek", core.DSQueue, core.OpQueuePeek, nil, [][]byte{[]byte("v0")}, 2},
}

var (
	opStates  = []string{"resident", "demoted", "replicated", "full", "sealed", "redirect", "unknown"}
	opGates   = []string{"off", "admitting", "throttling"}
	opEntries = []string{"inline", "goroutine", "batch", "hop"}
)

// opOutcome is what one cell observed.
type opOutcome struct {
	code  core.ErrorCode
	value string // a read's value, a redirect's target server, "throttled"
	ops   int64  // ServerStats.Ops delta

	rehydrated, admitted, forwarded, notified, inline bool
	leaked                                            bool // a block still pinned after Release
}

// wantOp is the table: one outcome per (op, state, gate), the same on
// every entry but for what an entry is — only the inline entry runs
// inline, and a hop is never admitted, notifies nobody and answers with
// the bare code.
func wantOp(k opKind, state, gate, entry string) opOutcome {
	mut := k.op.IsMutation()
	w := opOutcome{inline: entry == "inline"}
	if state == "unknown" { // lookup fails before anything is taken
		w.code = core.CodeStaleEpoch
		return w
	}
	// The inline entry punts at lookup, pin or admit.
	w.inline = w.inline && !(mut && state == "replicated") && state != "demoted" && gate == "off"
	w.rehydrated = state == "demoted"
	if entry != "hop" && gate != "off" {
		if gate == "throttling" {
			w.code, w.value = core.CodeQuotaExceeded, "throttled"
			return w
		}
		w.admitted = true
	}
	w.ops = 1
	switch {
	case state == "redirect":
		w.code = core.CodeRedirect
		if entry != "hop" {
			w.value = "next"
		}
	case mut && state == "full":
		w.code = core.CodeBlockFull
	case mut && state == "sealed":
		w.code = core.CodeStaleEpoch
	default:
		w.forwarded = mut && state == "replicated"
		w.notified = entry != "hop"
		if !mut {
			w.value = "v0"
		}
	}
	return w
}

var opSrvSeq atomic.Int64

func startOpServer(t *testing.T, clk clock.Clock) *Server {
	t.Helper()
	s, err := New(Options{Config: core.TestConfig(), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Listen(fmt.Sprintf("mem://oppath-%d", opSrvSeq.Add(1))); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// opFixture is one cell's server, its block in the cell's state, the
// chain successor (replicated state only) and a client subscribed to
// every op on the block.
type opFixture struct {
	s, next *Server
	blocks  []*blockstore.Block
	block   core.BlockID
	c       *rpc.Client
	pushes  atomic.Int64
}

func newOpFixture(t *testing.T, k opKind, state, gate string) *opFixture {
	t.Helper()
	// A virtual clock that never moves: a drained token bucket stays empty.
	vclk := clock.NewVirtual(time.Unix(0, 0))
	f := &opFixture{s: startOpServer(t, vclk), block: 1}
	var chain core.ReplicaChain
	if state == "replicated" {
		f.next = startOpServer(t, vclk)
		chain = core.ReplicaChain{{ID: 1, Server: f.s.Addr()}, {ID: 2, Server: f.next.Addr()}}
	}
	capacity := 64 * core.KB
	if state == "full" {
		capacity = k.fullCap
	}
	create := func(s *Server, id core.BlockID) {
		_, err := s.createBlock(proto.CreateBlockReq{Block: id, Path: "j/t", Type: k.typ, Capacity: capacity,
			NumSlots: 64, Slots: []ds.SlotRange{{Lo: 0, Hi: 63}}, Chain: chain})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := s.store.Get(id)
		seed := map[core.DSType]core.OpType{core.DSKV: core.OpPut, core.DSFile: core.OpFileWrite, core.DSQueue: core.OpEnqueue}
		if state != "redirect" {
			if _, err := b.Partition.Apply(seed[k.typ], k.seed); err != nil {
				t.Fatal(err)
			}
		}
		f.blocks = append(f.blocks, b)
	}
	create(f.s, 1)
	if f.next != nil {
		create(f.next, 2)
	}
	b := f.blocks[0]
	switch state {
	case "demoted":
		if ok, err := f.s.demoteBlock(b); !ok || err != nil {
			t.Fatalf("demote: %v, %v", ok, err)
		}
	case "sealed":
		b.Seal()
	case "redirect":
		next := ds.RedirectPayload(core.BlockInfo{ID: 7, Server: "next"})
		if _, err := b.Partition.Apply(core.OpQueueSetNext, [][]byte{next}); err != nil {
			t.Fatal(err)
		}
	case "unknown":
		f.block = 99
	}
	switch gate {
	case "admitting":
		f.s.gate.SetQuota("j", core.Quota{OpsPerSec: 1e9})
	case "throttling":
		f.s.gate.SetQuota("j", core.Quota{OpsPerSec: 1})
		release, err := f.s.gate.Admit(context.Background(), "j", 1, 0) // the bucket's one token
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	c, err := rpc.Dial(f.s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.OnPush(func(uint64, []byte) { f.pushes.Add(1) })
	all := []core.OpType{core.OpGet, core.OpPut, core.OpFileRead, core.OpFileWrite, core.OpEnqueue, core.OpQueuePeek}
	if _, err := rpc.Invoke(context.Background(), c, proto.Subscribe, proto.SubscribeReq{Blocks: []core.BlockID{1}, Ops: all}); err != nil {
		t.Fatal(err)
	}
	f.c = c
	return f
}

// opCounters reads the counters the stages move.
type opCounters struct{ ops, promotions, admitted, nextOps, pushes int64 }

func (f *opFixture) counters(t *testing.T) opCounters {
	t.Helper()
	// The stats call doubles as a barrier: pushes written before its
	// response on the same connection have been delivered.
	st, err := rpc.Invoke(context.Background(), f.c, proto.ServerStats, proto.ServerStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	n := opCounters{ops: st.Ops, promotions: f.s.tierPromotions.Value(), pushes: f.pushes.Load()}
	for _, ts := range f.s.gate.Stats() {
		if ts.Tenant == "j" {
			n.admitted = ts.Admitted
		}
	}
	if f.next != nil {
		n.nextOps = f.next.Ops()
	}
	return n
}

// run drives one op through entry and reports what happened.
func (f *opFixture) run(t *testing.T, k opKind, entry string) opOutcome {
	t.Helper()
	ctx := context.Background()
	before := f.counters(t)
	var got opOutcome
	payload := ds.EncodeRequest(k.op, f.block, k.args)
	var resp rpc.Response
	var err error
	switch entry {
	case "inline":
		if len(payload) > wire.InlineFrameThreshold {
			t.Fatalf("%d-byte request would not be run inline", len(payload))
		}
		// As the rpc layer does: a punt re-runs the op on the goroutine entry.
		if resp, err = f.s.runOp(ctx, payload, true); err == rpc.ErrDispatchAsync {
			resp, err = f.s.handle(ctx, nil, proto.MethodDataOp, payload)
		} else {
			got.inline = true
		}
	case "goroutine":
		resp, err = f.s.handle(ctx, nil, proto.MethodDataOp, payload)
	case "batch":
		batch := ds.EncodeBatchRequest([]ds.BatchOp{{Op: k.op, Block: f.block, Args: k.args}})
		resp, err = f.s.handle(ctx, nil, proto.MethodDataOpBatch, batch)
	case "hop":
		vec, _ := ds.AppendReplicateVec(nil, 0, 0, k.op, f.block, k.args)
		resp, err = f.s.handle(ctx, nil, proto.MethodReplicate, bytes.Join(vec, nil))
	}
	body := append(append([]byte(nil), resp.Payload...), bytes.Join(resp.Vec, nil)...)
	if resp.Release != nil {
		resp.Release()
	}
	for _, b := range f.blocks {
		got.leaked = got.leaked || b.Inflight() != 0
	}

	// The answer as a client decodes it.
	got.code = core.CodeOf(err)
	if entry == "batch" && err == nil {
		results, derr := ds.DecodeBatchResults(body)
		if derr != nil || len(results) != 1 {
			t.Fatalf("batch response: %d results, %v", len(results), derr)
		}
		got.code, body = results[0].Code, results[0].Blob
	}
	switch got.code {
	case core.CodeOK:
		if entry == "hop" {
			break // the acknowledgement is the empty response
		}
		vals, derr := ds.DecodeVals(body)
		if derr != nil {
			t.Fatalf("result: %v", derr)
		}
		if !k.op.IsMutation() && len(vals) == 1 {
			got.value = string(vals[0])
		}
	case core.CodeRedirect:
		if next, perr := ds.ParseRedirect(body); perr == nil {
			got.value = next.Server
		}
	case core.CodeQuotaExceeded:
		var te *core.ThrottleError
		if errors.As(core.ErrOf(got.code, string(body)), &te) && te.Tenant == "j" {
			got.value = "throttled"
		}
	}

	after := f.counters(t)
	got.ops = after.ops - before.ops
	got.rehydrated = after.promotions > before.promotions
	got.admitted = after.admitted > before.admitted
	got.forwarded = after.nextOps > before.nextOps
	got.notified = after.pushes > before.pushes
	return got
}

// TestOpPathTable runs every cell of the op-path table.
func TestOpPathTable(t *testing.T) {
	for _, k := range opKinds {
		for _, state := range opStates {
			if state == "redirect" && k.typ != core.DSQueue {
				continue
			}
			for _, gate := range opGates {
				for _, entry := range opEntries {
					if entry == "hop" && !k.op.IsMutation() {
						continue
					}
					t.Run(k.name+"/"+state+"/"+gate+"/"+entry, func(t *testing.T) {
						got := newOpFixture(t, k, state, gate).run(t, k, entry)
						if want := wantOp(k, state, gate, entry); got != want {
							t.Errorf("got  %+v\nwant %+v", got, want)
						}
					})
				}
			}
		}
	}
}

// TestBatchReleasesViewLease: a batched file read answers from a leased
// view, and the lease must be released before the next op runs — a
// write to the same chunk later in the batch would wait on it forever.
func TestBatchReleasesViewLease(t *testing.T) {
	k := opKinds[2] // file.read
	f := newOpFixture(t, k, "resident", "off")
	batch := ds.EncodeBatchRequest([]ds.BatchOp{
		{Op: core.OpFileRead, Block: 1, Args: k.args},
		{Op: core.OpFileWrite, Block: 1, Args: [][]byte{ds.U64(0), []byte("v1")}},
		{Op: core.OpFileRead, Block: 1, Args: k.args},
	})
	done := make(chan []byte, 1)
	go func() {
		resp, err := f.s.handle(context.Background(), nil, proto.MethodDataOpBatch, batch)
		if err != nil {
			t.Error(err)
		}
		done <- resp.Payload
	}()
	var body []byte
	select {
	case body = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("batch deadlocked on its own read lease")
	}
	results, err := ds.DecodeBatchResults(body)
	if err != nil || len(results) != 3 {
		t.Fatalf("batch response: %d results, %v", len(results), err)
	}
	for i, want := range []string{"v0", "", "v1"} {
		err := results[i].Err()
		var vals [][]byte
		if err == nil {
			vals, err = ds.DecodeVals(results[i].Blob)
		}
		if err != nil || (want != "" && (len(vals) != 1 || string(vals[0]) != want)) {
			t.Errorf("op %d = %q, %v; want %q", i, vals, err, want)
		}
	}
}

// TestRunOpKVAllocs is the server-layer allocation gate: a KV put and
// get through runOp, from decode to the encoded response, allocate
// nothing. The args decode into a pooled vector, the put copies its
// value into the bytes the table already holds, and the get copies the
// value into the pooled response under its bucket lock.
func TestRunOpKVAllocs(t *testing.T) {
	if poolsInstrumented {
		t.Skip("the race detector or the jiffydebug build instruments the pools")
	}
	s := startOpServer(t, clock.NewVirtual(time.Unix(0, 0)))
	if _, err := s.createBlock(proto.CreateBlockReq{Block: 1, Path: "j/t", Type: core.DSKV, Capacity: core.MB,
		NumSlots: 64, Slots: []ds.SlotRange{{Lo: 0, Hi: 63}}}); err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 128)
	ctx := context.Background()
	for _, c := range []struct {
		name string
		req  []byte
		want []byte
	}{
		{"put", ds.EncodeRequest(core.OpPut, 1, [][]byte{[]byte("key"), val}), ds.EncodeVals(nil)},
		{"get", ds.EncodeRequest(core.OpGet, 1, [][]byte{[]byte("key")}), ds.EncodeVals([][]byte{val})},
	} {
		run := func() {
			resp, err := s.runOp(ctx, c.req, true)
			if err != nil || !bytes.Equal(resp.Payload, c.want) || resp.Vec != nil {
				t.Fatalf("%s: %q + %d segments, %v", c.name, resp.Payload, len(resp.Vec), err)
			}
			wire.PutBuf(resp.Payload)
		}
		run()
		if allocs := testing.AllocsPerRun(1000, run); allocs != 0 {
			t.Errorf("runOp %s allocates %.1f objects, want 0", c.name, allocs)
		}
	}
}

// TestRunOpFileAllocs is the same gate for a file chunk: a write and an
// append through runOp answer by encoding their integer onto the pooled
// response (ds.AppendAnswer), so from decode to the encoded response
// neither allocates. The chunk's doubling growth under the appends is
// amortized below one object per run.
func TestRunOpFileAllocs(t *testing.T) {
	if poolsInstrumented {
		t.Skip("the race detector or the jiffydebug build instruments the pools")
	}
	s := startOpServer(t, clock.NewVirtual(time.Unix(0, 0)))
	if _, err := s.createBlock(proto.CreateBlockReq{Block: 1, Path: "j/f", Type: core.DSFile, Capacity: core.MB}); err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte("r"), 100)
	wrote := ds.EncodeVals([][]byte{ds.U64(uint64(len(rec)))})
	ctx := context.Background()
	for _, c := range []struct {
		name string
		req  []byte
	}{
		{"write", ds.EncodeRequest(core.OpFileWrite, 1, [][]byte{ds.U64(0), rec})},
		{"append", ds.EncodeRequest(core.OpFileAppend, 1, [][]byte{rec})},
	} {
		run := func() {
			resp, err := s.runOp(ctx, c.req, true)
			// One 8-byte value: a write's count, an append's offset.
			if err != nil || len(resp.Payload) != len(wrote) || !bytes.Equal(resp.Payload[:6], wrote[:6]) || resp.Vec != nil {
				t.Fatalf("%s: %q + %d segments, %v", c.name, resp.Payload, len(resp.Vec), err)
			}
			if c.name == "write" && !bytes.Equal(resp.Payload, wrote) {
				t.Fatalf("write answered %q, want %q", resp.Payload, wrote)
			}
			wire.PutBuf(resp.Payload)
		}
		run()
		if allocs := testing.AllocsPerRun(1000, run); allocs != 0 {
			t.Errorf("runOp %s allocates %.1f objects, want 0", c.name, allocs)
		}
	}
}

// TestOpAfterDeleteIsStale: an op that looked up and pinned its file
// block before a DeleteBlock reaches its apply stage after it. The
// delete released the chunk, so the op answers ErrStaleEpoch — what the
// lookup answers once the delete has landed, which sends the client to
// refresh its map — instead of being acknowledged on a detached
// partition whose bytes no reader will ever see.
func TestOpAfterDeleteIsStale(t *testing.T) {
	s := startOpServer(t, clock.NewVirtual(time.Unix(0, 0)))
	ctx := context.Background()
	for i, c := range []struct {
		op   core.OpType
		args [][]byte
	}{
		{core.OpFileWrite, [][]byte{ds.U64(0), []byte("v1")}},
		{core.OpFileAppend, [][]byte{[]byte("v1")}},
		{core.OpFileRead, [][]byte{ds.U64(0), ds.U64(2)}},
	} {
		id := core.BlockID(i + 1)
		if _, err := s.createBlock(proto.CreateBlockReq{Block: id, Path: "j/f", Type: core.DSFile, Capacity: core.MB}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.store.Apply(id, core.OpFileWrite, [][]byte{ds.U64(0), []byte("v0")}); err != nil {
			t.Fatal(err)
		}
		o := opCtx{op: c.op, block: id, args: c.args, checkNow: true, out: wire.GetBuf()}
		var err error
		if o.b, err = s.store.Get(id); err != nil {
			t.Fatal(err)
		}
		if err = s.pin(o.b, false); err != nil {
			t.Fatal(err)
		}
		if _, err := s.deleteBlock(proto.DeleteBlockReq{Block: id}); err != nil {
			t.Fatal(err)
		}
		err = s.apply(ctx, &o)
		if o.lease != nil {
			o.lease()
		}
		o.b.EndOp()
		if !errors.Is(err, core.ErrStaleEpoch) {
			t.Errorf("%v resolved before its block's delete: %v, want ErrStaleEpoch", c.op, err)
		}
		wire.PutBuf(o.out)
	}
}
