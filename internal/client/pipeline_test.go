package client

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
)

// The (op kind × error class) table for the client op pipeline. A fake
// controller and three scripted fake data servers — rpc servers on
// mem:// — stand in for the cluster: every structure is one block on
// the chain s0 (head) → s1 → s2 (tail), the data servers replay a
// per-attempt script of answers, and each cell asserts what the
// pipeline did about the first answer: map refreshes, scale requests,
// throttle waits, attempts, the server that answered last and the
// final error. DESIGN.md "Client op pipeline" carries the same table.

// step is one scripted answer of a data server.
type step struct {
	err     error // nil: every op succeeds
	perCall bool  // batches: fail the call, not the second half of its ops
	cancel  bool  // cancel the caller's context before answering
}

// hit is one request a data server received.
type hit struct {
	server string
	ops    int
}

var fakeSeq atomic.Int64

// fake is a scripted cluster.
type fake struct {
	t      *testing.T
	ctrl   string
	srv    [3]string // s0 head, s1 middle, s2 tail
	cancel context.CancelFunc

	mu      sync.Mutex
	pmap    ds.PartitionMap
	opens   int
	scales  int
	onScale func(m *ds.PartitionMap)
	script  []step
	hits    []hit
}

const fakeChunk = 1024

// okVals is what every op succeeds with: eight bytes parse as a file
// offset and pass as a value or an item.
var okVals = [][]byte{ds.U64(7)}

// newFake boots the controller and the data servers named in live
// ("s0", "s1", "s2"; the rest are dead addresses) around a one-block
// structure of type t.
func newFake(t *testing.T, dsType core.DSType, live ...string) *fake {
	t.Helper()
	base := fmt.Sprintf("mem://pipe%d-", fakeSeq.Add(1))
	f := &fake{t: t, ctrl: base + "ctrl", srv: [3]string{base + "s0", base + "s1", base + "s2"}}
	chain := core.ReplicaChain{{ID: 1, Server: f.srv[0]}, {ID: 2, Server: f.srv[1]}, {ID: 3, Server: f.srv[2]}}
	f.pmap = ds.PartitionMap{Type: dsType, Epoch: 1, Blocks: []ds.PartitionEntry{{Info: chain[0], Chain: chain}}}
	switch dsType {
	case core.DSKV:
		f.pmap.NumSlots = 16
		f.pmap.Blocks[0].Slots = []ds.SlotRange{{Lo: 0, Hi: 15}}
	case core.DSQueue:
	default:
		f.pmap.ChunkSize = fakeChunk
	}
	listen := func(addr string, h rpc.Handler) {
		s := rpc.NewServer(h, nil)
		if _, err := s.Listen(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
	}
	listen(f.ctrl, rpc.BytesHandler(f.ctrlTable().Dispatch))
	for _, name := range live {
		addr := f.srv[name[1]-'0']
		listen(addr, func(_ context.Context, _ *rpc.ServerConn, method uint16, payload []byte) (rpc.Response, error) {
			return f.serveData(addr, method, payload)
		})
	}
	return f
}

// ctrlTable is the fake controller: the three methods a handle uses.
func (f *fake) ctrlTable() *rpc.Table {
	var tbl rpc.Table
	rpc.Handle(&tbl, proto.CtrlRole, func(context.Context, *rpc.ServerConn, proto.CtrlRoleReq) (proto.CtrlRoleResp, error) {
		return proto.CtrlRoleResp{IsLeader: true}, nil
	})
	rpc.Handle(&tbl, proto.Open, func(context.Context, *rpc.ServerConn, proto.OpenReq) (proto.OpenResp, error) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.opens++
		return proto.OpenResp{Map: f.pmap.Clone(), LeaseDuration: time.Minute}, nil
	})
	rpc.Handle(&tbl, proto.ScaleUp, func(context.Context, *rpc.ServerConn, proto.ScaleUpReq) (proto.ScaleUpResp, error) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.scales++
		if f.onScale != nil {
			f.onScale(&f.pmap)
		}
		return proto.ScaleUpResp{Map: f.pmap.Clone()}, nil
	})
	return &tbl
}

// wireResult is err as a data server ships it: the code travels in the
// frame, redirects and typed refusals carry a payload.
func (f *fake) wireResult(err error) ds.BatchResult {
	r := ds.BatchResult{Code: core.CodeOf(err)}
	switch r.Code {
	case core.CodeRedirect:
		r.Blob = ds.RedirectPayload(core.BlockInfo{ID: 99, Server: f.srv[1]})
	case core.CodeQuotaExceeded, core.CodeServerDegraded, core.CodeOther:
		r.Blob = []byte(err.Error())
	}
	return r
}

func (f *fake) serveData(addr string, method uint16, payload []byte) (rpc.Response, error) {
	nops := 1
	if method == proto.MethodDataOpBatch {
		ops, err := ds.DecodeBatchRequest(payload)
		if err != nil {
			return rpc.Response{}, err
		}
		nops = len(ops)
	} else if _, _, _, err := ds.DecodeRequest(payload); err != nil {
		return rpc.Response{}, err
	}
	f.mu.Lock()
	f.hits = append(f.hits, hit{server: addr, ops: nops})
	var st step
	if len(f.script) > 0 {
		st, f.script = f.script[0], f.script[1:]
	}
	f.mu.Unlock()
	if st.cancel {
		f.cancel()
	}
	if method == proto.MethodDataOp || st.perCall {
		if st.err != nil {
			return rpc.BytesResponse(f.wireResult(st.err).Blob), st.err
		}
		if method == proto.MethodDataOp {
			return rpc.BytesResponse(ds.EncodeVals(okVals)), nil
		}
	}
	// A batch fails op by op: the first half lands, the rest get st.err.
	results := make([]ds.BatchResult, nops)
	for i := range results {
		if st.err != nil && i >= nops/2 {
			results[i] = f.wireResult(st.err)
		} else {
			results[i] = ds.OKResult(okVals)
		}
	}
	return rpc.BytesResponse(ds.EncodeBatchResults(results)), nil
}

// dial connects a client to the fake cluster.
func (f *fake) dial(opts ...Option) *Client {
	f.t.Helper()
	opts = append([]Option{WithControllers(f.ctrl), WithRPCTimeout(2 * time.Second)}, opts...)
	c, err := Dial(context.Background(), opts...)
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { c.Close() })
	return c
}

// outcome is what one cell asserts.
type outcome struct {
	refreshes int    // map fetches after the handle's own open
	scales    int    // ScaleUp requests
	waits     int    // throttle waits
	attempts  int    // requests that reached a data server
	last      string // server that answered the last one ("s0".."s2")
	lastOps   int    // ops in the last request
	landed    int    // the chunk a file append lands in
	err       error  // nil, or the sentinel the final error must match
}

// check compares what happened with want. Every op kind opens exactly
// one handle, so the first Open is not a refresh.
func (f *fake) check(c *Client, got error, want outcome) {
	f.t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	if want.err == nil && got != nil {
		f.t.Errorf("error = %v, want success", got)
	}
	if want.err != nil && !errors.Is(got, want.err) {
		f.t.Errorf("error = %v, want %v", got, want.err)
	}
	if n := f.opens - 1; n != want.refreshes {
		f.t.Errorf("map refreshes = %d, want %d", n, want.refreshes)
	}
	if f.scales != want.scales {
		f.t.Errorf("scale requests = %d, want %d", f.scales, want.scales)
	}
	if n := int(c.throttleWaits.Value()); n != want.waits {
		f.t.Errorf("throttle waits = %d, want %d", n, want.waits)
	}
	if len(f.hits) != want.attempts {
		f.t.Fatalf("attempts = %d (%v), want %d", len(f.hits), f.hits, want.attempts)
	}
	if want.attempts > 0 {
		lastHit := f.hits[len(f.hits)-1]
		if s := lastHit.server[len(lastHit.server)-2:]; want.last != "" && s != want.last {
			f.t.Errorf("last answer came from %s, want %s", s, want.last)
		}
		if lastHit.ops != want.lastOps {
			f.t.Errorf("last request carried %d ops, want %d", lastHit.ops, want.lastOps)
		}
	}
}

// opKind is one row group of the table: an op of the public API.
type opKind struct {
	name    string
	dsType  core.DSType
	read    bool // not a mutation: routed to the chain tail
	follows bool // follows links: a redirect sends it to the successor
	custom  bool // does not grow on full
	batch   int  // ops per call, 0 for a single op
	// run drives the op; a file append must land in chunk landed.
	run func(ctx context.Context, c *Client, landed int) error
}

const customType = ds.CustomBase + 7

func batchItems(n int) [][]byte {
	items := make([][]byte, n)
	for i := range items {
		items[i] = []byte{byte(i)}
	}
	return items
}

// shrunk is the size of a batch's last request when every attempt
// fails the second half of the ops it carried.
func shrunk(ops, attempts int) int {
	for ; attempts > 1; attempts-- {
		ops -= ops / 2
	}
	return ops
}

// discard adapts a (value, error) op to the error the table checks.
func discard[T any](_ T, err error) error { return err }

var opKinds = []opKind{
	{name: "KV.Get", dsType: core.DSKV, read: true, run: func(ctx context.Context, c *Client, landed int) error {
		kv, err := c.OpenKV(ctx, "j/s")
		if err != nil {
			return err
		}
		return discard(kv.Get(ctx, "k"))
	}},
	{name: "KV.Put", dsType: core.DSKV, run: func(ctx context.Context, c *Client, landed int) error {
		kv, err := c.OpenKV(ctx, "j/s")
		if err != nil {
			return err
		}
		return kv.Put(ctx, "k", []byte("v"))
	}},
	{name: "File.ReadAt", dsType: core.DSFile, read: true, run: func(ctx context.Context, c *Client, landed int) error {
		f, err := c.OpenFile(ctx, "j/s")
		if err != nil {
			return err
		}
		return discard(f.ReadAt(ctx, 0, 8))
	}},
	{name: "File.WriteAt", dsType: core.DSFile, run: func(ctx context.Context, c *Client, landed int) error {
		f, err := c.OpenFile(ctx, "j/s")
		if err != nil {
			return err
		}
		return f.WriteAt(ctx, 0, []byte("data"))
	}},
	{name: "File.AppendRecord", dsType: core.DSFile, follows: true, run: func(ctx context.Context, c *Client, landed int) error {
		f, err := c.OpenFile(ctx, "j/s")
		if err != nil {
			return err
		}
		off, err := f.AppendRecord(ctx, []byte("rec"))
		if want := landed*fakeChunk + 7; err == nil && off != want {
			err = fmt.Errorf("record landed at %d, want %d", off, want)
		}
		return err
	}},
	{name: "Queue.Enqueue", dsType: core.DSQueue, follows: true, run: func(ctx context.Context, c *Client, landed int) error {
		q, err := c.OpenQueue(ctx, "j/s")
		if err != nil {
			return err
		}
		return q.Enqueue(ctx, []byte("item"))
	}},
	{name: "Queue.Dequeue", dsType: core.DSQueue, follows: true, run: func(ctx context.Context, c *Client, landed int) error {
		q, err := c.OpenQueue(ctx, "j/s")
		if err != nil {
			return err
		}
		return discard(q.Dequeue(ctx))
	}},
	{name: "Queue.Peek", dsType: core.DSQueue, follows: true, read: true, run: func(ctx context.Context, c *Client, landed int) error {
		q, err := c.OpenQueue(ctx, "j/s")
		if err != nil {
			return err
		}
		return discard(q.Peek(ctx))
	}},
	{name: "Custom.Exec(read)", dsType: customType, custom: true, read: true, run: func(ctx context.Context, c *Client, landed int) error {
		cu, err := c.OpenCustom(ctx, "j/s", customType)
		if err != nil {
			return err
		}
		return discard(cu.Exec(ctx, 0, core.OpGet, []byte("k")))
	}},
	{name: "Custom.Exec(mutation)", dsType: customType, custom: true, run: func(ctx context.Context, c *Client, landed int) error {
		cu, err := c.OpenCustom(ctx, "j/s", customType)
		if err != nil {
			return err
		}
		return discard(cu.Exec(ctx, 0, core.OpUpdate, []byte("k"), []byte("v")))
	}},
	{name: "KV.MultiPut", dsType: core.DSKV, batch: 4, run: func(ctx context.Context, c *Client, landed int) error {
		kv, err := c.OpenKV(ctx, "j/s")
		if err != nil {
			return err
		}
		return kv.MultiPut(ctx, []KVPair{{"a", nil}, {"b", nil}, {"c", nil}, {"d", nil}})
	}},
	{name: "File.AppendBatch", dsType: core.DSFile, follows: true, batch: 4, run: func(ctx context.Context, c *Client, landed int) error {
		f, err := c.OpenFile(ctx, "j/s")
		if err != nil {
			return err
		}
		offs, err := f.AppendBatch(ctx, batchItems(4))
		for i, off := range offs {
			want := 7 // the placed prefix lands in the first chunk
			if i >= 2 {
				want += landed * fakeChunk
			}
			if err == nil && off != want {
				err = fmt.Errorf("record %d landed at %d, want %d", i, off, want)
			}
		}
		return err
	}},
	{name: "Queue.EnqueueBatch", dsType: core.DSQueue, follows: true, batch: 4, run: func(ctx context.Context, c *Client, landed int) error {
		q, err := c.OpenQueue(ctx, "j/s")
		if err != nil {
			return err
		}
		return q.EnqueueBatch(ctx, batchItems(4))
	}},
}

// errClass is one column: what the first attempt is answered with.
type errClass struct {
	name string
	step step
}

const throttleHint = 2 * time.Millisecond

var errThrottled = &core.ThrottleError{Tenant: "j", RetryAfter: throttleHint}

var errClasses = []errClass{
	{"stale-epoch", step{err: core.ErrStaleEpoch}},
	{"block-full", step{err: core.ErrBlockFull}},
	{"redirect", step{err: core.ErrRedirect}},
	{"throttled", step{err: errThrottled}},
	{"degraded", step{err: &core.DegradedError{Server: "s", RetryAfter: time.Second}}},
	{"conn-drop", step{err: core.ErrClosed, perCall: true}},
	{"timeout", step{err: core.ErrTimeout, perCall: true}},
	{"op-level", step{err: core.ErrTooLarge}},
	{"ctx-cancel", step{err: core.ErrStaleEpoch, cancel: true}},
}

// wantCell is the table itself: the action each error class takes,
// the same for every op kind but for the three noted differences.
func wantCell(k opKind, class string) outcome {
	first := "s0" // mutations enter at the chain head
	if k.read {
		first = "s2" // reads are served by the tail
	}
	ops := max(k.batch, 1)
	suffix := ops - ops/2 // the ops of a batch the first answer failed
	final := outcome{attempts: 1, last: first, lastOps: ops}
	retried := outcome{attempts: 2, last: first, lastOps: suffix}
	switch class {
	case "stale-epoch": // relearn the map, go again
		retried.refreshes = 1
	case "block-full": // ask the controller to scale, go again
		if k.custom {
			// Custom structures grow through Grow only: full is an answer.
			final.err = core.ErrBlockFull
			return final
		}
		retried.scales = 1
	case "redirect": // follow the link, no map fetch, no pause
		if k.follows {
			// The successor the fake's redirect names, on s1; a file
			// append lands in the chunk after the full one.
			retried.last, retried.landed = "s1", 1
		}
	case "throttled": // wait the hint out, go again
		retried.waits = 1
	case "degraded", "conn-drop", "timeout": // avoid the server, relearn, go again
		retried.refreshes = 1
		if k.read {
			retried.last = "s1" // the closest chain member not avoided
		}
		if class != "degraded" {
			retried.lastOps = ops // the call failed: every op goes again
		}
	case "op-level": // the answer
		final.err = core.ErrTooLarge
		return final
	case "ctx-cancel": // the caller is gone: stop at once
		final.err = context.Canceled
		return final
	}
	return retried
}

func TestPipelineTable(t *testing.T) {
	for _, k := range opKinds {
		for _, cl := range errClasses {
			t.Run(k.name+"/"+cl.name, func(t *testing.T) {
				f := newFake(t, k.dsType, "s0", "s1", "s2")
				f.script = []step{cl.step}
				c := f.dial()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				f.cancel = cancel
				start := time.Now()
				want := wantCell(k, cl.name)
				err := k.run(ctx, c, want.landed)
				f.check(c, err, want)
				if want.waits > 0 && time.Since(start) < throttleHint {
					t.Errorf("throttled op returned after %v, before its %v hint", time.Since(start), throttleHint)
				}
				// A batch attributes a final error to the ops it belongs to.
				var me *MultiError
				if k.batch > 0 && want.err != nil && cl.name != "ctx-cancel" {
					if !errors.As(err, &me) || len(me.Errs) != k.batch {
						t.Fatalf("batch error = %v, want a *MultiError of %d", err, k.batch)
					}
					for i, e := range me.Errs {
						if failed := i >= k.batch/2; failed != (e != nil) {
							t.Errorf("op %d: error = %v, want failure = %v", i, e, failed)
						}
					}
				}
			})
		}
	}
}

// TestPipelineThrottleSurfacesAfterLimit: a refusal that persists is
// waited out ThrottleLimit times, then surfaces typed with its hint.
func TestPipelineThrottleSurfacesAfterLimit(t *testing.T) {
	limit := DefaultRetryPolicy().ThrottleLimit
	for _, k := range opKinds {
		if k.read {
			continue
		}
		t.Run(k.name, func(t *testing.T) {
			f := newFake(t, k.dsType, "s0", "s1", "s2")
			for i := 0; i < 2*limit; i++ {
				f.script = append(f.script, step{err: errThrottled})
			}
			c := f.dial()
			err := k.run(context.Background(), c, 0)
			f.check(c, err, outcome{waits: limit, attempts: limit + 1, last: "s0",
				lastOps: shrunk(max(k.batch, 1), limit+1), err: core.ErrQuotaExceeded})
			if hint := core.RetryAfterOf(err); hint != throttleHint {
				t.Errorf("surfaced refusal carries retry-after %v, want %v", hint, throttleHint)
			}
		})
	}
}

// TestPipelineDeadTailReadsFallBack: with the chain tail unreachable,
// every structure's read is served by the closest upstream member.
func TestPipelineDeadTailReadsFallBack(t *testing.T) {
	for _, k := range opKinds {
		if !k.read {
			continue
		}
		t.Run(k.name, func(t *testing.T) {
			f := newFake(t, k.dsType, "s0", "s1")
			c := f.dial()
			err := k.run(context.Background(), c, 0)
			f.check(c, err, outcome{refreshes: 1, attempts: 1, last: "s1", lastOps: 1})
		})
	}
}

// TestPipelineOpenBreaker: a breaker refusal routes a read around the
// server; a mutation, whose head has no substitute, gets the typed
// error with its retry-after instead of spending the retry budget.
func TestPipelineOpenBreaker(t *testing.T) {
	breaker := WithBreaker(BreakerPolicy{Failures: 1, Cooldown: time.Minute})
	for _, k := range opKinds {
		t.Run(k.name, func(t *testing.T) {
			ctx := context.Background()
			if k.read {
				// The dead tail's first dial failure opens its breaker; the
				// second read is refused at the gate and still served by s1.
				f := newFake(t, k.dsType, "s0", "s1")
				c := f.dial(breaker)
				if err := k.run(ctx, c, 0); err != nil {
					t.Fatalf("first read: %v", err)
				}
				err := k.run(ctx, c, 0)
				f.mu.Lock()
				f.opens-- // the second run opened a second handle
				f.mu.Unlock()
				f.check(c, err, outcome{refreshes: 2, attempts: 2, last: "s1", lastOps: 1})
				return
			}
			f := newFake(t, k.dsType, "s1", "s2")
			c := f.dial(breaker)
			err := k.run(ctx, c, 0)
			f.check(c, err, outcome{refreshes: 1, err: core.ErrServerDegraded})
			if core.RetryAfterOf(err) <= 0 {
				t.Errorf("degraded error %v carries no retry-after", err)
			}
		})
	}
}

// TestPipelineBoundedStructureFull: at its MaxBlocks bound a full block
// is backpressure, reported after the one scale request that could not
// grow it.
func TestPipelineBoundedStructureFull(t *testing.T) {
	for _, k := range opKinds {
		if k.read || k.custom {
			continue
		}
		t.Run(k.name, func(t *testing.T) {
			f := newFake(t, k.dsType, "s0", "s1", "s2")
			f.pmap.MaxBlocks = 1
			f.script = []step{{err: core.ErrBlockFull}}
			c := f.dial()
			err := k.run(context.Background(), c, 0)
			f.check(c, err, outcome{scales: 1, attempts: 1, last: "s0", lastOps: max(k.batch, 1),
				err: core.ErrBlockFull})
		})
	}
}

// TestPipelineGrowsUpToTheBound: the scale request that takes a
// structure to its bound did grow it, so the op goes again — here to
// the same shard, lighter after its split — instead of reporting full.
func TestPipelineGrowsUpToTheBound(t *testing.T) {
	f := newFake(t, core.DSKV, "s0", "s1", "s2")
	f.pmap.MaxBlocks = 2
	f.onScale = func(m *ds.PartitionMap) {
		m.Blocks = append(m.Blocks, ds.PartitionEntry{Info: core.BlockInfo{ID: 4, Server: f.srv[1]}})
		m.Epoch++
	}
	f.script = []step{{err: core.ErrBlockFull}}
	c := f.dial()
	ctx := context.Background()
	kv, err := c.OpenKV(ctx, "j/s")
	if err != nil {
		t.Fatal(err)
	}
	err = kv.Put(ctx, "k", []byte("v"))
	f.check(c, err, outcome{scales: 1, attempts: 2, last: "s0", lastOps: 1})
}

// TestPipelineBudget: a failure that never clears spends exactly the
// retry budget and reports the last cause.
func TestPipelineBudget(t *testing.T) {
	const limit = 4
	for _, k := range opKinds {
		t.Run(k.name, func(t *testing.T) {
			f := newFake(t, k.dsType, "s0", "s1", "s2")
			for i := 0; i < 2*limit; i++ {
				f.script = append(f.script, step{err: core.ErrStaleEpoch})
			}
			c := f.dial(WithRetryPolicy(RetryPolicy{Limit: limit}))
			err := k.run(context.Background(), c, 0)
			last := "s0"
			if k.read {
				last = "s2"
			}
			f.check(c, err, outcome{refreshes: limit, attempts: limit, last: last,
				lastOps: shrunk(max(k.batch, 1), limit), err: core.ErrStaleEpoch})
			if err == nil || !strings.Contains(err.Error(), "retries exhausted") {
				t.Errorf("error = %v, want retries exhausted", err)
			}
		})
	}
}

// TestPipelineWriteGrowsMissingChunk: a write to a chunk the file does
// not have yet is a route miss the grow action serves. A grow that
// moved the map sends the op again at once, with no backoff pause; one
// that moved nothing (here a full chunk whose scale request the fake
// leaves unanswered) pauses before the next attempt.
func TestPipelineWriteGrowsMissingChunk(t *testing.T) {
	f := newFake(t, core.DSFile, "s0", "s1", "s2")
	f.onScale = func(m *ds.PartitionMap) {
		next := m.Blocks[0]
		next.Chunk = 1
		m.Blocks = append(m.Blocks, next)
		m.Epoch++
	}
	c := f.dial()
	ctx := context.Background()
	file, err := c.OpenFile(ctx, "j/s")
	if err != nil {
		t.Fatal(err)
	}
	err = file.WriteAt(ctx, fakeChunk, []byte("second chunk"))
	f.check(c, err, outcome{scales: 1, attempts: 1, last: "s0", lastOps: 1})
	if n := c.rpcm.Retries.Value(); n != 0 {
		t.Errorf("backoff pauses after a grow that moved the map = %d, want 0", n)
	}

	still := newFake(t, core.DSFile, "s0", "s1", "s2")
	still.script = []step{{err: core.ErrBlockFull}}
	c = still.dial()
	if file, err = c.OpenFile(ctx, "j/s"); err != nil {
		t.Fatal(err)
	}
	_, err = file.AppendRecord(ctx, []byte("rec"))
	still.check(c, err, outcome{scales: 1, attempts: 2, last: "s0", lastOps: 1})
	if n := c.rpcm.Retries.Value(); n != 1 {
		t.Errorf("backoff pauses after a grow that moved nothing = %d, want 1", n)
	}
}

// TestClassify pins the classifier: one action per error class, the
// caller's context first.
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want action
	}{
		{nil, actDone},
		{context.Canceled, actFatal},
		{fmt.Errorf("rpc: %w: %w", core.ErrTimeout, context.DeadlineExceeded), actFatal},
		{core.ErrStaleEpoch, actRelearn},
		{&redirect{}, actRedirect},
		{fmt.Errorf("file grow: %w", core.ErrBlockFull), actGrow},
		{errThrottled, actThrottle},
		{&core.DegradedError{}, actAvoid},
		{&rpc.SessionError{Cause: errors.New("eof")}, actAvoid},
		{core.ErrTimeout, actAvoid},
		{core.ErrBlockLost, actFatal},
		{core.ErrEmpty, actFatal},
		{errors.New("anything else"), actFatal},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
