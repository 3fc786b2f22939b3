package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/obs"
	"jiffy/internal/persist"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
	"jiffy/internal/server"
	"jiffy/internal/tier"
)

var srvSeq int

// newServer boots one standalone memory server (no controller) plus a
// client connection to it.
func newServer(t *testing.T) (*server.Server, *rpc.Client, *persist.MemStore) {
	t.Helper()
	srvSeq++
	store := persist.NewMemStore()
	cfg := core.TestConfig()
	s, err := server.New(server.Options{Config: cfg, Persist: store})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen(fmt.Sprintf("mem://standalone-srv-%d", srvSeq))
	if err != nil {
		t.Fatal(err)
	}
	c, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return s, c, store
}

func createBlock(t *testing.T, c *rpc.Client, id core.BlockID, typ core.DSType,
	slots []ds.SlotRange, chunk int, chain core.ReplicaChain) {
	t.Helper()
	_, err := rpc.Invoke(context.Background(), c, proto.CreateBlock, proto.CreateBlockReq{
		Block: id, Path: "j/t", Type: typ,
		Capacity: 64 * core.KB, NumSlots: 64, Slots: slots, Chunk: chunk, Chain: chain,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func dataOp(c *rpc.Client, id core.BlockID, op core.OpType, args ...[]byte) ([][]byte, error) {
	payload, err := c.CallContext(context.Background(), proto.MethodDataOp, ds.AppendRequest(nil, op, id, args))
	if err != nil {
		return nil, err
	}
	return ds.DecodeValsInto(nil, payload)
}

func TestDataOpLifecycle(t *testing.T) {
	_, c, _ := newServer(t)
	createBlock(t, c, 1, core.DSKV, []ds.SlotRange{{Lo: 0, Hi: 63}}, 0, nil)
	if _, err := dataOp(c, 1, core.OpPut, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	res, err := dataOp(c, 1, core.OpGet, []byte("k"))
	if err != nil || string(res[0]) != "v" {
		t.Errorf("get = %v, %v", res, err)
	}
	// Delete the block; further ops report stale metadata.
	if _, err := rpc.Invoke(context.Background(), c, proto.DeleteBlock, proto.DeleteBlockReq{Block: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := dataOp(c, 1, core.OpGet, []byte("k")); !errors.Is(err, core.ErrStaleEpoch) {
		t.Errorf("op on deleted block = %v", err)
	}
}

func TestQueueRedirectOverRPC(t *testing.T) {
	_, c, _ := newServer(t)
	createBlock(t, c, 1, core.DSQueue, nil, 0, nil)
	createBlock(t, c, 2, core.DSQueue, nil, 1, nil)
	_, err := rpc.Invoke(context.Background(), c, proto.SetNext, proto.SetNextReq{
		Block: 1, Next: core.BlockInfo{ID: 2, Server: "elsewhere"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The sealed segment redirects enqueues, carrying the successor.
	payload, err := c.CallContext(context.Background(), proto.MethodDataOp, ds.AppendRequest(nil, core.OpEnqueue, 1, [][]byte{[]byte("x")}))
	if !errors.Is(err, core.ErrRedirect) {
		t.Fatalf("err = %v", err)
	}
	next, perr := ds.ParseRedirect(payload)
	if perr != nil || next.ID != 2 || next.Server != "elsewhere" {
		t.Errorf("redirect = %+v, %v", next, perr)
	}
}

// slotOwnership sends one SlotOwnership call.
func slotOwnership(t *testing.T, c *rpc.Client, req proto.SlotOwnershipReq) {
	t.Helper()
	if _, err := rpc.Invoke(context.Background(), c, proto.SlotOwnership, req); err != nil {
		t.Fatal(err)
	}
}

// TestLoadBlockSlots drives a slot move the way the controller does
// (controller/scale.go), between two servers: the donor disowns, the
// recipient pulls the donor's pairs in the moving slots with a LoadBlock
// naming them and then owns them, and the donor drops them. Afterwards
// every key is reachable from exactly one block, with its value, and a
// pull into slots the recipient owns is refused.
func TestLoadBlockSlots(t *testing.T) {
	src, c1, _ := newServer(t)
	_, c2, _ := newServer(t)
	createBlock(t, c1, 1, core.DSKV, []ds.SlotRange{{Lo: 0, Hi: 63}}, 0, nil)
	createBlock(t, c2, 2, core.DSKV, nil, 0, nil)
	for i := 0; i < 50; i++ {
		if _, err := dataOp(c1, 1, core.OpPut, []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	moving := []ds.SlotRange{{Lo: 32, Hi: 63}}
	load := func() error {
		_, err := rpc.Invoke(context.Background(), c2, proto.LoadBlock, proto.LoadBlockReq{
			Block: 2, From: core.BlockInfo{ID: 1, Server: src.Addr()}, Slots: moving})
		return err
	}
	slotOwnership(t, c1, proto.SlotOwnershipReq{Block: 1, Ranges: moving})
	if err := load(); err != nil {
		t.Fatal(err)
	}
	slotOwnership(t, c2, proto.SlotOwnershipReq{Block: 2, Ranges: moving, Own: true})
	slotOwnership(t, c1, proto.SlotOwnershipReq{Block: 1, Ranges: moving, Drop: true})
	moved := 0
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		v1, err1 := dataOp(c1, 1, core.OpGet, key)
		v2, err2 := dataOp(c2, 2, core.OpGet, key)
		if (err1 == nil) == (err2 == nil) {
			t.Errorf("key %s reachable from both or neither: %v / %v", key, err1, err2)
			continue
		}
		if err2 == nil {
			moved++
			v1 = v2
		}
		if string(v1[0]) != fmt.Sprintf("v%d", i) {
			t.Errorf("key %s = %q", key, v1[0])
		}
	}
	if moved == 0 || moved == 50 {
		t.Errorf("%d of 50 keys moved, want a proper subset", moved)
	}
	if err := load(); !errors.Is(err, core.ErrStaleEpoch) {
		t.Errorf("a pull into owned slots = %v, want ErrStaleEpoch", err)
	}
}

// TestClientControlOpRefused: the op kinds only the controller sends —
// a queue seal and the two slot ownership ops — are refused typed in a
// client's data op, single or batched, and leave the block as it was.
func TestClientControlOpRefused(t *testing.T) {
	_, c, _ := newServer(t)
	createBlock(t, c, 1, core.DSKV, []ds.SlotRange{{Lo: 0, Hi: 63}}, 0, nil)
	createBlock(t, c, 2, core.DSQueue, nil, 0, nil)
	if _, err := dataOp(c, 1, core.OpPut, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	all := []ds.SlotRange{{Lo: 0, Hi: 63}}
	for _, k := range []struct {
		op    core.OpType
		block core.BlockID
		args  [][]byte
	}{
		{core.OpDisownSlots, 1, ds.SlotArgs(core.OpDisownSlots, all, true)},
		{core.OpOwnSlots, 1, ds.SlotArgs(core.OpOwnSlots, all, false)},
		{core.OpQueueSetNext, 2, [][]byte{ds.RedirectPayload(core.BlockInfo{ID: 3, Server: "elsewhere"})}},
	} {
		_, err := dataOp(c, k.block, k.op, k.args...)
		if !errors.Is(err, core.ErrWrongType) {
			t.Errorf("%v as a data op = %v, want ErrWrongType", k.op, err)
		}
		payload, err := c.CallContext(context.Background(), proto.MethodDataOpBatch, ds.AppendBatchRequest(nil, []ds.BatchOp{{Op: k.op, Block: k.block, Args: k.args}}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := ds.DecodeBatchResults(payload)
		if err != nil || len(res) != 1 || !errors.Is(res[0].Err(), core.ErrWrongType) {
			t.Errorf("%v in a batch = %+v, %v; want ErrWrongType", k.op, res, err)
		}
		if v, err := dataOp(c, 1, core.OpGet, []byte("k")); err != nil || string(v[0]) != "v" {
			t.Errorf("after a refused %v the kv reads %q, %v", k.op, v, err)
		}
		if _, err := dataOp(c, 2, core.OpEnqueue, []byte("x")); err != nil {
			t.Errorf("after a refused %v the queue refuses an enqueue: %v", k.op, err)
		}
	}
}

// TestFlushLoadBlock: a flush writes a JTO1 object and reports its
// identity, and a load of that identity restores the block. A load
// names the identity its caller recorded, so an object that is not it —
// another block's, a corrupted one, or a raw partition snapshot (the
// format flushes wrote before objects were enveloped) — is refused with
// tier.ErrBadObject and the block is left untouched.
func TestFlushLoadBlock(t *testing.T) {
	_, c, store := newServer(t)
	createBlock(t, c, 1, core.DSKV, []ds.SlotRange{{Lo: 0, Hi: 63}}, 0, nil)
	dataOp(c, 1, core.OpPut, []byte("persist-me"), []byte("v1"))
	fresp, err := rpc.Invoke(context.Background(), c, proto.FlushBlock, proto.FlushBlockReq{Block: 1, Key: "snap/1"})
	if err != nil {
		t.Fatal(err)
	}
	if fresp.Bytes == 0 || fresp.Block != 1 {
		t.Errorf("flush = %+v", fresp)
	}
	data, err := store.Get("snap/1")
	if err != nil {
		t.Fatalf("object not in store: %v", err)
	}
	if obj, err := tier.Decode(data); err != nil || obj.Block != fresp.Block || obj.Gen != fresp.Gen {
		t.Fatalf("flushed object = %+v, %v; flush reported %+v", obj, err, fresp)
	}
	load := func(key string, block core.BlockID) error {
		_, err := rpc.Invoke(context.Background(), c, proto.LoadBlock,
			proto.LoadBlockReq{Block: 1, Key: key, WantBlock: block, WantGen: fresp.Gen})
		return err
	}
	get := func() string {
		res, err := dataOp(c, 1, core.OpGet, []byte("persist-me"))
		if err != nil {
			t.Fatal(err)
		}
		return string(res[0])
	}

	// Clobber, then try every wrong object before the right one.
	dataOp(c, 1, core.OpPut, []byte("persist-me"), []byte("dirty"))
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0xff
	store.Put("snap/corrupt", corrupt)
	snapResp, err := rpc.Invoke(context.Background(), c, proto.SnapshotBlock, proto.SnapshotBlockReq{Block: 1})
	if err != nil {
		t.Fatal(err)
	}
	store.Put("snap/raw", snapResp.Snapshot)
	for _, bad := range []struct {
		key   string
		block core.BlockID
	}{{"snap/1", 2}, {"snap/corrupt", 1}, {"snap/raw", 1}} {
		err := load(bad.key, bad.block)
		if err == nil || !strings.Contains(err.Error(), tier.ErrBadObject.Error()) {
			t.Errorf("load of %s as block %v = %v, want %v", bad.key, bad.block, err, tier.ErrBadObject)
		}
		if v := get(); v != "dirty" {
			t.Errorf("refused load of %s restored the block: %q", bad.key, v)
		}
	}
	if err := load("snap/1", 1); err != nil {
		t.Fatal(err)
	}
	if v := get(); v != "v1" {
		t.Errorf("restored = %q, want v1", v)
	}
}

// TestLoadBlockFromLiveMember: a LoadBlock naming a live member pulls
// that member's snapshot over a session the server dials itself. A source
// the server cannot reach fails the load without the connection class,
// so the caller does not take the server it asked for the unreachable
// one, and the block keeps what it held.
func TestLoadBlockFromLiveMember(t *testing.T) {
	src, c1, _ := newServer(t)
	_, c2, _ := newServer(t)
	createBlock(t, c1, 1, core.DSKV, []ds.SlotRange{{Lo: 0, Hi: 63}}, 0, nil)
	createBlock(t, c2, 2, core.DSKV, []ds.SlotRange{{Lo: 0, Hi: 63}}, 0, nil)
	dataOp(c1, 1, core.OpPut, []byte("k"), []byte("live"))
	dataOp(c2, 2, core.OpPut, []byte("k"), []byte("old"))
	load := func(from core.BlockInfo) error {
		_, err := rpc.Invoke(context.Background(), c2, proto.LoadBlock, proto.LoadBlockReq{Block: 2, From: from})
		return err
	}
	get := func() string {
		res, err := dataOp(c2, 2, core.OpGet, []byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		return string(res[0])
	}

	for _, from := range []core.BlockInfo{{ID: 1, Server: "mem://no-such-server"}, {ID: 9, Server: src.Addr()}} {
		err := load(from)
		if err == nil || errors.Is(err, core.ErrClosed) || errors.Is(err, core.ErrTimeout) {
			t.Errorf("load from %v = %v, want a failure of no connection class", from, err)
		}
		if v := get(); v != "old" {
			t.Errorf("failed load from %v restored the block: %q", from, v)
		}
	}
	if err := load(core.BlockInfo{ID: 1, Server: src.Addr()}); err != nil {
		t.Fatal(err)
	}
	if v := get(); v != "live" {
		t.Errorf("loaded = %q, want the source's live", v)
	}
}

// parentLoadBlockReq and parentSnapshotBlockReq are LoadBlockReq and
// SnapshotBlockReq as servers before slot pulls decode them: without
// Slots.
type parentLoadBlockReq struct {
	Block     core.BlockID
	Key       string
	WantBlock core.BlockID
	WantGen   uint64
	From      core.BlockInfo
}

type parentSnapshotBlockReq struct {
	Block core.BlockID
}

// TestParentLoadBlockRefused: LoadBlockReq and SnapshotBlockReq gained
// Slots, and the codec has no optional fields, so the two versions
// refuse each other by name instead of misreading a body. A
// parent-encoded request (kept in testdata) is refused as truncated and
// restores or answers nothing; a current one leaves a parent decoder
// trailing bytes. The retired ids 0x0106 (ImportEntries), 0x010f
// (RestoreBlock) and 0x0113 (ExportSlots) are not served.
func TestParentLoadBlockRefused(t *testing.T) {
	parentLoad, err := os.ReadFile("testdata/parent-loadblockreq")
	if err != nil {
		t.Fatal(err)
	}
	req := parentLoadBlockReq{Block: 1, Key: "snap/1", WantBlock: 1}
	if enc, err := codec.Marshal(req); err != nil || !bytes.Equal(enc, parentLoad) {
		t.Fatalf("testdata is not %+v in the parent format: %x, %v", req, enc, err)
	}
	parentSnap, err := os.ReadFile("testdata/parent-snapshotblockreq")
	if err != nil {
		t.Fatal(err)
	}
	if enc, err := codec.Marshal(parentSnapshotBlockReq{Block: 1}); err != nil || !bytes.Equal(enc, parentSnap) {
		t.Fatalf("testdata is not a parent SnapshotBlockReq of block 1: %x, %v", enc, err)
	}

	_, c, _ := newServer(t)
	createBlock(t, c, 1, core.DSKV, []ds.SlotRange{{Lo: 0, Hi: 63}}, 0, nil)
	dataOp(c, 1, core.OpPut, []byte("k"), []byte("flushed"))
	if _, err := rpc.Invoke(context.Background(), c, proto.FlushBlock, proto.FlushBlockReq{Block: 1, Key: "snap/1"}); err != nil {
		t.Fatal(err)
	}
	dataOp(c, 1, core.OpPut, []byte("k"), []byte("current"))
	if _, err := c.CallContext(context.Background(), proto.LoadBlock.ID, parentLoad); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("parent LoadBlockReq = %v, want refused as truncated", err)
	}
	if res, err := dataOp(c, 1, core.OpGet, []byte("k")); err != nil || string(res[0]) != "current" {
		t.Errorf("after the refused load the block reads %q, %v; want current", res, err)
	}
	if snap, err := c.CallContext(context.Background(), proto.SnapshotBlock.ID, parentSnap); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("parent SnapshotBlockReq = %d bytes, %v; want refused as truncated", len(snap), err)
	}

	cur, err := codec.Marshal(proto.LoadBlockReq{Block: 1, Key: "snap/1", WantBlock: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := codec.Unmarshal(cur, &parentLoadBlockReq{}); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Errorf("a parent decoding a current LoadBlockReq = %v, want trailing bytes", err)
	}
	curSnap, err := codec.Marshal(proto.SnapshotBlockReq{Block: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := codec.Unmarshal(curSnap, &parentSnapshotBlockReq{}); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Errorf("a parent decoding a current SnapshotBlockReq = %v, want trailing bytes", err)
	}

	for _, id := range []uint16{0x0106, 0x010f, 0x0113} {
		if _, err := c.CallContext(context.Background(), id, cur); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("retired id %#x = %v, want ErrNotFound", id, err)
		}
	}
}

func TestChainReplication(t *testing.T) {
	s1, c1, _ := newServer(t)
	s2, c2, _ := newServer(t)
	s3, c3, _ := newServer(t)
	chain := core.ReplicaChain{
		{ID: 1, Server: s1.Addr()},
		{ID: 2, Server: s2.Addr()},
		{ID: 3, Server: s3.Addr()},
	}
	createBlock(t, c1, 1, core.DSKV, []ds.SlotRange{{Lo: 0, Hi: 63}}, 0, chain)
	createBlock(t, c2, 2, core.DSKV, []ds.SlotRange{{Lo: 0, Hi: 63}}, 0, chain)
	createBlock(t, c3, 3, core.DSKV, []ds.SlotRange{{Lo: 0, Hi: 63}}, 0, chain)

	// Write at the head; the mutation propagates down the chain before
	// the head acknowledges.
	if _, err := dataOp(c1, 1, core.OpPut, []byte("replicated"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Read at the tail (chain-replication reads) and the middle.
	res, err := dataOp(c3, 3, core.OpGet, []byte("replicated"))
	if err != nil || string(res[0]) != "v" {
		t.Errorf("tail read = %v, %v", res, err)
	}
	res, err = dataOp(c2, 2, core.OpGet, []byte("replicated"))
	if err != nil || string(res[0]) != "v" {
		t.Errorf("middle read = %v, %v", res, err)
	}
	// Deletes propagate too.
	if _, err := dataOp(c1, 1, core.OpDelete, []byte("replicated")); err != nil {
		t.Fatal(err)
	}
	if _, err := dataOp(c3, 3, core.OpGet, []byte("replicated")); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("tail read after delete = %v", err)
	}
}

func TestSubscriptionDelivery(t *testing.T) {
	s, c, _ := newServer(t)
	createBlock(t, c, 1, core.DSQueue, nil, 0, nil)
	notifs := make(chan proto.Notification, 16)
	c.OnPush(func(subID uint64, payload []byte) {
		var n proto.Notification
		if codec.Unmarshal(payload, &n) == nil {
			notifs <- n
		}
	})
	sresp, err := rpc.Invoke(context.Background(), c, proto.Subscribe, proto.SubscribeReq{
		Blocks: []core.BlockID{1}, Ops: []core.OpType{core.OpEnqueue},
	})
	if err != nil {
		t.Fatal(err)
	}
	dataOp(c, 1, core.OpEnqueue, []byte("notify-me"))
	select {
	case n := <-notifs:
		if n.Op != core.OpEnqueue || string(n.Data) != "notify-me" {
			t.Errorf("notification = %+v", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no notification")
	}
	// Dequeues are not subscribed: no notification.
	dataOp(c, 1, core.OpDequeue)
	select {
	case n := <-notifs:
		t.Errorf("unexpected notification %+v", n)
	case <-time.After(50 * time.Millisecond):
	}
	// Unsubscribe stops delivery.
	if _, err := rpc.Invoke(context.Background(), c, proto.Unsubscribe, proto.UnsubscribeReq{SubID: sresp.SubID}); err != nil {
		t.Fatal(err)
	}
	dataOp(c, 1, core.OpEnqueue, []byte("after-unsub"))
	select {
	case n := <-notifs:
		t.Errorf("notification after unsubscribe: %+v", n)
	case <-time.After(50 * time.Millisecond):
	}
	// Subscribing again after the count fell to 0 delivers again, and the
	// count returns to 0 once that subscription goes too.
	subscriptions := func() float64 {
		var buf bytes.Buffer
		s.Obs().WritePrometheus(&buf)
		return obs.ParsePrometheus(buf.Bytes())["jiffy_server_subscriptions"]
	}
	if n := subscriptions(); n != 0 {
		t.Fatalf("%g subscriptions after unsubscribe, want 0", n)
	}
	sresp, err = rpc.Invoke(context.Background(), c, proto.Subscribe, proto.SubscribeReq{
		Blocks: []core.BlockID{1}, Ops: []core.OpType{core.OpEnqueue},
	})
	if err != nil {
		t.Fatal(err)
	}
	dataOp(c, 1, core.OpEnqueue, []byte("resubscribed"))
	select {
	case n := <-notifs:
		if string(n.Data) != "resubscribed" {
			t.Errorf("notification = %+v", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no notification after subscribing again")
	}
	if _, err := rpc.Invoke(context.Background(), c, proto.Unsubscribe, proto.UnsubscribeReq{SubID: sresp.SubID}); err != nil {
		t.Fatal(err)
	}
	if n := subscriptions(); n != 0 {
		t.Errorf("%g subscriptions after the second unsubscribe, want 0", n)
	}
}

func TestServerStats(t *testing.T) {
	_, c, _ := newServer(t)
	createBlock(t, c, 1, core.DSKV, []ds.SlotRange{{Lo: 0, Hi: 63}}, 0, nil)
	dataOp(c, 1, core.OpPut, []byte("k"), []byte("0123456789"))
	stats, err := rpc.Invoke(context.Background(), c, proto.ServerStats, proto.ServerStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocks != 1 || stats.UsedBytes != 11 || stats.Ops < 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestCreateBlockValidation(t *testing.T) {
	_, c, _ := newServer(t)
	_, err := rpc.Invoke(context.Background(), c, proto.CreateBlock, proto.CreateBlockReq{
		Block: 1, Type: core.DSNone, Capacity: 1024,
	})
	if !errors.Is(err, core.ErrWrongType) {
		t.Errorf("DSNone block accepted: %v", err)
	}
	// Duplicate creation rejected.
	createBlock(t, c, 2, core.DSFile, nil, 0, nil)
	_, err = rpc.Invoke(context.Background(), c, proto.CreateBlock, proto.CreateBlockReq{
		Block: 2, Type: core.DSFile, Capacity: 1024,
	})
	if !errors.Is(err, core.ErrExists) {
		t.Errorf("duplicate block accepted: %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, c, _ := newServer(t)
	if _, err := c.CallContext(context.Background(), 0x7777, nil); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestApplyWaitGauge: a hop for seq 1 parked behind a missing seq 0
// shows in jiffy_block_apply_wait_max_seconds, and the gauge reads 0
// again once seq 0 arrives and both hops apply.
func TestApplyWaitGauge(t *testing.T) {
	s, c, _ := newServer(t)
	chain := core.ReplicaChain{{ID: 1, Server: "mem://gap-head"}, {ID: 2, Server: s.Addr()}}
	createBlock(t, c, 2, core.DSKV, []ds.SlotRange{{Lo: 0, Hi: 63}}, 0, chain)
	waitGauge := func() float64 {
		var buf bytes.Buffer
		s.Obs().WritePrometheus(&buf)
		return obs.ParsePrometheus(buf.Bytes())["jiffy_block_apply_wait_max_seconds"]
	}
	if g := waitGauge(); g != 0 {
		t.Fatalf("gauge = %g with no hop parked, want 0", g)
	}
	hop := func(seq uint64, key string) chan error {
		done := make(chan error, 1)
		vec, _ := ds.AppendReplicateVec(nil, nil, seq, 0, core.OpPut, 2, [][]byte{[]byte(key), []byte("v")})
		go func() {
			_, err := c.CallContext(context.Background(), proto.MethodReplicate, bytes.Join(vec, nil))
			done <- err
		}()
		return done
	}
	second := hop(1, "k1")
	for deadline := time.Now().Add(5 * time.Second); waitGauge() <= 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("gauge still 0 with the hop for seq 1 parked behind seq 0")
		}
	}
	b, err := s.Store().Get(2)
	if err != nil {
		t.Fatal(err)
	}
	if age, seq := b.ApplyWait(); age <= 0 || seq != 0 {
		t.Errorf("ApplyWait = %v, seq %d; want a positive age awaiting seq 0", age, seq)
	}
	if err := <-hop(0, "k0"); err != nil {
		t.Fatalf("hop for seq 0: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("hop for seq 1: %v", err)
	}
	if g := waitGauge(); g != 0 {
		t.Errorf("gauge = %g once the gap closed, want 0", g)
	}
}

// TestCloseWakesParkedHop: a chain hop waiting for a seq that never
// arrives (its predecessor's seqs 0–4 were lost) must not hold up
// shutdown. Close wakes it; the hop fails with ErrClosed, and Close
// returns within a second.
func TestCloseWakesParkedHop(t *testing.T) {
	s, c, _ := newServer(t)
	chain := core.ReplicaChain{{ID: 1, Server: "mem://lost-head"}, {ID: 2, Server: s.Addr()}}
	createBlock(t, c, 2, core.DSKV, []ds.SlotRange{{Lo: 0, Hi: 63}}, 0, chain)
	vec, _ := ds.AppendReplicateVec(nil, nil, 5, 0, core.OpPut, 2, [][]byte{[]byte("k"), []byte("v")})
	hop := make(chan error, 1)
	go func() {
		_, err := c.CallContext(context.Background(), proto.MethodReplicate, bytes.Join(vec, nil))
		hop <- err
	}()
	select {
	case err := <-hop:
		t.Fatalf("hop for seq 5 at seq 0 answered %v, want it parked", err)
	case <-time.After(100 * time.Millisecond):
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close did not return within 1 s of a parked hop")
	}
	if err := <-hop; !errors.Is(err, core.ErrClosed) {
		t.Errorf("parked hop answered %v, want ErrClosed", err)
	}
}

// TestHealthzListsParkedHop: a hop parked behind a missing seq is listed
// on the admin endpoint's /healthz?detail=1 with the seq its block
// awaits, and the listing is empty once Close has woken it.
func TestHealthzListsParkedHop(t *testing.T) {
	s, c, _ := newServer(t)
	chain := core.ReplicaChain{{ID: 1, Server: "mem://lost-head"}, {ID: 2, Server: s.Addr()}}
	createBlock(t, c, 2, core.DSKV, []ds.SlotRange{{Lo: 0, Hi: 63}}, 0, chain)
	admin := httptest.NewServer(obs.NewAdminMux(s.AdminOptions()))
	defer admin.Close()
	parked := func() []server.ParkedHop {
		resp, err := http.Get(admin.URL + "/healthz?detail=1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var health struct {
			Status string
			Detail struct {
				ParkedHops []server.ParkedHop `json:"parked_hops"`
			}
		}
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatalf("/healthz?detail=1: %v", err)
		}
		return health.Detail.ParkedHops
	}
	if hops := parked(); len(hops) != 0 {
		t.Fatalf("parked hops %+v before any hop, want none", hops)
	}
	// The hop for seq 3 waits for seqs 0–2, which never come.
	vec, _ := ds.AppendReplicateVec(nil, nil, 3, 0, core.OpPut, 2, [][]byte{[]byte("k"), []byte("v")})
	hop := make(chan error, 1)
	go func() {
		_, err := c.CallContext(context.Background(), proto.MethodReplicate, bytes.Join(vec, nil))
		hop <- err
	}()
	var hops []server.ParkedHop
	for deadline := time.Now().Add(5 * time.Second); len(hops) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the hop for seq 3 is not listed")
		}
		hops = parked()
	}
	if len(hops) != 1 || hops[0].Block != 2 || hops[0].AwaitedSeq != 0 || hops[0].AgeSeconds <= 0 {
		t.Errorf("parked hops %+v, want block 2 awaiting seq 0 with a positive age", hops)
	}
	s.Close()
	if err := <-hop; !errors.Is(err, core.ErrClosed) {
		t.Errorf("parked hop answered %v, want ErrClosed", err)
	}
	if hops := parked(); len(hops) != 0 {
		t.Errorf("parked hops %+v after Close woke the hop, want none", hops)
	}
}
