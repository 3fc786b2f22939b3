package rpc

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/proto"
)

// nodeUpsertOp is an encoded controller op-log entry: a node-upsert
// replOp for j/t holding one KV block. internal/controller's
// TestReplOpGolden pins what it decodes to.
const nodeUpsertOp = "0103016a00010000000edce5e80000000000ffff017401016a80a8d6b907010000000edce5e80000000000ffff030301200000010701610001001e00000000000000000000000000000000000000000000000000000000000000000000"

// TestWireGolden pins control bodies byte for byte: each value encodes
// to the committed hex, the hex decodes back to the value, and the
// method ids are the ones the bodies have always travelled under.
func TestWireGolden(t *testing.T) {
	op, err := hex.DecodeString(nodeUpsertOp)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		id, wantID uint16
		golden     string
		msg        any
	}{
		{proto.CreatePrefix.ID, 0x0003, "01036a2f7401036a2f7003040080a8d6b907", proto.CreatePrefixReq{
			Path: "j/t", Parents: []core.Path{"j/p"}, Type: core.DSKV, InitialBlocks: 2, LeaseDuration: time.Second}},
		{proto.RenewLease.ID, 0x0006, "0106", proto.RenewLeaseResp{Renewed: 3}},
		{proto.UpdateChain.ID, 0x0111, "0107020701610801620500", proto.UpdateChainReq{
			Block: 7, Chain: core.ReplicaChain{{ID: 7, Server: "a"}, {ID: 8, Server: "b"}}, Gen: 5}},
		{proto.CtrlReplicate.ID, 0x0016, "0102066374726c2d3029015d" + nodeUpsertOp, proto.CtrlReplicateReq{
			Gen: 2, Leader: "ctrl-0", FirstSeq: 41, Ops: [][]byte{op}}},
	} {
		if c.id != c.wantID {
			t.Errorf("%T: method id = %#x, want %#x", c.msg, c.id, c.wantID)
		}
		got, err := codec.Marshal(c.msg)
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(got) != c.golden {
			t.Errorf("%T encodes to\n%x, want\n%s", c.msg, got, c.golden)
		}
		checkAppend(t, c.msg, got)
		raw, _ := hex.DecodeString(c.golden)
		back := reflect.New(reflect.TypeOf(c.msg))
		if err := codec.Unmarshal(raw, back.Interface()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Elem().Interface(), c.msg) {
			t.Errorf("golden %T decodes to %+v, want %+v", c.msg, back.Elem().Interface(), c.msg)
		}
	}
}

// checkAppend: codec.Append onto a non-empty buffer, with room to spare
// and without, keeps the buffer's bytes and adds exactly Marshal's.
func checkAppend(t *testing.T, msg any, marshaled []byte) {
	t.Helper()
	prefix := []byte("held")
	for _, room := range []int{0, len(marshaled) + 8} {
		dst := append(make([]byte, 0, len(prefix)+room), prefix...)
		out, err := codec.Append(dst, msg)
		if err != nil {
			t.Fatalf("append %T: %v", msg, err)
		}
		if want := append(append([]byte(nil), prefix...), marshaled...); !bytes.Equal(out, want) {
			t.Fatalf("append %T onto %q (room %d) = %x, want %x", msg, prefix, room, out, want)
		}
	}
}

// TestCodecRefuses: every malformed or foreign input is an error naming
// what is wrong, never a partial or wrong value.
func TestCodecRefuses(t *testing.T) {
	type pair struct{ A, B uint8 }
	for _, c := range []struct {
		name, hex, want string
		into            any
	}{
		{"empty", "", "empty message", &proto.RenewLeaseResp{}},
		{"other codec version", "0206", "codec version 2, want 1", &proto.RenewLeaseResp{}},
		{"gob stream", "28ff8303", "codec version 40, want 1", &proto.RenewLeaseResp{}},
		{"trailing bytes", "010600", "1 trailing bytes", &proto.RenewLeaseResp{}},
		{"truncated varint", "0180", "truncated", &proto.RenewLeaseResp{}},
		{"non-minimal varint", "018600", "non-minimal varint", &proto.RenewLeaseResp{}},
		{"overflow", "01ff03", "overflows", &pair{}},
		{"bad bool", "0102", "bad bool", &struct{ B bool }{}},
		{"string past the end", "0105616263", "count 5 exceeds the 3 bytes left", &proto.LeaseInfoReq{}},
		{"count past the end", "01ffffffffffffffff7f00", "exceeds", &proto.RenewLeaseReq{}},
		{"map keys out of order", "01020162000161000000000000", "not ascending", &struct{ M map[string]int }{}},
		{"duplicate map keys", "0102016100016100", "not ascending", &struct{ M map[string]int }{}},
		{"time layout version 2 without seconds", "0100" + "02000000000edce5e8000000000000" + "00", "non-canonical time", &proto.LeaseInfoResp{}},
		{"unsupported kind", "0100", "unsupported type *int", &struct{ P *int }{}},
	} {
		raw, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		err = codec.Unmarshal(raw, c.into)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to say %q", c.name, err, c.want)
		}
	}
	for _, v := range []any{
		struct{ P *int }{},
		struct{ I any }{},
		struct{ F float32 }{},
		struct{ A [2]int }{},
		struct{ M map[int]int }{},
		struct{ S []struct{} }{S: make([]struct{}, 3)},
	} {
		if _, err := codec.Marshal(v); err == nil {
			t.Errorf("Marshal(%T) succeeded, want an error", v)
		}
	}
	if err := codec.Unmarshal([]byte{1}, proto.RenewLeaseResp{}); err == nil {
		t.Error("Unmarshal into a non-pointer succeeded")
	}
}

// TestCodecTimeLayout: a time.Time travels in exactly the bytes
// MarshalBinary writes, so lease timestamps keep their instant and zone
// as they did under gob; the monotonic reading is dropped.
func TestCodecTimeLayout(t *testing.T) {
	base := time.Unix(1700000000, 123456789)
	for _, tm := range []time.Time{
		base.UTC(),
		base.Local(),
		base.In(time.FixedZone("", -7*3600)),
		base.In(time.FixedZone("", 5*3600+30*60+15)), // layout version 2
		time.Now(),
		{},
	} {
		want, err := tm.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := codec.Marshal(struct{ T time.Time }{tm})
		if err != nil || !bytes.Equal(got[1:], want) {
			t.Errorf("time %v encodes to %x, %v; MarshalBinary = %x", tm, got, err, want)
		}
		var back proto.LeaseInfoResp
		data, err := codec.Marshal(proto.LeaseInfoResp{LastRenewed: tm})
		if err == nil {
			err = codec.Unmarshal(data, &back)
		}
		var viaGobLayout time.Time
		_ = viaGobLayout.UnmarshalBinary(want)
		if err != nil || !reflect.DeepEqual(back.LastRenewed, viaGobLayout) {
			t.Errorf("round trip of %v = %v, %v; want %v", tm, back.LastRenewed, err, viaGobLayout)
		}
	}
}

// TestCodecShape: empty slices and maps decode as nil, maps encode in
// key order, unexported fields do not travel.
func TestCodecShape(t *testing.T) {
	type msg struct {
		Paths   []core.Path
		Data    []byte
		Tenants map[string]core.Quota
		hidden  int
	}
	data, err := codec.Marshal(msg{Paths: []core.Path{}, Data: []byte{}, Tenants: map[string]core.Quota{}, hidden: 7})
	if err != nil {
		t.Fatal(err)
	}
	var got msg
	if err := codec.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Paths != nil || got.Data != nil || got.Tenants != nil || got.hidden != 0 || len(data) != 4 {
		t.Errorf("empty message = %x decoding to %+v, want 4 bytes decoding to nils", data, got)
	}
	tenants := map[string]core.Quota{}
	for _, k := range []string{"c", "a", "d", "b"} {
		tenants[k] = core.Quota{Weight: int(k[0])}
	}
	first, _ := codec.Marshal(msg{Tenants: tenants})
	for i := 0; i < 20; i++ {
		if again, _ := codec.Marshal(msg{Tenants: tenants}); !bytes.Equal(again, first) {
			t.Fatalf("map encoding not deterministic: %x then %x", first, again)
		}
	}
	if err := codec.Unmarshal(first, &got); err != nil || !reflect.DeepEqual(got.Tenants, tenants) {
		t.Errorf("tenants round trip = %v, %v", got.Tenants, err)
	}
}

// tenantsMsg stands in for the controller's state image, the one
// message with a map.
type tenantsMsg struct {
	Seq     uint64
	Dead    []string
	Tenants map[string]core.Quota
}

// fuzzMessages are the seeds of FuzzControlDecode, one per message type
// it decodes into.
func fuzzMessages() []any {
	renewed := time.Unix(1700000000, 5).UTC()
	return []any{
		proto.CreatePrefixReq{Path: "j/t", Parents: []core.Path{"j/p", "j/q"}, Type: core.DSKV, InitialBlocks: 2, MaxBlocks: -1, LeaseDuration: time.Second},
		proto.OpenResp{Map: ds.PartitionMap{Type: core.DSKV, Epoch: 3, NumSlots: 16, Blocks: []ds.PartitionEntry{
			{Info: core.BlockInfo{ID: 7, Server: "a"}, Slots: []ds.SlotRange{{Lo: 0, Hi: 7}},
				Chain: core.ReplicaChain{{ID: 7, Server: "a"}, {ID: 9, Server: "b"}}},
			{Info: core.BlockInfo{ID: 8, Server: "b"}, Slots: []ds.SlotRange{{Lo: 8, Hi: 15}}, Lost: true},
		}}, LeaseDuration: time.Minute, Probation: []string{"c"}},
		proto.ListPrefixesResp{Prefixes: []proto.PrefixInfo{
			{Path: "j", LastRenewed: renewed},
			{Path: "j/t", Type: core.DSFile, Blocks: 2, UsedBytes: 4096, LastRenewed: renewed.Local()},
		}},
		proto.CtrlReplicateReq{Gen: 2, Leader: "ctrl-0", FirstSeq: 41, Ops: [][]byte{{1, 3}, {1}}},
		proto.SetQuotaReq{Path: "j", Quota: core.Quota{OpsPerSec: 1e3, BytesPerSec: 0.5, MemoryBytes: 1 << 30, Weight: 2}},
		tenantsMsg{Seq: 9, Dead: []string{"x"}, Tenants: map[string]core.Quota{"a": {Weight: 1}, "b": {OpsPerSec: 2}}},
	}
}

// FuzzControlDecode: arbitrary bytes decoded into control messages
// never panic, never allocate more than a small multiple of their
// length, and whatever is accepted re-encodes to the identical bytes.
func FuzzControlDecode(f *testing.F) {
	for _, m := range fuzzMessages() {
		data, err := codec.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := fuzzMessages()
		into := make([]reflect.Value, len(msgs))
		errs := make([]error, len(msgs))
		for i, m := range msgs {
			into[i] = reflect.New(reflect.TypeOf(m))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, v := range into {
			errs[i] = codec.Unmarshal(data, v.Interface())
		}
		runtime.ReadMemStats(&after)
		// Every count is bounded by the bytes left, so a decode allocates
		// at most the input length times the largest element (an 88-byte
		// PartitionEntry) per nesting level; the constant absorbs error
		// formatting.
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(into)*256*len(data)+64<<10); n > limit {
			t.Fatalf("decoding %d bytes %d ways allocated %d bytes, limit %d", len(data), len(into), n, limit)
		}
		for i, v := range into {
			if errs[i] != nil {
				continue
			}
			re, err := codec.Marshal(v.Interface())
			if err != nil {
				t.Fatalf("re-encoding an accepted %T: %v", msgs[i], err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("accepted %T re-encodes differently:\n  in %x\n out %x", msgs[i], data, re)
			}
			checkAppend(t, v.Interface(), re)
		}
	})
}

// TestTableErrorConvention: a handler's error reaches the caller as its
// wire code with the typed form rebuilt from the text, and an id nobody
// registered is ErrNotFound.
func TestTableErrorConvention(t *testing.T) {
	var tbl Table
	Handle(&tbl, proto.RenewLease, func(_ context.Context, _ *ServerConn, req proto.RenewLeaseReq) (proto.RenewLeaseResp, error) {
		if len(req.Paths) == 0 {
			return proto.RenewLeaseResp{}, &core.NotLeaderError{Leader: "ctrl-2", Gen: 9}
		}
		return proto.RenewLeaseResp{Renewed: len(req.Paths)}, nil
	})
	srv := NewServer(BytesHandler(tbl.Dispatch), nil)
	addr, err := srv.Listen("mem://table-convention")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	resp, err := Invoke(ctx, c, proto.RenewLease, proto.RenewLeaseReq{Paths: []core.Path{"a", "b"}})
	if err != nil || resp.Renewed != 2 {
		t.Fatalf("renew = %+v, %v", resp, err)
	}
	_, err = Invoke(ctx, c, proto.RenewLease, proto.RenewLeaseReq{})
	if hint, gen := core.LeaderHintOf(err); !errors.Is(err, core.ErrNotLeader) || hint != "ctrl-2" || gen != 9 {
		t.Errorf("typed error = %v (hint %q gen %d), want the redirect intact", err, hint, gen)
	}
	if _, err := Invoke(ctx, c, proto.Open, proto.OpenReq{Path: "x"}); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("unregistered method = %v, want ErrNotFound", err)
	}
}
