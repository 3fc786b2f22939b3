package rpc

import (
	"context"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/proto"
)

// TestWireGolden decodes three message bodies exactly as the tree before
// the method table encoded them (hex captured from that build) and pins
// the ids they travel under: the table changed how methods are
// declared, not what is on the wire. (gob's type numbers depend on
// which types a process encoded first, so encodings are compared by
// what they decode to, not byte for byte.)
func TestWireGolden(t *testing.T) {
	decode := func(golden string, into any) {
		t.Helper()
		raw, err := hex.DecodeString(golden)
		if err != nil {
			t.Fatal(err)
		}
		if err := Unmarshal(raw, into); err != nil {
			t.Fatal(err)
		}
	}
	check := func(id, wantID uint16, got, want any) {
		t.Helper()
		if id != wantID {
			t.Errorf("method id = %#x, want %#x", id, wantID)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("decoded %+v, want %+v", got, want)
		}
	}

	var cp proto.CreatePrefixReq
	decode("6d7f0301010f43726561746550726566697852657101ff80000106010450617468010c000107506172656e747301ff8200010454797065010600010d496e697469616c426c6f636b7301040001094d6178426c6f636b73010400010d4c656173654475726174696f6e010400000019ff810201010b5b5d636f72652e5061746801ff8200010c000018ff8001036a2f740101036a2f700103010402fc7735940000", &cp)
	check(proto.CreatePrefix.ID, 0x0003, cp, proto.CreatePrefixReq{
		Path: "j/t", Parents: []core.Path{"j/p"}, Type: core.DSKV, InitialBlocks: 2, LeaseDuration: time.Second})

	var rl proto.RenewLeaseResp
	decode("28ff830301010e52656e65774c656173655265737001ff84000101010752656e65776564010400000005ff84010600", &rl)
	check(proto.RenewLease.ID, 0x0006, rl, proto.RenewLeaseResp{Renewed: 3})

	var uc proto.UpdateChainReq
	decode("42ff850301010e557064617465436861696e52657101ff860001040105426c6f636b0106000105436861696e01ff8a00010347656e01060001045365616c01020000001bff890201010c5265706c696361436861696e01ff8a0001ff88000029ff8703010109426c6f636b496e666f01ff88000102010249440106000106536572766572010c00000015ff8601070102010701016100010801016200010500", &uc)
	check(proto.UpdateChain.ID, 0x0111, uc, proto.UpdateChainReq{
		Block: 7, Chain: core.ReplicaChain{{ID: 7, Server: "a"}, {ID: 8, Server: "b"}}, Gen: 5})
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
