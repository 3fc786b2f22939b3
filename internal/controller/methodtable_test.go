package controller_test

import (
	"context"
	"errors"
	"testing"

	"jiffy/internal/core"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
)

// TestMethodTable holds the declarations in internal/proto to the two
// method tables: every id is unique and named, every control method is
// served by exactly one of controller and memory server, and every
// controller method except the group protocol's four is answered on a
// standby with a redirect that names the leader. An empty body never
// decodes, so a registered method answers it with a codec error (a
// leader-only one on a standby with the redirect, which comes before
// the decode) and an unregistered one with ErrNotFound.
func TestMethodTable(t *testing.T) {
	r := newGroupRig(t, core.TestConfig(), 2, 1, 8)
	dial := func(addr string) *rpc.Client {
		c, err := rpc.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	leader, standby, srv := dial(r.addrs[0]), dial(r.addrs[1]), dial(r.servers[0].Addr())

	dataPlane := map[uint16]bool{proto.MethodDataOp: true, proto.MethodDataOpBatch: true, proto.MethodReplicate: true}
	anyMember := map[uint16]bool{
		proto.CtrlReplicate.ID: true, proto.CtrlBootstrap.ID: true,
		proto.CtrlRole.ID: true, proto.CtrlPromote.ID: true,
	}
	seen := make(map[uint16]string)
	for _, m := range proto.Methods() {
		if m.Name == "" || proto.MethodName(m.ID) != m.Name {
			t.Errorf("method %#x: name %q, MethodName %q", m.ID, m.Name, proto.MethodName(m.ID))
		}
		if prev, dup := seen[m.ID]; dup {
			t.Errorf("id %#x declared twice: %s and %s", m.ID, prev, m.Name)
		}
		seen[m.ID] = m.Name
		if dataPlane[m.ID] {
			continue
		}
		_, lerr := leader.CallContext(context.Background(), m.ID, nil)
		_, serr := srv.CallContext(context.Background(), m.ID, nil)
		if lerr == nil || serr == nil {
			t.Errorf("%s accepted an empty body: controller %v, server %v", m.Name, lerr, serr)
		}
		onCtrl, onSrv := !errors.Is(lerr, core.ErrNotFound), !errors.Is(serr, core.ErrNotFound)
		if onCtrl == onSrv {
			t.Errorf("%s: served by controller = %v, by server = %v; want exactly one", m.Name, onCtrl, onSrv)
		}
		if !onCtrl {
			continue
		}
		_, err := standby.CallContext(context.Background(), m.ID, nil)
		hint, gen := core.LeaderHintOf(err)
		switch {
		case anyMember[m.ID]:
			if errors.Is(err, core.ErrNotLeader) {
				t.Errorf("%s: group method redirected by a standby", m.Name)
			}
		case !errors.Is(err, core.ErrNotLeader) || hint != r.addrs[0] || gen == 0:
			t.Errorf("%s on a standby = %v (hint %q gen %d), want a redirect to %s", m.Name, err, hint, gen, r.addrs[0])
		}
	}
	if len(seen) < 40 {
		t.Errorf("%d methods declared, want the tree's 40 or more", len(seen))
	}
}
