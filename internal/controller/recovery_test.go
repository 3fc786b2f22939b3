package controller_test

import (
	"errors"
	"testing"
	"time"

	"jiffy/internal/clock"
	"jiffy/internal/controller"
	"jiffy/internal/core"
	"jiffy/internal/persist"
	"jiffy/internal/proto"
	"jiffy/internal/server"
)

// recoveryCtrl boots a controller with heartbeat detection configured
// on a virtual clock, plus n servers whose own heartbeat workers are
// off — the tests beat manually, so every detection step is explicit.
func recoveryCtrl(t *testing.T, vclock clock.Clock, n int, blocks ...int) (
	*controller.Controller, []*server.Server) {
	t.Helper()
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	cfg.HeartbeatInterval = time.Second
	cfg.SuspicionWindow = 5 * time.Second
	store := persist.NewMemStore() // shared, like a real cluster's persist tier
	ctrl, err := controller.New(controller.Options{
		Config: cfg, Persist: store, DisableExpiry: true, Clock: vclock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close() })
	addr, err := ctrl.Listen("mem://recovery-ctrl-" + t.Name())
	if err != nil {
		t.Fatal(err)
	}
	srvCfg := cfg
	srvCfg.HeartbeatInterval = 0 // no background beats; tests drive HeartbeatNow
	srvCfg.SuspicionWindow = 0
	var srvs []*server.Server
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Options{Config: srvCfg, ControllerAddrs: []string{addr}, Persist: store})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if _, err := srv.Listen("mem://recovery-srv-" + t.Name() + "-" + string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
		cap := 8
		if i < len(blocks) {
			cap = blocks[i]
		}
		if err := srv.Register(cap); err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, srv)
	}
	return ctrl, srvs
}

// TestHeartbeatDetectionAndRevival walks the failure detector's full
// life cycle: a server that stops beating is declared dead after the
// suspicion window and evicted from the membership; its next heartbeat
// is rejected with ErrNotFound, which makes the server re-register —
// rejoining the membership with fresh capacity and a new epoch.
func TestHeartbeatDetectionAndRevival(t *testing.T) {
	vclock := clock.NewVirtual(time.Unix(0, 0))
	ctrl, srvs := recoveryCtrl(t, vclock, 2, 8, 8)
	a, b := srvs[0], srvs[1]
	epoch0 := ctrl.MembershipEpoch()

	// A beat from an address that never registered is rejected.
	if _, err := ctrl.Heartbeat("mem://recovery-nobody"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("heartbeat from unknown server = %v, want ErrNotFound", err)
	}

	// Only A beats across the suspicion window: B is declared dead.
	vclock.Advance(6 * time.Second)
	if err := a.HeartbeatNow(); err != nil {
		t.Fatal(err)
	}
	dead := ctrl.CheckLivenessNow()
	if len(dead) != 1 || dead[0] != b.Addr() {
		t.Fatalf("liveness scan = %v, want [%s]", dead, b.Addr())
	}
	if !ctrl.ServerDead(b.Addr()) || ctrl.ServerDead(a.Addr()) {
		t.Fatalf("dead/live flags wrong: B dead=%v A dead=%v",
			ctrl.ServerDead(b.Addr()), ctrl.ServerDead(a.Addr()))
	}
	if s := ctrl.Stats(); s.Servers != 1 || s.TotalBlocks != 8 {
		t.Fatalf("membership after death: %+v", s)
	}
	if e := ctrl.MembershipEpoch(); e != epoch0+1 {
		t.Fatalf("epoch after death = %d, want %d", e, epoch0+1)
	}
	// The scan is idempotent: no double declaration.
	if again := ctrl.CheckLivenessNow(); len(again) != 0 {
		t.Fatalf("second scan declared %v dead again", again)
	}

	// B comes back: its heartbeat is rejected, so it re-registers its
	// stored capacity and rejoins.
	if err := b.HeartbeatNow(); err != nil {
		t.Fatalf("revival heartbeat: %v", err)
	}
	if ctrl.ServerDead(b.Addr()) {
		t.Fatal("server still dead after re-registration")
	}
	if s := ctrl.Stats(); s.Servers != 2 || s.TotalBlocks != 16 {
		t.Fatalf("membership after revival: %+v", s)
	}
	if e := ctrl.MembershipEpoch(); e != epoch0+2 {
		t.Fatalf("epoch after revival = %d, want %d", e, epoch0+2)
	}
	if _, ok := ctrl.LastBeat(b.Addr()); !ok {
		t.Fatal("revived server has no tracked beat")
	}
}

// TestDrainServerMigratesData drains the only server hosting an
// unreplicated block: the block migrates by snapshot to the remaining
// server with its data intact, the source copy is deleted, and the
// drained server leaves the membership. A second drain is a typed
// error.
func TestDrainServerMigratesData(t *testing.T) {
	vclock := clock.NewVirtual(time.Unix(0, 0))
	ctrl, srvs := recoveryCtrl(t, vclock, 2, 8, 4)
	src, dst := srvs[0], srvs[1] // most-free placement picks src (8 > 4)

	ctrl.RegisterJob("j")
	resp, err := ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/kv", Type: core.DSKV})
	if err != nil {
		t.Fatal(err)
	}
	oldID := resp.Map.Blocks[0].Info.ID
	if got := resp.Map.Blocks[0].Info.Server; got != src.Addr() {
		t.Fatalf("precondition: block on %s, want %s", got, src.Addr())
	}
	if _, err := src.Store().Apply(oldID, core.OpPut,
		[][]byte{[]byte("k"), []byte("v")}); err != nil {
		t.Fatal(err)
	}

	migrated, err := ctrl.DrainServer(src.Addr())
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if migrated != 1 {
		t.Fatalf("drain migrated %d entries, want 1", migrated)
	}
	open, err := ctrl.Open("j/kv")
	if err != nil {
		t.Fatal(err)
	}
	e := open.Map.Blocks[0]
	if e.Lost || e.Info.Server != dst.Addr() {
		t.Fatalf("entry after drain: %+v, want healthy on %s", e, dst.Addr())
	}
	if v, err := dst.Store().Apply(e.Info.ID, core.OpGet, [][]byte{[]byte("k")}); err != nil || string(v[0]) != "v" {
		t.Fatalf("migrated data unreadable on destination: %v %v", v, err)
	}
	// The source copy is gone, and so is the server's membership.
	if _, err := src.Store().Apply(oldID, core.OpGet, [][]byte{[]byte("k")}); err == nil {
		t.Error("source block still readable after drain")
	}
	if s := ctrl.Stats(); s.Servers != 1 {
		t.Fatalf("drained server still in the pool: %+v", s)
	}
	if _, err := ctrl.DrainServer(src.Addr()); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("second drain = %v, want ErrNotFound", err)
	}
}

// TestDeadServerBlockRecoveredFromPersistTier kills the sole host of
// an unreplicated block whose prefix has been flushed: the repair
// rebuilds the block on a healthy server from the flushed snapshot
// instead of marking it lost.
func TestDeadServerBlockRecoveredFromPersistTier(t *testing.T) {
	vclock := clock.NewVirtual(time.Unix(0, 0))
	ctrl, srvs := recoveryCtrl(t, vclock, 2, 8, 4)
	doomed, survivor := srvs[0], srvs[1] // most-free placement picks doomed

	ctrl.RegisterJob("j")
	resp, err := ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/kv", Type: core.DSKV})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Map.Blocks[0].Info.Server; got != doomed.Addr() {
		t.Fatalf("precondition: block on %s, want %s", got, doomed.Addr())
	}
	if _, err := doomed.Store().Apply(resp.Map.Blocks[0].Info.ID, core.OpPut,
		[][]byte{[]byte("k"), []byte("precious")}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.FlushPrefix("j/kv", "ckpt/recovery"); err != nil {
		t.Fatal(err)
	}

	doomed.Close()
	if !ctrl.FailServer(doomed.Addr()) {
		t.Fatal("FailServer reported the server already dead")
	}
	open, err := ctrl.Open("j/kv")
	if err != nil {
		t.Fatal(err)
	}
	e := open.Map.Blocks[0]
	if e.Lost {
		t.Fatal("flushed block marked lost instead of recovered")
	}
	if e.Info.Server != survivor.Addr() {
		t.Fatalf("recovered block on %s, want %s", e.Info.Server, survivor.Addr())
	}
	v, err := survivor.Store().Apply(e.Info.ID, core.OpGet, [][]byte{[]byte("k")})
	if err != nil || string(v[0]) != "precious" {
		t.Fatalf("recovered data unreadable: %v %v", v, err)
	}
}
