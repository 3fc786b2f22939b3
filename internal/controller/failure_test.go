package controller_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"jiffy/internal/controller"
	"jiffy/internal/core"
	"jiffy/internal/persist"
	"jiffy/internal/proto"
	"jiffy/internal/server"
)

// faultyStore wraps a Store and fails writes on demand.
type faultyStore struct {
	persist.Store
	mu       sync.Mutex
	failPuts bool
}

func (f *faultyStore) setFailPuts(v bool) {
	f.mu.Lock()
	f.failPuts = v
	f.mu.Unlock()
}

func (f *faultyStore) Put(key string, data []byte) error {
	f.mu.Lock()
	fail := f.failPuts
	f.mu.Unlock()
	if fail {
		return errors.New("injected persist failure")
	}
	return f.Store.Put(key, data)
}

// TestExpiryKeepsDataWhenFlushFails verifies the §3.2 guarantee from
// the reclaim side: if the pre-reclaim flush cannot complete, the
// controller must NOT free the blocks — expiring a lease never loses
// data.
func TestExpiryKeepsDataWhenFlushFails(t *testing.T) {
	fs := &faultyStore{Store: persist.NewMemStore()}
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	ctrl, err := controller.New(controller.Options{
		Config: cfg, Persist: fs, DisableExpiry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	addr, _ := ctrl.Listen("mem://flushfail-ctrl")
	srv, err := server.New(server.Options{
		Config: cfg, ControllerAddrs: []string{addr}, Persist: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Listen("mem://flushfail-srv")
	srv.Register(16)

	ctrl.RegisterJob("j")
	ctrl.CreatePrefix(proto.CreatePrefixReq{
		Path: "j/t", Type: core.DSKV, LeaseDuration: time.Millisecond,
	})
	open, _ := ctrl.Open("j/t")
	blockID := open.Map.Blocks[0].Info.ID
	if _, err := applyOp(srv.Store(), blockID, core.OpPut,
		[][]byte{[]byte("precious"), []byte("data")}); err != nil {
		t.Fatal(err)
	}

	// Lease lapses but the persist tier is down: no reclaim.
	fs.setFailPuts(true)
	time.Sleep(5 * time.Millisecond)
	if n := ctrl.ExpireNow(); n != 0 {
		t.Fatalf("reclaimed %d prefixes despite flush failure", n)
	}
	if _, err := applyOp(srv.Store(), blockID, core.OpGet, [][]byte{[]byte("precious")}); err != nil {
		t.Fatalf("data lost during failed flush: %v", err)
	}
	// The tier recovers; the next scan flushes and reclaims.
	fs.setFailPuts(false)
	if n := ctrl.ExpireNow(); n != 1 {
		t.Fatalf("post-recovery scan reclaimed %d", n)
	}
	// And the data is recoverable through Open.
	reopened, err := ctrl.Open("j/t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applyOp(srv.Store(), reopened.Map.Blocks[0].Info.ID, core.OpGet,
		[][]byte{[]byte("precious")}); err != nil {
		t.Errorf("data lost across recovered expiry: %v", err)
	}
}

// TestScaleUpWithDeadServer: when the server chosen for a new block is
// unreachable, the scale-up evicts it from the allocator and retries
// on a healthy server — the allocator's most-free placement would
// otherwise deterministically re-pick the dead server forever. The
// dead server's unreplicated, unflushed block is marked Lost by the
// follow-up repair.
func TestScaleUpWithDeadServer(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	ctrl, err := controller.New(controller.Options{
		Config: cfg, Persist: persist.NewMemStore(), DisableExpiry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	addr, _ := ctrl.Listen("mem://deadsrv-ctrl")

	live, err := server.New(server.Options{Config: cfg, ControllerAddrs: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	live.Listen("mem://deadsrv-live")
	live.Register(4)

	dead, err := server.New(server.Options{Config: cfg, ControllerAddrs: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	dead.Listen("mem://deadsrv-dead")
	dead.Register(16)

	ctrl.RegisterJob("j")
	// The dead server has the most free blocks, so both the initial
	// allocation and every retry-free scale-up would pick it.
	resp, err := ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/f", Type: core.DSFile})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Map.Blocks[0].Info.Server != "mem://deadsrv-dead" {
		t.Fatalf("precondition: first block on %s, want the dead server", resp.Map.Blocks[0].Info.Server)
	}
	dead.Close()

	// The scale-up discovers the dead server, evicts it, and retries on
	// the live one — it must succeed, not bounce forever.
	sresp, serr := ctrl.ScaleUp(proto.ScaleUpReq{Path: "j/f", Block: resp.Map.Blocks[0].Info.ID})
	if serr != nil {
		t.Fatalf("scale-up with dead server in pool: %v", serr)
	}
	var newEntry *struct {
		server string
		id     core.BlockID
	}
	for _, e := range sresp.Map.Blocks {
		if e.Chunk == 1 {
			newEntry = &struct {
				server string
				id     core.BlockID
			}{e.Info.Server, e.Info.ID}
		}
	}
	if newEntry == nil {
		t.Fatal("scale-up did not append a chunk")
	}
	if newEntry.server != "mem://deadsrv-live" {
		t.Errorf("new chunk placed on %s, want the live server", newEntry.server)
	}
	if !ctrl.ServerDead("mem://deadsrv-dead") {
		t.Error("unreachable server not declared dead")
	}
	stats := ctrl.Stats()
	if stats.Servers != 1 || stats.TotalBlocks != 4 {
		t.Errorf("dead server still in the pool: %+v", stats)
	}
	// Later scale-ups never retry the dead server.
	sresp2, serr := ctrl.ScaleUp(proto.ScaleUpReq{Path: "j/f", Block: newEntry.id})
	if serr != nil {
		t.Fatalf("second scale-up: %v", serr)
	}
	for _, e := range sresp2.Map.Blocks {
		if e.Chunk > 0 && e.Info.Server != "mem://deadsrv-live" {
			t.Errorf("chunk %d placed on %s after eviction", e.Chunk, e.Info.Server)
		}
	}
	// The dead server's unreplicated, unflushed block ends up Lost
	// (repair runs asynchronously after the eviction).
	deadline := time.Now().Add(5 * time.Second)
	for {
		open, err := ctrl.Open("j/f")
		if err != nil {
			t.Fatal(err)
		}
		if open.Map.Blocks[0].Lost {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead server's unreplicated block never marked lost")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientSurvivesServerRestartWindow: ops against a vanished server
// fail with a connection error rather than hanging.
func TestClientSurvivesServerRestartWindow(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	ctrl, err := controller.New(controller.Options{
		Config: cfg, Persist: persist.NewMemStore(), DisableExpiry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	addr, _ := ctrl.Listen("mem://restart-ctrl")
	srv, err := server.New(server.Options{Config: cfg, ControllerAddrs: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Listen("mem://restart-srv")
	srv.Register(8)

	ctrl.RegisterJob("j")
	resp, _ := ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/t", Type: core.DSKV})
	srv.Close()

	// Controller-side operations needing the dead server fail with a
	// wrapped connection error within the RPC call, not a hang.
	done := make(chan error, 1)
	go func() {
		_, err := ctrl.FlushPrefix("j/t", "ckpt/x")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("flush against dead server succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("flush against dead server hung")
	}
	_ = resp
}
