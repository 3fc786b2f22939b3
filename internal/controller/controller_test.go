package controller_test

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"jiffy/internal/blockstore"
	"jiffy/internal/clock"
	"jiffy/internal/controller"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/persist"
	"jiffy/internal/proto"
	"jiffy/internal/server"
)

// rig is a controller with live memory servers, driven in-process.
type rig struct {
	ctrl     *controller.Controller
	ctrlAddr string
	servers  []*server.Server
	vclock   *clock.Virtual
	store    *persist.MemStore
}

var rigSeq int

// applyOp runs op on block id of st the way a server's op path does:
// resolve the block, then apply to it.
func applyOp(st *blockstore.Store, id core.BlockID, op core.OpType, args [][]byte) ([][]byte, error) {
	b, err := st.Get(id)
	if err != nil {
		return nil, err
	}
	return st.ApplyOn(b, op, args, true)
}

func newRig(t *testing.T, numServers, blocksPerServer int, virtualTime bool) *rig {
	t.Helper()
	rigSeq++
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	r := &rig{store: persist.NewMemStore()}
	opts := controller.Options{
		Config:        cfg,
		Persist:       r.store,
		DisableExpiry: true,
	}
	if virtualTime {
		r.vclock = clock.NewVirtual(time.Unix(0, 0))
		opts.Clock = r.vclock
	}
	ctrl, err := controller.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	r.ctrl = ctrl
	ctrlAddr, err := ctrl.Listen(fmt.Sprintf("mem://ctrl-test-%d", rigSeq))
	if err != nil {
		t.Fatal(err)
	}
	r.ctrlAddr = ctrlAddr
	for i := 0; i < numServers; i++ {
		srv, err := server.New(server.Options{
			Config:          cfg,
			ControllerAddrs: []string{ctrlAddr},
			Persist:         r.store,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Listen(fmt.Sprintf("mem://srv-test-%d-%d", rigSeq, i)); err != nil {
			t.Fatal(err)
		}
		if err := srv.Register(blocksPerServer); err != nil {
			t.Fatal(err)
		}
		r.servers = append(r.servers, srv)
	}
	t.Cleanup(func() {
		for _, s := range r.servers {
			s.Close()
		}
		ctrl.Close()
	})
	return r
}

func TestScaleDownKVMergesSiblings(t *testing.T) {
	r := newRig(t, 1, 16, false)
	if err := r.ctrl.RegisterJob("j"); err != nil {
		t.Fatal(err)
	}
	resp, err := r.ctrl.CreatePrefix(proto.CreatePrefixReq{
		Path: "j/t", Type: core.DSKV, InitialBlocks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Map.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(resp.Map.Blocks))
	}
	// Write a pair into each shard directly through the blockstore.
	st := r.servers[0].Store()
	var placed []string
	for i := 0; i < 100 && len(placed) < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		slot := ds.SlotOf(key, resp.Map.NumSlots)
		e, ok := resp.Map.BlockForSlot(slot)
		if !ok {
			t.Fatalf("no block for slot %d", slot)
		}
		if _, err := applyOp(st, e.Info.ID, core.OpPut, [][]byte{[]byte(key), []byte("v")}); err == nil {
			placed = append(placed, key)
		}
	}
	// Merge block[0] away.
	down, err := r.ctrl.ScaleDown(proto.ScaleDownReq{Path: "j/t", Block: resp.Map.Blocks[0].Info.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(down.Map.Blocks) != 1 {
		t.Fatalf("blocks after merge = %d", len(down.Map.Blocks))
	}
	if down.Map.Epoch <= resp.Map.Epoch {
		t.Error("epoch did not advance")
	}
	// Survivor owns the whole slot space and holds every pair.
	surv := down.Map.Blocks[0]
	total := 0
	for _, rg := range surv.Slots {
		total += rg.Count()
	}
	if total != resp.Map.NumSlots {
		t.Errorf("survivor owns %d slots, want %d", total, resp.Map.NumSlots)
	}
	for _, key := range placed {
		if _, err := applyOp(st, surv.Info.ID, core.OpGet, [][]byte{[]byte(key)}); err != nil {
			t.Errorf("key %q lost in merge: %v", key, err)
		}
	}
	// Freed block returned to the pool.
	stats := r.ctrl.Stats()
	if stats.AllocatedBlocks != 1 {
		t.Errorf("allocated = %d, want 1", stats.AllocatedBlocks)
	}
}

func TestScaleDownLastShardRefused(t *testing.T) {
	r := newRig(t, 1, 8, false)
	r.ctrl.RegisterJob("j")
	resp, _ := r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/t", Type: core.DSKV})
	down, err := r.ctrl.ScaleDown(proto.ScaleDownReq{Path: "j/t", Block: resp.Map.Blocks[0].Info.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(down.Map.Blocks) != 1 {
		t.Error("last shard was reclaimed")
	}
}

func TestScaleUpStaleSignals(t *testing.T) {
	r := newRig(t, 1, 16, false)
	r.ctrl.RegisterJob("j")
	resp, _ := r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/f", Type: core.DSFile})
	// Unknown block: no-op, current map returned.
	up, err := r.ctrl.ScaleUp(proto.ScaleUpReq{Path: "j/f", Block: 9999})
	if err != nil || up.Map.Epoch != resp.Map.Epoch {
		t.Errorf("stale signal changed state: %v, epoch %d", err, up.Map.Epoch)
	}
	// Real signal grows the file by one chunk.
	up, err = r.ctrl.ScaleUp(proto.ScaleUpReq{Path: "j/f", Block: resp.Map.Blocks[0].Info.ID})
	if err != nil || len(up.Map.Blocks) != 2 {
		t.Fatalf("scale up = %d blocks, %v", len(up.Map.Blocks), err)
	}
	// Signaling the now-interior chunk is stale: no growth.
	again, err := r.ctrl.ScaleUp(proto.ScaleUpReq{Path: "j/f", Block: resp.Map.Blocks[0].Info.ID})
	if err != nil || len(again.Map.Blocks) != 2 {
		t.Errorf("stale chunk signal grew the file: %d blocks, %v", len(again.Map.Blocks), err)
	}
}

func TestExpiryWithVirtualClock(t *testing.T) {
	r := newRig(t, 1, 8, true)
	r.ctrl.RegisterJob("j")
	if _, err := r.ctrl.CreatePrefix(proto.CreatePrefixReq{
		Path: "j/t", Type: core.DSKV, LeaseDuration: 10 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	// Put data so the flush writes something.
	resp, _ := r.ctrl.Open("j/t")
	st := r.servers[0].Store()
	if _, err := applyOp(st, resp.Map.Blocks[0].Info.ID, core.OpPut,
		[][]byte{[]byte("k"), []byte("v")}); err != nil {
		t.Fatal(err)
	}

	// Within the lease: no reclaim.
	r.vclock.Advance(5 * time.Second)
	if n := r.ctrl.ExpireNow(); n != 0 {
		t.Fatalf("expired %d prefixes early", n)
	}
	// Renewal pushes expiry out.
	if _, err := r.ctrl.RenewLease([]core.Path{"j/t"}); err != nil {
		t.Fatal(err)
	}
	r.vclock.Advance(8 * time.Second)
	if n := r.ctrl.ExpireNow(); n != 0 {
		t.Fatalf("expired despite renewal")
	}
	// Let it lapse.
	r.vclock.Advance(10 * time.Second)
	if n := r.ctrl.ExpireNow(); n != 1 {
		t.Fatalf("expired %d prefixes, want 1", n)
	}
	stats := r.ctrl.Stats()
	if stats.AllocatedBlocks != 0 {
		t.Errorf("blocks not reclaimed: %d", stats.AllocatedBlocks)
	}
	// The flush landed in the persistent store.
	keys, _ := r.store.List("jiffy-flush/j/t")
	if len(keys) < 2 { // manifest + block
		t.Errorf("flush objects = %v", keys)
	}
	// Open reloads transparently.
	reopened, err := r.ctrl.Open("j/t")
	if err != nil {
		t.Fatal(err)
	}
	if len(reopened.Map.Blocks) != 1 {
		t.Fatalf("reloaded blocks = %d", len(reopened.Map.Blocks))
	}
	if _, err := applyOp(st, reopened.Map.Blocks[0].Info.ID, core.OpGet,
		[][]byte{[]byte("k")}); err != nil {
		t.Errorf("data lost across expiry: %v", err)
	}
}

func TestExpiryIdempotent(t *testing.T) {
	r := newRig(t, 1, 8, true)
	r.ctrl.RegisterJob("j")
	r.ctrl.CreatePrefix(proto.CreatePrefixReq{
		Path: "j/t", Type: core.DSFile, LeaseDuration: time.Second,
	})
	r.vclock.Advance(5 * time.Second)
	if n := r.ctrl.ExpireNow(); n != 1 {
		t.Fatalf("first scan expired %d", n)
	}
	// A second scan has nothing left to do.
	if n := r.ctrl.ExpireNow(); n != 0 {
		t.Errorf("second scan expired %d", n)
	}
}

func TestCreateHierarchyValidation(t *testing.T) {
	r := newRig(t, 1, 8, false)
	r.ctrl.RegisterJob("j")
	err := r.ctrl.CreateHierarchy(proto.CreateHierarchyReq{
		Job: "j",
		Nodes: []proto.DagNode{
			{Name: "child", Parents: []string{"missing-parent"}},
		},
	})
	if !errors.Is(err, core.ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	// Unknown job.
	err = r.ctrl.CreateHierarchy(proto.CreateHierarchyReq{Job: "ghost"})
	if !errors.Is(err, core.ErrNotFound) {
		t.Errorf("unknown job err = %v", err)
	}
}

func TestLoadMissingCheckpoint(t *testing.T) {
	r := newRig(t, 1, 8, false)
	r.ctrl.RegisterJob("j")
	r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/t", Type: core.DSKV})
	if _, err := r.ctrl.LoadPrefix("j/t", "nowhere"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestRemovePrefixFreesBlocks(t *testing.T) {
	r := newRig(t, 1, 8, false)
	r.ctrl.RegisterJob("j")
	r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/t", Type: core.DSKV, InitialBlocks: 3})
	if s := r.ctrl.Stats(); s.AllocatedBlocks != 3 {
		t.Fatalf("allocated = %d", s.AllocatedBlocks)
	}
	if err := r.ctrl.RemovePrefix("j/t"); err != nil {
		t.Fatal(err)
	}
	if s := r.ctrl.Stats(); s.AllocatedBlocks != 0 {
		t.Errorf("allocated after remove = %d", s.AllocatedBlocks)
	}
	if _, err := r.ctrl.Open("j/t"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("open removed prefix = %v", err)
	}
}

func TestMultiServerPlacementSpreads(t *testing.T) {
	r := newRig(t, 4, 8, false)
	r.ctrl.RegisterJob("j")
	resp, err := r.ctrl.CreatePrefix(proto.CreatePrefixReq{
		Path: "j/t", Type: core.DSKV, InitialBlocks: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	servers := map[string]int{}
	for _, e := range resp.Map.Blocks {
		servers[e.Info.Server]++
	}
	if len(servers) != 4 {
		t.Errorf("blocks placed on %d servers, want 4: %v", len(servers), servers)
	}
}

func TestOpenOnBarePrefix(t *testing.T) {
	r := newRig(t, 1, 8, false)
	r.ctrl.RegisterJob("j")
	r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/stage", Type: core.DSNone})
	if _, err := r.ctrl.Open("j/stage"); !errors.Is(err, core.ErrWrongType) {
		t.Errorf("open bare prefix = %v", err)
	}
}

func TestShardedControllerIndependence(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	ctrl, err := controller.New(controller.Options{
		Config: cfg, Shards: 8, DisableExpiry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	// Many jobs spread across shards; all register and renew correctly.
	for i := 0; i < 64; i++ {
		job := core.JobID(fmt.Sprintf("job%d", i))
		if err := ctrl.RegisterJob(job); err != nil {
			t.Fatal(err)
		}
	}
	stats := ctrl.Stats()
	if stats.Jobs != 64 {
		t.Errorf("jobs = %d", stats.Jobs)
	}
	var all []core.Path
	for i := 0; i < 64; i++ {
		if _, err := ctrl.RenewLease([]core.Path{core.Path(fmt.Sprintf("job%d", i))}); err != nil {
			t.Fatal(err)
		}
		all = append(all, core.Path(fmt.Sprintf("job%d", i)))
	}
	// Batches spanning every shard, listed in opposite orders, renew
	// concurrently with registrations: a batch locks its shards in shard
	// order, so none waits on another forever.
	reversed := slices.Clone(all)
	slices.Reverse(reversed)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := all
			if g%2 == 1 {
				batch = reversed
			}
			for k := 0; k < 20; k++ {
				if n, err := ctrl.RenewLease(batch); err != nil || n != len(batch) {
					t.Errorf("renewed %d of %d: %v", n, len(batch), err)
					return
				}
				job := core.JobID(fmt.Sprintf("extra%d-%d", g, k))
				if err := ctrl.RegisterJob(job); err != nil {
					t.Error(err)
					return
				}
				if err := ctrl.DeregisterJob(job); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSaveRestoreState checkpoints a controller's metadata and rebuilds
// a fresh controller from it; the memory servers (and their data) keep
// running throughout, so the restored controller serves the same jobs.
func TestSaveRestoreState(t *testing.T) {
	r := newRig(t, 2, 16, false)
	r.ctrl.RegisterJob("jobA")
	r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "jobA/t1", Type: core.DSKV, InitialBlocks: 2})
	r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "jobA/t1/t2", Parents: []core.Path{"jobA/t1"}, Type: core.DSFile})
	r.ctrl.RegisterJob("jobB")
	r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "jobB/q", Type: core.DSQueue})
	// Put a pair through the data plane so we can check it survives.
	open, _ := r.ctrl.Open("jobA/t1")
	st := r.servers[0].Store()
	key := "survivor"
	var blockHost core.BlockID
	for _, e := range open.Map.Blocks {
		if _, err := applyOp(st, e.Info.ID, core.OpPut, [][]byte{[]byte(key), []byte("v")}); err == nil {
			blockHost = e.Info.ID
			break
		}
	}

	if err := r.ctrl.SaveState("ckpt/controller"); err != nil {
		t.Fatal(err)
	}
	beforeStats := r.ctrl.Stats()

	// A fresh controller (same persistent store) restores the image.
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	ctrl2, err := controller.New(controller.Options{
		Config: cfg, Persist: r.store, DisableExpiry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl2.Close()
	if err := ctrl2.RestoreState("ckpt/controller"); err != nil {
		t.Fatal(err)
	}
	afterStats := ctrl2.Stats()
	if afterStats.Jobs != beforeStats.Jobs ||
		afterStats.Prefixes != beforeStats.Prefixes ||
		afterStats.AllocatedBlocks != beforeStats.AllocatedBlocks ||
		afterStats.FreeBlocks != beforeStats.FreeBlocks {
		t.Errorf("stats diverge: before=%+v after=%+v", beforeStats, afterStats)
	}
	// The restored map points at the same live blocks.
	open2, err := ctrl2.Open("jobA/t1")
	if err != nil {
		t.Fatal(err)
	}
	if len(open2.Map.Blocks) != len(open.Map.Blocks) {
		t.Fatalf("restored map has %d blocks", len(open2.Map.Blocks))
	}
	if blockHost != 0 {
		if _, err := applyOp(st, blockHost, core.OpGet, [][]byte{[]byte(key)}); err != nil {
			t.Errorf("data unreachable after restore: %v", err)
		}
	}
	// Allocation continues without reusing live IDs.
	resp, err := ctrl2.CreatePrefix(proto.CreatePrefixReq{Path: "jobB/more", Type: core.DSKV})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range resp.Map.Blocks {
		for _, old := range open.Map.Blocks {
			if e.Info.ID == old.Info.ID {
				t.Errorf("block ID %v reused while still allocated", e.Info.ID)
			}
		}
	}
	// Restoring on top of existing jobs is refused.
	if err := ctrl2.RestoreState("ckpt/controller"); !errors.Is(err, core.ErrExists) {
		t.Errorf("double restore = %v", err)
	}
}

// TestSaveRestoreMultiParentDag checks topological ordering in the
// image: a node whose two parents sit in different subtrees.
func TestSaveRestoreMultiParentDag(t *testing.T) {
	r := newRig(t, 1, 16, false)
	r.ctrl.RegisterJob("dag")
	r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "dag/A", Type: core.DSNone})
	r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "dag/B", Type: core.DSNone})
	// X's primary parent is A; B is an extra DAG edge. Names chosen so
	// a naive DFS (children in sorted order) visits X under A before B.
	if _, err := r.ctrl.CreatePrefix(proto.CreatePrefixReq{
		Path: "dag/A/X", Parents: []core.Path{"dag/B"}, Type: core.DSKV,
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.SaveState("ckpt/dag"); err != nil {
		t.Fatal(err)
	}
	cfg := core.TestConfig()
	ctrl2, err := controller.New(controller.Options{
		Config: cfg, Persist: r.store, DisableExpiry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl2.Close()
	if err := ctrl2.RestoreState("ckpt/dag"); err != nil {
		t.Fatal(err)
	}
	// Both addresses of X resolve.
	if _, err := ctrl2.Open("dag/A/X"); err != nil {
		t.Errorf("open via A: %v", err)
	}
	if _, err := ctrl2.Open("dag/B/X"); err != nil {
		t.Errorf("open via B: %v", err)
	}
	// Lease propagation still works across the restored DAG edges.
	n, err := ctrl2.RenewLease([]core.Path{"dag/A/X"})
	if err != nil || n != 3 { // X + parents A and B
		t.Errorf("renew = %d, %v (want 3)", n, err)
	}
}

// TestRestoreMissingImage reports ErrNotFound.
func TestRestoreMissingImage(t *testing.T) {
	r := newRig(t, 1, 8, false)
	if err := r.ctrl.RestoreState("ckpt/nothing"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}
