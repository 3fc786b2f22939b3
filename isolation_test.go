package jiffy

import (
	"context"
	"fmt"
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/faultinject"
	"jiffy/internal/persist"
)

// TestTaskLevelIsolation verifies the §3.1 isolation property: one
// address prefix's lifecycle (expiry and reclamation) does not disturb
// sibling prefixes of the same job — arrival and departure of tasks
// leave other tasks' resources untouched.
func TestTaskLevelIsolation(t *testing.T) {
	cfg := core.TestConfig() // 200ms leases, 20ms scans
	cluster, err := StartCluster(ClusterOptions{
		Config: cfg, Servers: 2, BlocksPerServer: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	c, _ := cluster.Connect(context.Background())
	defer c.Close()

	c.RegisterJob(context.Background(
	// Two sibling tasks; only taskA is renewed.
	), "iso")

	if _, _, err := c.CreatePrefix(context.Background(), "iso/taskA", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.CreatePrefix(context.Background(), "iso/taskB", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	renewer := c.StartRenewer(50*time.Millisecond, "iso/taskA")
	defer renewer.Stop()

	kvA, _ := c.OpenKV(context.Background(), "iso/taskA")
	kvB, _ := c.OpenKV(context.Background(), "iso/taskB")
	kvA.Put(context.Background(), "a", []byte("alive"))
	kvB.Put(context.Background(), "b", []byte("doomed"))

	// taskB's lease lapses; its memory is reclaimed.
	deadline := time.Now().Add(5 * time.Second)
	for leaseExpiries(cluster) == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if leaseExpiries(cluster) != 1 {
		t.Fatalf("expiries = %g, want exactly taskB", leaseExpiries(cluster))
	}
	// taskA's handle keeps working without a single hiccup — no
	// refresh, no reload.
	for i := 0; i < 20; i++ {
		if v, err := kvA.Get(context.Background(), "a"); err != nil || string(v) != "alive" {
			t.Fatalf("sibling expiry disturbed taskA: %q, %v", v, err)
		}
	}
	// taskB's data is recoverable (flushed before reclaim), proving
	// the reclaim was the lease's doing, not data loss.
	kvB2, err := c.OpenKV(context.Background(), "iso/taskB")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := kvB2.Get(context.Background(), "b"); err != nil || string(v) != "doomed" {
		t.Errorf("taskB flush/reload = %q, %v", v, err)
	}
}

// TestStageLevelIsolation demonstrates §3.1's "coarser-grained
// isolation by removing a layer": tasks share one stage-level prefix,
// so a single renewal covers the whole stage and the stage lives and
// dies as a unit.
func TestStageLevelIsolation(t *testing.T) {
	cfg := core.TestConfig()
	cluster, err := StartCluster(ClusterOptions{
		Config: cfg, Servers: 2, BlocksPerServer: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	c, _ := cluster.Connect(context.Background())
	defer c.Close()

	c.RegisterJob(context.Background(
	// One shared prefix for the whole map stage (instead of one per
	// task): the hierarchy layer that would separate tasks is omitted.
	), "stagejob")

	if _, _, err := c.CreatePrefix(context.Background(), "stagejob/map-stage", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	renewer := c.StartRenewer(50*time.Millisecond, "stagejob/map-stage")

	// Many "tasks" write under the single stage prefix.
	kv, _ := c.OpenKV(context.Background(), "stagejob/map-stage")
	for task := 0; task < 8; task++ {
		if err := kv.Put(context.Background(), fmt.Sprintf("task-%d", task), []byte("output")); err != nil {
			t.Fatal(err)
		}
	}
	// One renewal message covers all eight tasks' data.
	time.Sleep(500 * time.Millisecond) // several lease periods
	if n := leaseExpiries(cluster); n != 0 {
		t.Fatalf("stage expired despite renewal: %g", n)
	}
	// Stop renewing: the whole stage is reclaimed as one unit.
	renewer.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for leaseExpiries(cluster) == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if leaseExpiries(cluster) != 1 {
		t.Errorf("stage reclaim count = %g, want 1", leaseExpiries(cluster))
	}
}

// TestFinerGrainedIsolation demonstrates §3.1's "finer isolation by
// adding a layer": per-table prefixes under a task, individually
// renewable and reclaimable.
func TestFinerGrainedIsolation(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	cluster, err := StartCluster(ClusterOptions{
		Config: cfg, Servers: 1, BlocksPerServer: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	c, _ := cluster.Connect(context.Background())
	defer c.Close()

	c.RegisterJob(context.Background(), "lake")
	if _, _, err := c.CreatePrefix(context.Background(), "lake/etl", nil, DSNone, 0, 0); err != nil {
		t.Fatal(err)
	}
	// An extra layer: per-table structures under the task.
	for _, table := range []string{"orders", "customers"} {
		p := core.MustPath("lake", "etl", table)
		if _, _, err := c.CreatePrefix(context.Background(), p, nil, DSKV, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Reclaiming one table's prefix leaves the other untouched.
	if err := c.RemovePrefix(context.Background(), "lake/etl/orders"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenKV(context.Background(), "lake/etl/customers"); err != nil {
		t.Errorf("sibling table disturbed: %v", err)
	}
	stats, _ := c.ControllerStats(context.Background())
	if stats.AllocatedBlocks != 1 {
		t.Errorf("allocated = %d, want 1", stats.AllocatedBlocks)
	}
}

// TestExpiryFlushStallsNoRenewal is ROADMAP item 25's probe: one job's
// lease expiry must not hold up another job's control calls (§3.1's
// tenant isolation). On one controller shard with a persist tier at
// 20 ms per Put, job A's four 8-block file prefixes reach their 300 ms
// leases while job B renews its prefix every 2 ms; B's slowest renewal
// is bounded at 50 ms. An expiry flush holds the shard lock across
// every block's flush and persist Put today, so until item 25 moves
// those calls out of the lock the test skips with the maximum it
// measured.
func TestExpiryFlushStallsNoRenewal(t *testing.T) {
	const (
		prefixes    = 4
		blocksEach  = 8
		renewEvery  = 2 * time.Millisecond
		maxRenewal  = 50 * time.Millisecond
		probeLength = 2 * time.Second
	)
	inj := faultinject.New(25, nil)
	inj.AddRule(faultinject.Rule{Name: "slow-tier", Match: "persist:put", Latency: 20 * time.Millisecond})
	cfg := core.TestConfig()
	cfg.LeaseDuration = 300 * time.Millisecond
	cluster, err := StartCluster(ClusterOptions{
		Config: cfg, Servers: 2, BlocksPerServer: 32, ControllerShards: 1,
		Persist: inj.Store(persist.NewMemStore()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	c, err := cluster.Connect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, job := range []core.JobID{"a", "b"} {
		if err := c.RegisterJob(ctx, job); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.CreatePrefix(ctx, "b/kv", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < prefixes; i++ {
		if _, _, err := c.CreatePrefix(ctx, core.Path(fmt.Sprintf("a/f%d", i)), nil, DSFile, blocksEach, 0); err != nil {
			t.Fatal(err)
		}
	}
	var worst time.Duration
	for start := time.Now(); time.Since(start) < probeLength; time.Sleep(renewEvery) {
		t0 := time.Now()
		if _, err := c.RenewLease(ctx, "b/kv"); err != nil {
			t.Fatalf("renew b/kv: %v", err)
		}
		worst = max(worst, time.Since(t0))
	}
	if n := leaseExpiries(cluster); n < prefixes {
		t.Fatalf("%g prefixes expired during the probe, want job A's %d", n, prefixes)
	}
	if worst > maxRenewal {
		t.Skipf("ROADMAP item 25: job B's slowest renewal took %v while job A's %d prefixes flushed, want <= %v",
			worst, prefixes, maxRenewal)
	}
	t.Logf("job B's slowest renewal: %v", worst)
}
