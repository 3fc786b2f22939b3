package jiffy

import (
	"context"
	"fmt"
	"testing"
	"time"

	"jiffy/internal/client"
	"jiffy/internal/controller"
	"jiffy/internal/core"
)

// TestControllerFailover exercises the checkpoint-based control-plane
// recovery path: a controller checkpoints its metadata, dies, and a
// replacement restores the checkpoint and serves the same jobs — whose
// data never left the (still running) memory servers.
func TestControllerFailover(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour // survive the failover window
	cluster, err := StartCluster(ClusterOptions{
		Config: cfg, Servers: 2, BlocksPerServer: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	c, _ := cluster.Connect(context.Background())
	c.RegisterJob(context.Background(), "ha")
	if _, _, err := c.CreatePrefix(context.Background(), "ha/t", nil, DSKV, 2, 0); err != nil {
		t.Fatal(err)
	}
	kv, _ := c.OpenKV(context.Background(), "ha/t")
	for i := 0; i < 20; i++ {
		if err := kv.Put(context.Background(), fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SaveControllerState(context.Background(), "ckpt/ha"); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// The controller dies; the memory servers stay up.
	cluster.Controller.Close()

	// A replacement controller restores the image and starts serving
	// on a new endpoint.
	ctrl2, err := controller.New(controller.Options{
		Config: cfg, Persist: cluster.Store, DisableExpiry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl2.Close()
	if err := ctrl2.RestoreState("ckpt/ha"); err != nil {
		t.Fatal(err)
	}
	addr2, err := ctrl2.Listen("mem://failover-ctrl2")
	if err != nil {
		t.Fatal(err)
	}

	c2, err := client.Dial(context.Background(), client.WithControllers(addr2))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// Reads hit the same live blocks through the restored metadata.
	kv2, err := c2.OpenKV(context.Background(), "ha/t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		v, err := kv2.Get(context.Background(), fmt.Sprintf("k%d", i))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("post-failover get k%d = %q, %v", i, v, err)
		}
	}
	// Writes, scaling and new prefixes keep working.
	if err := kv2.Put(context.Background(), "post-failover", []byte("write")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.CreatePrefix(context.Background(), "ha/t2", nil, DSQueue, 1, 0); err != nil {
		t.Fatal(err)
	}
	q, _ := c2.OpenQueue(context.Background(), "ha/t2")
	if err := q.Enqueue(context.Background(), []byte("alive")); err != nil {
		t.Fatal(err)
	}
	stats, _ := c2.ControllerStats(context.Background())
	if stats.Jobs != 1 || stats.AllocatedBlocks < 3 {
		t.Errorf("restored stats = %+v", stats)
	}
}
