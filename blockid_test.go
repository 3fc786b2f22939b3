package jiffy

import (
	"context"
	"errors"
	"testing"
	"time"

	"jiffy/internal/clock"
	"jiffy/internal/core"
)

// blockIDRig is one memory server of four blocks with two tenants, a
// and b, and a KV handle on a/x that the test then leaves stale.
func blockIDRig(t *testing.T, opts ClusterOptions) (*Cluster, *Client, *KV) {
	t.Helper()
	opts.Servers, opts.BlocksPerServer = 1, 4
	cluster, err := StartCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	ctx := context.Background()
	c, err := cluster.Connect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, job := range []core.JobID{"a", "b"} {
		if err := c.RegisterJob(ctx, job); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.CreatePrefix(ctx, "a/x", nil, DSKV, 1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	kv, err := c.OpenKV(ctx, "a/x")
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(ctx, "k0", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	return cluster, c, kv
}

// assertEmptyTenant checks that b/y, placed after a/x's blocks were
// reclaimed, holds none of a's writes.
func assertEmptyTenant(t *testing.T, c *Client) {
	t.Helper()
	ctx := context.Background()
	kv, err := c.OpenKV(ctx, "b/y")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"k", "k0"} {
		if v, err := kv.Get(ctx, key); !errors.Is(err, ErrNotFound) {
			t.Errorf("b/y %s = %q, %v; want ErrNotFound (another tenant's write)", key, v, err)
		}
	}
}

// TestBlockIDStaleHandleAfterRemove: a handle to a removed prefix names
// block IDs no server hosts any more, so its write fails instead of
// landing in the tenant whose prefix was placed next.
func TestBlockIDStaleHandleAfterRemove(t *testing.T) {
	_, c, stale := blockIDRig(t, ClusterOptions{DisableExpiry: true})
	ctx := context.Background()
	if err := c.RemovePrefix(ctx, "a/x"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.CreatePrefix(ctx, "b/y", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := stale.Put(ctx, "k", []byte("from-a")); !errors.Is(err, ErrNotFound) {
		t.Errorf("put through a removed prefix's handle = %v, want ErrNotFound", err)
	}
	assertEmptyTenant(t, c)
}

// TestBlockIDStaleHandleAfterLeaseExpiry: the same after a's lease
// lapses and the expiry scan flushes and reclaims a/x. The stale put
// relearns the map, which reloads a/x from its flush, so the write lands
// in a's own data next to the one written before expiry.
func TestBlockIDStaleHandleAfterLeaseExpiry(t *testing.T) {
	vclock := clock.NewVirtual(time.Unix(0, 0))
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	cluster, c, stale := blockIDRig(t, ClusterOptions{Config: cfg, Clock: vclock, DisableExpiry: true})
	ctx := context.Background()
	vclock.Advance(11 * time.Second)
	if got := cluster.Controller.ExpireNow(); got != 1 {
		t.Fatalf("expiry scan reclaimed %d prefixes, want a/x", got)
	}
	if _, _, err := c.CreatePrefix(ctx, "b/y", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := stale.Put(ctx, "k", []byte("from-a")); err != nil {
		t.Fatalf("put through an expired prefix's handle: %v", err)
	}
	kv, err := c.OpenKV(ctx, "a/x")
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{"k": "from-a", "k0": "v0"} {
		if v, err := kv.Get(ctx, key); err != nil || string(v) != want {
			t.Errorf("a/x %s = %q, %v; want %q", key, v, err, want)
		}
	}
	assertEmptyTenant(t, c)
}
