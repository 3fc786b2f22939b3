package jiffy

import (
	"context"
	"fmt"
	"testing"
	"time"

	"jiffy/internal/client"
	"jiffy/internal/core"
	"jiffy/internal/faultinject"
)

// TestLostHopStallIsBounded is the probe for a sequence gap that
// nothing repairs. On a chain of 3 over mem://, a one-way partition
// swallows the head's hop to the middle for one write, then heals. The
// middle never sees that seq, so it parks every later hop of the block
// behind the gap (ApplyInOrder), and the head's forwards wait on it.
// Two more writes go to the same block; the probe records how long the
// last one takes to be acknowledged, bounded by SuspicionWindow plus
// one repair (a repair's calls each fit in one RPC timeout). Until a
// server reports a gap that old and the repair's generation bump
// releases it (ROADMAP item 22, "Bounded"), the test skips, quoting
// what it measured; once that lands, it passes.
func TestLostHopStallIsBounded(t *testing.T) {
	inj := faultinject.New(1367, nil)
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	cfg.ChainLength = 3
	cfg.RPCTimeout = 500 * time.Millisecond
	cfg.SuspicionWindow = time.Second // the gap age a server may wait out; no heartbeats, so no detector runs
	bound := cfg.SuspicionWindow + cfg.RPCTimeout
	// Members' own connections carry the owner tag the partition names;
	// the client dials untagged.
	cluster, err := StartCluster(ClusterOptions{
		Config: cfg, Servers: 3, BlocksPerServer: 16, Dial: inj.DialAs("member"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	ctx := context.Background()
	c, err := cluster.Connect(ctx, client.WithDial(inj.Dial))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.RegisterJob(ctx, "stall"); err != nil {
		t.Fatal(err)
	}
	m, _, err := c.CreatePrefix(ctx, "stall/kv", nil, DSKV, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	chain := m.Blocks[0].Chain
	if len(chain) != 3 {
		t.Fatalf("chain = %v, want 3 members", chain)
	}
	middle := chain[1].Server
	kv, err := c.OpenKV(ctx, "stall/kv")
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(ctx, "k0", []byte("v")); err != nil {
		t.Fatal(err)
	}

	// The head applies k1 and its hop to the middle vanishes. The writer
	// gives up well inside the head's forward timeout, so k1 is never
	// retried, and the partition heals.
	inj.PartitionOneWay("member", middle)
	lostCtx, cancel := context.WithTimeout(ctx, cfg.RPCTimeout/2)
	err = kv.Put(lostCtx, "k1", []byte("v"))
	cancel()
	if err == nil {
		t.Fatal("Put(k1) was acknowledged through a partitioned chain")
	}
	inj.HealOneWay("member", middle)

	// Two more writes to the same block; the second is timed.
	wctx, cancel := context.WithTimeout(ctx, bound)
	defer cancel()
	earlier := make(chan error, 1)
	go func() { earlier <- kv.Put(wctx, "k2", []byte("v")) }()
	start := time.Now()
	err = kv.Put(wctx, "k3", []byte("v"))
	took := time.Since(start)
	err2 := <-earlier
	var parked []string
	for _, srv := range cluster.Servers {
		for _, h := range srv.ParkedHops() {
			parked = append(parked, fmt.Sprintf("%s awaits seq %d of %v", srv.Addr(), h.AwaitedSeq, h.Block))
		}
	}
	if err != nil || took > bound {
		t.Skipf("ROADMAP item 22 \"Bounded\": after a lost hop, the last write returned after %v "+
			"(bound %v) with %v; the one before it with %v; parked: %v",
			took.Round(time.Millisecond), bound, err, err2, parked)
	}
	if err2 != nil {
		t.Fatalf("Put(k2) after the lost hop: %v", err2)
	}
	t.Logf("after a lost hop, the last write was acknowledged in %v (bound %v)", took, bound)
}
