package jiffy

import (
	"context"
	"fmt"
	"testing"
	"time"

	"jiffy/internal/client"
	"jiffy/internal/clock"
	"jiffy/internal/faultinject"
)

// TestNonTailReadObservesUncommittedWrite is the scripted witness for
// the hole documented at the client's read-fallback stage
// (recovery.target): a chain member other than the tail holds writes
// the tail has not acknowledged, so a read it serves can return a value
// that repair later erases. KV only, on a chain of 3 over mem://:
//
//  1. Put(k, v1), acknowledged by the whole chain.
//  2. A one-way partition swallows the head → middle hop, so Put(k, v2)
//     is applied at the head and never acknowledged.
//  3. A reader whose breakers are open on the middle and the tail (the
//     gray-failure setup: slow successes strike them open) reads k from
//     the head.
//  4. The head dies; one liveness scan splices it out and resyncs the
//     replacement from the tail-most survivor.
//  5. The reader reads k again.
//
// v2 then v1 is the anomaly: the first read observed a write that never
// entered committed history. Until reads are confined to clean sequence
// numbers (ROADMAP item 1(B)) the test skips with what it observed;
// once they are, it passes.
func TestNonTailReadObservesUncommittedWrite(t *testing.T) {
	inj := faultinject.New(1331, nil)
	vclock := clock.NewVirtual(time.Unix(0, 0))
	cfg := recoveryConfig()
	cfg.RPCTimeout = 500 * time.Millisecond // how long the dead head's lost forward holds up its shutdown
	// Members' own connections carry the owner tag the partition names;
	// clients dial untagged.
	cluster, err := StartCluster(ClusterOptions{
		Config: cfg, Servers: 4, BlocksPerServer: 16, Clock: vclock, DisableExpiry: true,
		Dial: inj.DialAs("member"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	ctx := context.Background()
	connect := func(opts ...client.Option) *Client {
		c, err := cluster.Connect(ctx, append(opts, client.WithDial(inj.Dial))...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	writer := connect()
	reader := connect(client.WithBreaker(client.BreakerPolicy{
		Failures: 3, LatencyCeiling: 5 * time.Millisecond, Cooldown: time.Hour,
	}))
	if err := writer.RegisterJob(ctx, "witness"); err != nil {
		t.Fatal(err)
	}
	m, _, err := writer.CreatePrefix(ctx, "witness/kv", nil, DSKV, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	chain := m.Blocks[0].Chain
	if len(chain) != 3 {
		t.Fatalf("chain = %v, want 3 members", chain)
	}
	head, middle, tail := chain[0].Server, chain[1].Server, chain[2].Server
	wkv, err := writer.OpenKV(ctx, "witness/kv")
	if err != nil {
		t.Fatal(err)
	}
	rkv, err := reader.OpenKV(ctx, "witness/kv")
	if err != nil {
		t.Fatal(err)
	}
	read := func() string {
		t.Helper()
		v, err := rkv.Get(ctx, "k")
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		return string(v)
	}

	// 1. The committed value.
	if err := wkv.Put(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// 3 (set-up). Open the reader's breakers on the tail, then the middle:
	// a read goes to the tail, or to the closest member upstream of the
	// servers it avoids, and every slow success is a strike.
	breaker := func(server string) string {
		for _, h := range reader.ServerHealth() {
			if h.Server == server {
				return h.State
			}
		}
		return ""
	}
	for _, server := range []string{tail, middle} {
		inj.AddRule(faultinject.Rule{Name: "slow", Match: "send:" + server, Latency: 25 * time.Millisecond})
		for i := 0; breaker(server) != "open"; i++ {
			if i == 10 {
				t.Fatalf("breaker on %s still %q", server, breaker(server))
			}
			read()
		}
		inj.RemoveRule("slow")
	}

	// 2. The head applies v2, then its forward to the middle vanishes.
	inj.PartitionOneWay("member", middle)
	wctx, cancel := context.WithCancel(ctx)
	putDone := make(chan error, 1)
	go func() { putDone <- wkv.Put(wctx, "k", []byte("v2")) }()

	// 3. Read from the head until it shows the write it has applied.
	first := read()
	for deadline := time.Now().Add(5 * time.Second); first != "v2" && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		first = read()
	}
	// The writer gives up, so the write is never retried onto the
	// repaired chain; the partition heals so repair can reach the middle.
	cancel()
	if err := <-putDone; err == nil {
		t.Fatal("Put(k, v2) was acknowledged through a partitioned chain")
	}
	inj.HealOneWay("member", middle)

	// 4. Kill the head; one detection round repairs the chain.
	headIdx := killServer(t, cluster, inj, head)
	vclock.Advance(cfg.SuspicionWindow + cfg.HeartbeatInterval)
	for i, srv := range cluster.Servers {
		if i != headIdx {
			if err := srv.HeartbeatNow(); err != nil {
				t.Fatalf("heartbeat from server %d: %v", i, err)
			}
		}
	}
	dead := cluster.Controller.CheckLivenessNow()
	open, err := cluster.Controller.Open("witness/kv")
	if err != nil {
		t.Fatal(err)
	}
	repair := fmt.Sprintf("declared dead %v (middle spliced: %v), chain now %v",
		dead, cluster.Controller.ServerDead(middle), open.Map.Blocks[0].Chain)
	t.Logf("repair: %s", repair)

	// 5. Read again.
	second := read()
	if first == "v2" && second != "v2" {
		t.Skipf("ROADMAP item 1(B): the head served %q, a write the tail never acknowledged; "+
			"after %s, k reads %q", first, repair, second)
	}
	t.Logf("reads: %q then %q", first, second)
}
