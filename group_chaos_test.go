package jiffy

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/faultinject"
	"jiffy/internal/proto"
)

// TestChaosControllerKillMidRepairStandbyPromotes is the control-plane
// failover torture test: a memory server dies, the leader starts the
// chain repair, and the leader itself is killed mid-repair. The first
// standby then promotes under a fenced generation, re-sweeps the dead
// server, and finishes the repair from the replicated metadata — with
// zero metadata loss: every previously acknowledged write stays
// readable through the same client, which re-homes automatically.
func TestChaosControllerKillMidRepairStandbyPromotes(t *testing.T) {
	inj := faultinject.New(707, nil)
	inj.AddRule(faultinject.Rule{
		Name: "wire-drag", Match: "send:",
		Latency: 100 * time.Microsecond, Jitter: 300 * time.Microsecond,
	})
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour // survive the failover window
	cfg.RPCTimeout = 2 * time.Second
	cfg.ChainLength = 2 // every block has a surviving replica
	cluster := chaosCluster(t, inj, cfg, ClusterOptions{
		Controllers: 3, Servers: 3, BlocksPerServer: 32,
	})
	c, err := cluster.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	if err := c.RegisterJob(ctx, "ha"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.CreatePrefix(ctx, "ha/t", nil, DSKV, 4, 0); err != nil {
		t.Fatal(err)
	}
	kv, err := c.OpenKV(ctx, "ha/t")
	if err != nil {
		t.Fatal(err)
	}
	const writes = 40
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := kv.Put(ctx, key, []byte(key)); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}

	// Kill a memory server, then kill the leader while it is repairing
	// the dead server's chains: the repair is cut mid-flight, and some
	// repair commits may never have reached the standbys.
	victim := cluster.Servers[0]
	vaddr := victim.Addr()
	victim.Close()
	inj.BreakConns("server-0")
	repairing := make(chan struct{})
	go func() {
		defer close(repairing)
		// The leader verifies the report by probing the server (it is
		// unreachable), declares it dead, and starts the chain sweep.
		_ = cluster.Controller.ReportFailure(proto.ReportFailureReq{
			Reporter: "chaos", Server: vaddr,
		})
	}()
	time.Sleep(2 * time.Millisecond)
	cluster.Controller.Close()
	inj.BreakConns("controller-0")
	<-repairing

	// The first standby promotes under a fresh fenced generation and
	// finishes what the dead leader started.
	standby := cluster.Controllers[1]
	if gen := standby.PromoteNow(); gen != 2 {
		t.Fatalf("promotion gen = %d, want 2", gen)
	}
	if n := scrapeRegistry(standby.Obs())["jiffy_ctrl_failovers_total"]; n != 1 {
		t.Fatalf("failovers = %g, want 1", n)
	}
	// If the old leader died before replicating the death, tell the new
	// leader; its probe fails and the repair re-runs. Idempotent when
	// the promotion sweep already handled it.
	_ = standby.ReportFailure(proto.ReportFailureReq{Reporter: "chaos", Server: vaddr})

	// Zero metadata loss: the same client re-homes on its next control
	// call and every acknowledged write is still readable (reads follow
	// the repaired chains; a stale partition map refreshes via the
	// epoch-fencing retry).
	kv2, err := c.OpenKV(ctx, "ha/t")
	if err != nil {
		t.Fatalf("post-failover open: %v", err)
	}
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("k%d", i)
		v, err := kv2.Get(ctx, key)
		if err != nil || string(v) != key {
			t.Fatalf("acked write %s lost across controller failover: %q, %v", key, v, err)
		}
	}
	// The namespace survived intact and the control plane is fully
	// operational: stats, new prefixes, new writes.
	stats, err := c.ControllerStats(ctx)
	if err != nil || stats.Jobs != 1 {
		t.Fatalf("post-failover stats = %+v, %v", stats, err)
	}
	if _, _, err := c.CreatePrefix(ctx, "ha/after", nil, DSQueue, 1, 0); err != nil {
		t.Fatalf("post-failover create: %v", err)
	}
	q, err := c.OpenQueue(ctx, "ha/after")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue(ctx, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	// No chain still references the dead server.
	lp, err := standby.ListPrefixes("ha")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range lp.Prefixes {
		if strings.Contains(fmt.Sprintf("%v", p), vaddr) {
			t.Fatalf("prefix %v still references dead server %s", p, vaddr)
		}
	}
}
