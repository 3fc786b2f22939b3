package jiffy

// Recovery chaos suite: end-to-end proofs of the self-healing pipeline
// (failure detection → chain repair → block recovery) under seeded
// faults and a virtual clock. Detection is driven deterministically:
// live servers beat via HeartbeatNow, the clock advances past the
// suspicion window, and one CheckLivenessNow scan declares the victim
// dead and repairs every chain synchronously — no wall-clock sleeps,
// no flaky timers, race-clean under -race.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jiffy/internal/client"
	"jiffy/internal/clock"
	"jiffy/internal/core"
	"jiffy/internal/faultinject"
	"jiffy/internal/obs"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
)

// recoveryConfig is the shared shape of the repair scenarios: 3-member
// chains with heartbeat-based detection enabled but paced on a virtual
// clock (DisableExpiry keeps the controller's background detector off,
// so the test owns every detection step).
func recoveryConfig() core.Config {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	cfg.RPCTimeout = 2 * time.Second
	cfg.ChainLength = 3
	cfg.HeartbeatInterval = time.Second
	cfg.SuspicionWindow = 5 * time.Second
	return cfg
}

// killServer closes the cluster server backing addr and severs every
// live session to it. Returns the index of the killed server.
func killServer(t *testing.T, cluster *Cluster, inj *faultinject.Injector, addr string) int {
	t.Helper()
	for i, srv := range cluster.Servers {
		if strings.Contains(addr, fmt.Sprintf("server-%d", i)) {
			srv.Close()
			inj.BreakConns(addr)
			return i
		}
	}
	t.Fatalf("no cluster server matches %s", addr)
	return -1
}

// detectAndRepair drives one deterministic detection round: the clock
// jumps past the suspicion window, every surviving server beats, and a
// single liveness scan declares the victim dead — repairing every
// affected chain synchronously before returning.
func detectAndRepair(t *testing.T, cluster *Cluster, vclock *clock.Virtual,
	cfg core.Config, deadIdx int, deadAddr string) {
	t.Helper()
	vclock.Advance(cfg.SuspicionWindow + cfg.HeartbeatInterval)
	for i, srv := range cluster.Servers {
		if i == deadIdx {
			continue
		}
		if err := srv.HeartbeatNow(); err != nil {
			t.Fatalf("heartbeat from surviving server %d: %v", i, err)
		}
	}
	newlyDead := cluster.Controller.CheckLivenessNow()
	if len(newlyDead) != 1 || newlyDead[0] != deadAddr {
		t.Fatalf("liveness scan declared %v dead, want exactly [%s]", newlyDead, deadAddr)
	}
	if !cluster.Controller.ServerDead(deadAddr) {
		t.Fatal("killed server not marked dead after the scan")
	}
}

// assertChainHealthy asserts every partition entry of path is repaired
// to a full-width chain with no member on deadAddr and none lost.
func assertChainHealthy(t *testing.T, cluster *Cluster, path core.Path,
	width int, deadAddr string) {
	t.Helper()
	open, err := cluster.Controller.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range open.Map.Blocks {
		if e.Lost {
			t.Fatalf("chunk %d marked lost despite surviving replicas", e.Chunk)
		}
		reps := e.Replicas()
		if len(reps) != width {
			t.Fatalf("chunk %d repaired to width %d, want %d: %+v",
				e.Chunk, len(reps), width, reps)
		}
		for _, info := range reps {
			if info.Server == deadAddr {
				t.Fatalf("chunk %d still references the dead server: %+v", e.Chunk, reps)
			}
		}
	}
}

// TestChaosChainRepairAfterHeadKill kills the HEAD of a 3-member
// replica chain in the middle of a write stream. Writes in the
// detection window fail with classified connection errors; one
// deterministic detection round splices the dead head out, promotes
// the next survivor and resyncs a replacement from the tail-most
// survivor's snapshot; the stream then resumes against the repaired
// chain with zero acknowledged writes lost, and later placements never
// select the dead server again.
func TestChaosChainRepairAfterHeadKill(t *testing.T) {
	inj := faultinject.New(808, nil)
	vclock := clock.NewVirtual(time.Unix(0, 0))
	cfg := recoveryConfig()
	cluster := chaosCluster(t, inj, cfg, ClusterOptions{
		Servers: 4, BlocksPerServer: 16, Clock: vclock, DisableExpiry: true,
	})
	c, err := cluster.Connect(context.Background(),
		client.WithRetryPolicy(client.RetryPolicy{Limit: 6}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RegisterJob(context.Background(), "repair")
	m, _, err := c.CreatePrefix(context.Background(), "repair/t", nil, DSKV, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	chain := m.Blocks[0].Chain
	if len(chain) != 3 {
		t.Fatalf("chain = %+v, want 3 members", chain)
	}
	headAddr := chain[0].Server
	epochBefore := cluster.Controller.MembershipEpoch()
	kv, err := c.OpenKV(context.Background(), "repair/t")
	if err != nil {
		t.Fatal(err)
	}

	// One continuous write stream; the head dies at killAt, detection
	// runs at repairAt, and every write outside the outage window must
	// be acknowledged.
	const total, killAt, repairAt = 200, 100, 110
	headIdx := -1
	acked := make(map[string]string)
	for i := 0; i < total; i++ {
		if i == killAt {
			headIdx = killServer(t, cluster, inj, headAddr)
		}
		if i == repairAt {
			detectAndRepair(t, cluster, vclock, cfg, headIdx, headAddr)
		}
		key, val := fmt.Sprintf("k%04d", i), fmt.Sprintf("v%04d", i)
		err := kv.Put(context.Background(), key, []byte(val))
		switch {
		case err == nil:
			acked[key] = val
		case i < killAt || i >= repairAt:
			t.Fatalf("put %s outside the outage window failed: %v", key, err)
		case !errors.Is(err, core.ErrClosed) && !errors.Is(err, ErrTimeout):
			t.Fatalf("outage-window put %s failed with unclassified error: %v", key, err)
		}
	}
	if len(acked) < total-(repairAt-killAt) {
		t.Fatalf("only %d/%d writes acknowledged", len(acked), total)
	}

	// The chain is back at full width with the dead head spliced out.
	assertChainHealthy(t, cluster, "repair/t", 3, headAddr)
	if epoch := cluster.Controller.MembershipEpoch(); epoch <= epochBefore {
		t.Errorf("membership epoch %d did not advance past %d", epoch, epochBefore)
	}

	// Zero acknowledged writes lost: every acked key reads back with
	// the value that was acknowledged.
	for key, val := range acked {
		v, err := kv.Get(context.Background(), key)
		if err != nil || string(v) != val {
			t.Fatalf("acked write %s lost after head repair: %q, %v", key, v, err)
		}
	}

	// Subsequent placements never touch the dead server: a fresh
	// 4-chunk prefix (12 replica placements) lands only on survivors.
	m2, _, err := c.CreatePrefix(context.Background(), "repair/t2", nil, DSKV, 4, 0)
	if err != nil {
		t.Fatalf("post-repair create: %v", err)
	}
	for _, e := range m2.Blocks {
		for _, info := range e.Replicas() {
			if info.Server == headAddr {
				t.Fatalf("post-repair placement selected the dead server: %+v", e)
			}
		}
	}
	if stats := cluster.Controller.Stats(); stats.Servers != 3 {
		t.Errorf("dead server still in the allocator pool: %+v", stats)
	}
	t.Logf("acked=%d epoch %d→%d", len(acked), epochBefore,
		cluster.Controller.MembershipEpoch())
}

// assertChainMembersAgree checks the assumption that lets a replication
// hop travel without the chain: for every partition entry of path, each
// member's block holds exactly the chain the controller committed,
// under one generation shared by all of them. Returns the generations
// seen, one per entry.
func assertChainMembersAgree(t *testing.T, cluster *Cluster, path core.Path) []uint64 {
	t.Helper()
	open, err := cluster.Controller.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	byAddr := make(map[string]int, len(cluster.Servers))
	for i, srv := range cluster.Servers {
		byAddr[srv.Addr()] = i
	}
	var gens []uint64
	for _, e := range open.Map.Blocks {
		var entryGen uint64
		for i, member := range e.Chain {
			idx, ok := byAddr[member.Server]
			if !ok {
				t.Fatalf("chunk %d: member %v is on no cluster server", e.Chunk, member)
			}
			b, err := cluster.Servers[idx].Store().Get(member.ID)
			if err != nil {
				t.Fatalf("chunk %d: member %v: %v", e.Chunk, member, err)
			}
			chain, gen := b.ChainGen()
			if !slices.Equal(chain, e.Chain) {
				t.Fatalf("chunk %d: member %v holds chain %v, committed %v", e.Chunk, member, chain, e.Chain)
			}
			if i == 0 {
				entryGen = gen
			} else if gen != entryGen {
				t.Fatalf("chunk %d: member %v is at generation %d, the head at %d", e.Chunk, member, gen, entryGen)
			}
		}
		gens = append(gens, entryGen)
	}
	return gens
}

// TestChainMembersAgreeOnLayout: replication hops carry no chain — each
// member forwards along the one it was installed with — so every
// member of a generation must hold the same chain. Checked on freshly
// provisioned chains (generation 0) and again after a repair splice
// replaced a killed mid-chain member: survivors and the replacement
// alike hold the committed layout under the new generation, and a
// write propagates through it to the new tail.
func TestChainMembersAgreeOnLayout(t *testing.T) {
	inj := faultinject.New(909, nil)
	vclock := clock.NewVirtual(time.Unix(0, 0))
	cfg := recoveryConfig()
	cluster := chaosCluster(t, inj, cfg, ClusterOptions{
		Servers: 4, BlocksPerServer: 16, Clock: vclock, DisableExpiry: true,
	})
	ctx := context.Background()
	c, err := cluster.Connect(ctx, client.WithRetryPolicy(client.RetryPolicy{Limit: 6}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RegisterJob(ctx, "layout")
	m, _, err := c.CreatePrefix(ctx, "layout/t", nil, DSKV, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, gen := range assertChainMembersAgree(t, cluster, "layout/t") {
		if gen != 0 {
			t.Fatalf("fresh chain at generation %d, want 0", gen)
		}
	}
	kv, err := c.OpenKV(ctx, "layout/t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("k%02d", i), []byte("before")); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the middle member of the first chain: its survivors on both
	// sides must end up on the same spliced layout.
	mid := m.Blocks[0].Chain[1].Server
	midIdx := killServer(t, cluster, inj, mid)
	detectAndRepair(t, cluster, vclock, cfg, midIdx, mid)
	assertChainHealthy(t, cluster, "layout/t", 3, mid)
	repaired := 0
	for _, gen := range assertChainMembersAgree(t, cluster, "layout/t") {
		if gen > 0 {
			repaired++
		}
	}
	if repaired == 0 {
		t.Fatal("no chain moved to a new generation after the splice")
	}

	// The repaired chains replicate: every put reads back at the tail.
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("k%02d", i)
		if err := kv.Put(ctx, key, []byte("after")); err != nil {
			t.Fatalf("put %s through the repaired chain: %v", key, err)
		}
		if v, err := kv.Get(ctx, key); err != nil || string(v) != "after" {
			t.Fatalf("get %s at the repaired tail = %q, %v", key, v, err)
		}
	}
}

// loadFailingDial returns a cluster dial function that reaches every
// memory server through a forwarding proxy, which refuses LoadBlock
// while fail is set — the one step of a repair splice a
// connection-level injector cannot single out.
func loadFailingDial(t *testing.T, inj *faultinject.Injector, fail *atomic.Bool) func(string) (*rpc.Client, error) {
	upstream := rpc.NewPool(inj.Dial)
	t.Cleanup(upstream.Close)
	var mu sync.Mutex
	proxies := make(map[string]string) // server address → its proxy's
	return func(addr string) (*rpc.Client, error) {
		if !strings.Contains(addr, "-server-") {
			return inj.Dial(addr)
		}
		mu.Lock()
		defer mu.Unlock()
		if proxies[addr] == "" {
			proxy := rpc.NewServer(rpc.BytesHandler(func(ctx context.Context, _ *rpc.ServerConn, method uint16, payload []byte) ([]byte, error) {
				if method == proto.LoadBlock.ID && fail.Load() {
					return nil, errors.New("injected load failure")
				}
				up, err := upstream.Get(addr)
				if err != nil {
					return nil, err
				}
				return up.CallContext(ctx, method, payload)
			}), nil)
			bound, err := proxy.Listen("mem://proxy-of-" + strings.TrimPrefix(addr, "mem://"))
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { proxy.Close() })
			proxies[addr] = bound
		}
		return rpc.Dial(proxies[addr])
	}
}

// TestRepairNarrowsEverySurvivorWhenResyncFails: a splice fences the
// survivors onto the widened layout before the replacement is resynced.
// When the resync then fails the chain is committed at reduced width —
// and because hops carry no chain, the survivors must be re-switched to
// the narrow layout too, or the tail would keep forwarding to a
// replacement that no longer exists.
func TestRepairNarrowsEverySurvivorWhenResyncFails(t *testing.T) {
	inj := faultinject.New(910, nil)
	vclock := clock.NewVirtual(time.Unix(0, 0))
	cfg := recoveryConfig()
	var failLoad atomic.Bool
	opts := ClusterOptions{
		Config: cfg, Servers: 4, BlocksPerServer: 16, Clock: vclock, DisableExpiry: true,
		Dial: loadFailingDial(t, inj, &failLoad),
	}
	cluster, err := StartCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	ctx := context.Background()
	c, err := cluster.Connect(ctx, client.WithRetryPolicy(client.RetryPolicy{Limit: 6}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RegisterJob(ctx, "narrow")
	m, _, err := c.CreatePrefix(ctx, "narrow/t", nil, DSKV, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	kv, err := c.OpenKV(ctx, "narrow/t")
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(ctx, "k", []byte("before")); err != nil {
		t.Fatal(err)
	}

	failLoad.Store(true)
	mid := m.Blocks[0].Chain[1].Server
	midIdx := killServer(t, cluster, inj, mid)
	detectAndRepair(t, cluster, vclock, cfg, midIdx, mid)
	assertChainHealthy(t, cluster, "narrow/t", 2, mid)
	assertChainMembersAgree(t, cluster, "narrow/t")

	if err := kv.Put(ctx, "k", []byte("after")); err != nil {
		t.Fatalf("put through the narrowed chain: %v", err)
	}
	if v, err := kv.Get(ctx, "k"); err != nil || string(v) != "after" {
		t.Fatalf("get at the narrowed chain's tail = %q, %v", v, err)
	}
}

// TestChaosChainRepairAfterTailKillMidRead kills the TAIL of a
// 3-member chain in the middle of a read scan. Reads must keep
// answering throughout — first by falling back to the surviving
// upstream members, then, after one deterministic detection round
// replaces the tail, against the repaired full-width chain — with
// every acknowledged write intact and new writes replicating at full
// width again.
func TestChaosChainRepairAfterTailKillMidRead(t *testing.T) {
	inj := faultinject.New(909, nil)
	vclock := clock.NewVirtual(time.Unix(0, 0))
	cfg := recoveryConfig()
	cluster := chaosCluster(t, inj, cfg, ClusterOptions{
		Servers: 4, BlocksPerServer: 16, Clock: vclock, DisableExpiry: true,
	})
	c, err := cluster.Connect(context.Background(),
		client.WithRetryPolicy(client.RetryPolicy{Limit: 6}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RegisterJob(context.Background(), "tails")
	m, _, err := c.CreatePrefix(context.Background(), "tails/t", nil, DSKV, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	chain := m.Blocks[0].Chain
	if len(chain) != 3 {
		t.Fatalf("chain = %+v, want 3 members", chain)
	}
	tailAddr := chain[len(chain)-1].Server
	kv, err := c.OpenKV(context.Background(), "tails/t")
	if err != nil {
		t.Fatal(err)
	}
	const n = 80
	for i := 0; i < n; i++ {
		if err := kv.Put(context.Background(), fmt.Sprintf("k%d", i),
			[]byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	// One continuous read scan; the tail dies halfway through. Reads
	// were routed to the tail and must fall back to the surviving
	// upstream members without a single miss — synchronous chain
	// propagation means every member holds every acknowledged write.
	tailIdx := -1
	for i := 0; i < n; i++ {
		if i == n/2 {
			tailIdx = killServer(t, cluster, inj, tailAddr)
		}
		v, err := kv.Get(context.Background(), fmt.Sprintf("k%d", i))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("read continuity broken at k%d after tail kill: %q, %v", i, v, err)
		}
	}

	// One detection round replaces the tail and resyncs it from the
	// surviving tail-most member's snapshot.
	detectAndRepair(t, cluster, vclock, cfg, tailIdx, tailAddr)
	assertChainHealthy(t, cluster, "tails/t", 3, tailAddr)

	// The full dataset reads back through the repaired chain, and new
	// writes replicate at full width again.
	for i := 0; i < n; i++ {
		v, err := kv.Get(context.Background(), fmt.Sprintf("k%d", i))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("acked write k%d lost after tail repair: %q, %v", i, v, err)
		}
	}
	for i := n; i < n+20; i++ {
		if err := kv.Put(context.Background(), fmt.Sprintf("k%d", i),
			[]byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("post-repair put %d: %v", i, err)
		}
		v, err := kv.Get(context.Background(), fmt.Sprintf("k%d", i))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("post-repair read %d: %q, %v", i, v, err)
		}
	}
}

// drainWithConcurrentWrites runs kv puts on a goroutine for the whole
// duration of a DrainServer call and returns the migrated-entry count
// plus every write acknowledged while the drain ran. A write racing
// the drain may fail (the fence rejects it, the client's bounded
// retries exhaust before the repaired map is published) — that is the
// contract — but an ACKED write must never be lost, which is exactly
// the window the fence-before-snapshot ordering exists to close.
func drainWithConcurrentWrites(t *testing.T, c *Client, kv *client.KV,
	victim, keyPrefix string) (int, map[string]string) {
	t.Helper()
	acked := make(map[string]string)
	stop := make(chan struct{})
	done := make(chan struct{})
	var mu sync.Mutex
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("%s%04d", keyPrefix, i)
			val := fmt.Sprintf("dv%04d", i)
			if err := kv.Put(context.Background(), key, []byte(val)); err == nil {
				mu.Lock()
				acked[key] = val
				mu.Unlock()
			}
		}
	}()
	migrated, err := c.DrainServer(context.Background(), victim)
	close(stop)
	<-done
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return migrated, acked
}

// TestChaosDrainServerUnderLoad drains a healthy server through the
// client API while a write stream is live against it: every partition
// entry migrates off the drained server by snapshot, and no write
// acknowledged before OR DURING the drain is lost. The during-drain
// half is the load-bearing one — the splice fences the old chain
// (survivors switch generation, drained members are sealed) before
// the migration snapshot, so a write racing the drain either lands in
// the snapshot or is never acknowledged.
func TestChaosDrainServerUnderLoad(t *testing.T) {
	inj := faultinject.New(111, nil)
	vclock := clock.NewVirtual(time.Unix(0, 0))
	cfg := recoveryConfig()
	cluster := chaosCluster(t, inj, cfg, ClusterOptions{
		Servers: 4, BlocksPerServer: 16, Clock: vclock, DisableExpiry: true,
	})
	c, err := cluster.Connect(context.Background(),
		client.WithRetryPolicy(client.RetryPolicy{Limit: 6}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RegisterJob(context.Background(), "drain")
	m, _, err := c.CreatePrefix(context.Background(), "drain/t", nil, DSKV, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	chain := m.Blocks[0].Chain
	if len(chain) != 3 {
		t.Fatalf("chain = %+v, want 3 members", chain)
	}
	victim := chain[1].Server // drain a mid-chain member
	kv, err := c.OpenKV(context.Background(), "drain/t")
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	acked := make(map[string]string)
	for i := 0; i < n; i++ {
		key, val := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		if err := kv.Put(context.Background(), key, []byte(val)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		acked[key] = val
	}

	migrated, during := drainWithConcurrentWrites(t, c, kv, victim, "d")
	if migrated == 0 {
		t.Fatal("drain migrated no partition entries despite hosted replicas")
	}
	for k, v := range during {
		acked[k] = v
	}
	assertChainHealthy(t, cluster, "drain/t", 3, victim)
	if !cluster.Controller.ServerDead(victim) {
		t.Error("drained server still counted a live member")
	}
	// Zero acknowledged writes lost — including every write acked
	// while the drain was in flight.
	for key, val := range acked {
		v, err := kv.Get(context.Background(), key)
		if err != nil || string(v) != val {
			t.Fatalf("acked write %s lost across drain: %q, %v", key, v, err)
		}
	}
	// The repaired chain accepts new writes at full width.
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("post%d", i)
		if err := kv.Put(context.Background(), key, []byte(key)); err != nil {
			t.Fatalf("post-drain put %s: %v", key, err)
		}
	}
	// Draining the same server twice is a typed error, not a repeat.
	if _, err := c.DrainServer(context.Background(), victim); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second drain = %v, want ErrNotFound", err)
	}
	t.Logf("drained %s: %d entries migrated, %d writes acked mid-drain",
		victim, migrated, len(during))
}

// TestChaosDrainUnreplicatedUnderLoad drains the server hosting an
// UNREPLICATED block while a write stream is live. With no survivors,
// the migration has no fenced old chain to lean on: the sole replica
// itself must be sealed before the snapshot, so a write racing the
// drain is either captured by the snapshot or refused its ack — the
// seal is double-checked after the local apply. Every acknowledged
// write must read back through the migrated block.
func TestChaosDrainUnreplicatedUnderLoad(t *testing.T) {
	inj := faultinject.New(222, nil)
	vclock := clock.NewVirtual(time.Unix(0, 0))
	cfg := recoveryConfig()
	cfg.ChainLength = 1
	cluster := chaosCluster(t, inj, cfg, ClusterOptions{
		Servers: 3, BlocksPerServer: 16, Clock: vclock, DisableExpiry: true,
	})
	c, err := cluster.Connect(context.Background(),
		client.WithRetryPolicy(client.RetryPolicy{Limit: 6}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RegisterJob(context.Background(), "solo")
	m, _, err := c.CreatePrefix(context.Background(), "solo/t", nil, DSKV, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Blocks[0].Replicas()) != 1 {
		t.Fatalf("replicas = %+v, want an unreplicated block", m.Blocks[0].Replicas())
	}
	victim := m.Blocks[0].Info.Server
	kv, err := c.OpenKV(context.Background(), "solo/t")
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	acked := make(map[string]string)
	for i := 0; i < n; i++ {
		key, val := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		if err := kv.Put(context.Background(), key, []byte(val)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		acked[key] = val
	}

	migrated, during := drainWithConcurrentWrites(t, c, kv, victim, "d")
	if migrated == 0 {
		t.Fatal("drain migrated no partition entries despite hosting the sole replica")
	}
	for k, v := range during {
		acked[k] = v
	}
	assertChainHealthy(t, cluster, "solo/t", 1, victim)
	if !cluster.Controller.ServerDead(victim) {
		t.Error("drained server still counted a live member")
	}
	for key, val := range acked {
		v, err := kv.Get(context.Background(), key)
		if err != nil || string(v) != val {
			t.Fatalf("acked write %s lost across sole-replica drain: %q, %v", key, v, err)
		}
	}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("post%d", i)
		if err := kv.Put(context.Background(), key, []byte(key)); err != nil {
			t.Fatalf("post-drain put %s: %v", key, err)
		}
	}
	t.Logf("sole-replica drain of %s: %d entries migrated, %d writes acked mid-drain",
		victim, migrated, len(during))
}

// scrapeObs renders an obs registry and parses it back into a metric
// map, the same round trip an external scraper would perform.
func scrapeObs(r *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	return obs.ParsePrometheus(buf.Bytes())
}

// TestChaosTieringOverflowAndRecovery drives the cold-block tiering
// subsystem through its full lifecycle under a live write stream:
//
//  1. Overflow: a client fills servers well past the per-server memory
//     watermark. Every write is acknowledged — the overflow is absorbed
//     by demoting cold blocks to the persist tier, never by rejecting
//     writes — and once cooldowns lapse each server's resident bytes
//     drop back under the watermark.
//  2. Scale-to-zero: the workload goes idle; after the idle window
//     every block demotes and resident bytes hit exactly zero on every
//     server, with the tier metrics agreeing with a direct store scan.
//  3. Transparent rehydration: reads against demoted prefixes return
//     every value correctly — clients see latency, never an error.
//  4. Crash recovery: with all blocks re-demoted, one server is killed.
//     One deterministic detection round repairs its chains from the
//     persist-tier objects, and the full dataset — including every
//     block that lived on the dead server — reads back intact.
//
// Paced entirely on a virtual clock with TierScanPeriod=0: the test
// owns every demotion scan via TierTickNow, so it is deterministic and
// race-clean under -race.
func TestChaosTieringOverflowAndRecovery(t *testing.T) {
	inj := faultinject.New(303, nil)
	vclock := clock.NewVirtual(time.Unix(0, 0))
	cfg := recoveryConfig()
	cfg.ChainLength = 1
	cfg.MemoryWatermarkBytes = 96 * 1024 // 1.5 blocks' worth per server
	cfg.TierCooldown = 2 * time.Second
	cfg.TierIdleAfter = 4 * time.Second
	cfg.TierScanPeriod = 0 // scans are driven manually via TierTickNow
	cluster := chaosCluster(t, inj, cfg, ClusterOptions{
		Servers: 3, BlocksPerServer: 16, Clock: vclock, DisableExpiry: true,
	})
	c, err := cluster.Connect(context.Background(),
		client.WithRetryPolicy(client.RetryPolicy{Limit: 6}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RegisterJob(context.Background(), "tiering")

	tickAll := func(skip int) {
		t.Helper()
		for i, srv := range cluster.Servers {
			if i == skip {
				continue
			}
			if _, err := srv.TierTickNow(); err != nil {
				t.Fatalf("tier scan on server %d: %v", i, err)
			}
		}
	}

	// Phase 1 — overflow under a live write stream. 16 single-chunk
	// prefixes at ~33KB each is ~176KB/server against a 96KB watermark;
	// every put must be acknowledged.
	const prefixes, keysPer = 16, 32
	val := make([]byte, 1024)
	for i := range val {
		val[i] = byte(i)
	}
	kvs := make([]*client.KV, prefixes)
	for p := 0; p < prefixes; p++ {
		path := core.Path(fmt.Sprintf("tiering/p%02d", p))
		if _, _, err := c.CreatePrefix(context.Background(), path, nil, DSKV, 1, 0); err != nil {
			t.Fatalf("create %s: %v", path, err)
		}
		kv, err := c.OpenKV(context.Background(), path)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		kvs[p] = kv
		for k := 0; k < keysPer; k++ {
			if err := kv.Put(context.Background(), fmt.Sprintf("k%03d", k), val); err != nil {
				t.Fatalf("overflow write rejected (prefix %d key %d): %v", p, k, err)
			}
		}
		// Interleave demotion scans with the fill, as the worker would.
		vclock.Advance(300 * time.Millisecond)
		tickAll(-1)
	}

	// Once cooldowns lapse, pressure demotion pulls every server back
	// under its watermark.
	vclock.Advance(cfg.TierCooldown + time.Second)
	tickAll(-1)
	tiered := 0
	for i, srv := range cluster.Servers {
		if rb := srv.Store().ResidentBytes(); rb > cfg.MemoryWatermarkBytes {
			t.Fatalf("server %d resident bytes %d exceed watermark %d after scan",
				i, rb, cfg.MemoryWatermarkBytes)
		}
		tiered += srv.Store().TieredBlocks()
	}
	if tiered == 0 {
		t.Fatal("overflow absorbed no demotions despite exceeding every watermark")
	}

	// A hot subset keeps writing while scans run: hot blocks rehydrate
	// transparently on write and cold blocks absorb the pressure.
	for round := 0; round < 6; round++ {
		vclock.Advance(500 * time.Millisecond)
		tickAll(-1)
		for p := 0; p < 4; p++ {
			key := fmt.Sprintf("hot%d", round)
			if err := kvs[p].Put(context.Background(), key, val); err != nil {
				t.Fatalf("hot write rejected (prefix %d round %d): %v", p, round, err)
			}
		}
	}

	// Phase 2 — scale-to-zero: the workload goes idle, and after the
	// idle window every block demotes on every server.
	vclock.Advance(cfg.TierIdleAfter + cfg.TierCooldown + time.Second)
	tickAll(-1)
	totalTiered := 0
	for i, srv := range cluster.Servers {
		if rb := srv.Store().ResidentBytes(); rb != 0 {
			t.Fatalf("server %d resident bytes = %d after idle window, want 0", i, rb)
		}
		n := srv.Store().TieredBlocks()
		totalTiered += n
		m := scrapeObs(srv.Obs())
		if got := m["jiffy_blocks_tiered"]; got != float64(n) {
			t.Errorf("server %d jiffy_blocks_tiered = %v, store scan says %d", i, got, n)
		}
		if got := m["jiffy_store_resident_bytes"]; got != 0 {
			t.Errorf("server %d jiffy_store_resident_bytes = %v, want 0", i, got)
		}
		if m["jiffy_tier_demotions_total"] == 0 {
			t.Errorf("server %d reports zero demotions despite tiered blocks", i)
		}
	}
	if cm := scrapeObs(cluster.Controller.Obs()); cm["jiffy_ctrl_blocks_tiered"] != float64(totalTiered) {
		t.Errorf("controller tracks %v tiered blocks, servers hold %d",
			cm["jiffy_ctrl_blocks_tiered"], totalTiered)
	}

	// Phase 3 — transparent rehydration: reads against fully demoted
	// prefixes return every value, no client-visible errors.
	for _, p := range []int{4, 5} {
		for k := 0; k < keysPer; k++ {
			v, err := kvs[p].Get(context.Background(), fmt.Sprintf("k%03d", k))
			if err != nil || !bytes.Equal(v, val) {
				t.Fatalf("rehydrating read failed (prefix %d key %d): %d bytes, %v",
					p, k, len(v), err)
			}
		}
	}

	// Re-demote everything, then kill the server hosting one of the
	// tiered prefixes.
	vclock.Advance(cfg.TierIdleAfter + cfg.TierCooldown + time.Second)
	tickAll(-1)
	open, err := cluster.Controller.Open(core.Path("tiering/p06"))
	if err != nil {
		t.Fatal(err)
	}
	victim := open.Map.Blocks[0].Info.Server
	deadIdx := killServer(t, cluster, inj, victim)
	detectAndRepair(t, cluster, vclock, cfg, deadIdx, victim)

	// Phase 4 — every key of every prefix reads back: blocks on
	// survivors rehydrate in place, blocks on the dead server were
	// recovered from their persist-tier objects.
	for p := 0; p < prefixes; p++ {
		assertChainHealthy(t, cluster, core.Path(fmt.Sprintf("tiering/p%02d", p)), 1, victim)
		for k := 0; k < keysPer; k++ {
			v, err := kvs[p].Get(context.Background(), fmt.Sprintf("k%03d", k))
			if err != nil || !bytes.Equal(v, val) {
				t.Fatalf("acked write lost across tiered recovery (prefix %d key %d): %d bytes, %v",
					p, k, len(v), err)
			}
		}
		for r := 0; r < 6 && p < 4; r++ {
			v, err := kvs[p].Get(context.Background(), fmt.Sprintf("hot%d", r))
			if err != nil || !bytes.Equal(v, val) {
				t.Fatalf("hot write lost across tiered recovery (prefix %d round %d): %v", p, r, err)
			}
		}
	}
	cm := scrapeObs(cluster.Controller.Obs())
	if cm["jiffy_ctrl_tier_recoveries_total"] == 0 {
		t.Error("repair recovered no blocks from the persist tier")
	}
	if cm["jiffy_ctrl_blocks_tiered"] != 0 {
		t.Errorf("controller still tracks %v tiered blocks after full read-back",
			cm["jiffy_ctrl_blocks_tiered"])
	}
	t.Logf("tiered=%d at idle, ctrl recoveries=%v", totalTiered,
		cm["jiffy_ctrl_tier_recoveries_total"])
}
