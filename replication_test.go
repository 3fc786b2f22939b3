package jiffy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
)

// replicatedCluster boots a cluster with chain length 2 across three
// servers.
func replicatedCluster(t *testing.T) (*Cluster, *Client) {
	t.Helper()
	return replicatedClusterN(t, 2)
}

// replicatedClusterN boots a three-server cluster with the given chain
// length.
func replicatedClusterN(t *testing.T, chainLength int) (*Cluster, *Client) {
	t.Helper()
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	cfg.ChainLength = chainLength
	cluster, err := StartCluster(ClusterOptions{
		Config: cfg, Servers: 3, BlocksPerServer: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	c, err := cluster.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return cluster, c
}

func TestReplicatedKVEndToEnd(t *testing.T) {
	cluster, c := replicatedCluster(t)
	c.RegisterJob(context.Background(), "rj")
	m, _, err := c.CreatePrefix(context.Background(), "rj/t", nil, DSKV, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The map records a two-member chain with the head as Info.
	if len(m.Blocks) != 1 || len(m.Blocks[0].Chain) != 2 {
		t.Fatalf("chain = %+v", m.Blocks[0].Chain)
	}
	if m.Blocks[0].Chain[0] != m.Blocks[0].Info {
		t.Error("Info is not the chain head")
	}
	kv, err := c.OpenKV(context.Background(), "rj/t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := kv.Put(context.Background(), fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Reads are served by the tail — and must see every write (chain
	// propagation is synchronous).
	for i := 0; i < 50; i++ {
		v, err := kv.Get(context.Background(), fmt.Sprintf("k%d", i))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get k%d from tail = %q, %v", i, v, err)
		}
	}
	// Both replicas physically hold the data.
	counts := replicaLens(cluster, m.Blocks[0].Chain)
	if counts[0] != 50 || counts[1] != 50 {
		t.Errorf("replica entry counts = %v, want [50 50]", counts)
	}
}

// replicaLens finds each chain member's pair count across the
// cluster's blockstores.
func replicaLens(cluster *Cluster, chain core.ReplicaChain) []int {
	out := make([]int, len(chain))
	for i, member := range chain {
		for _, srv := range cluster.Servers {
			for _, b := range srv.Store().List() {
				if b.ID == member.ID {
					if res, err := b.Partition.Apply(core.OpUsage, nil); err == nil {
						_ = res
					}
					out[i] = partitionLen(b.Partition)
				}
			}
		}
	}
	return out
}

func partitionLen(p interface{ Bytes() int }) int {
	type lener interface{ Len() int }
	if l, ok := p.(lener); ok {
		return l.Len()
	}
	return -1
}

// TestReplicatedKVSplitResync fills a replicated KV store past one
// block so the controller must split: each split's ownership changes
// ride the chains as sequenced ops, and every new member pulls its
// pairs from the donor's tail, so every key reads back from the tails.
func TestReplicatedKVSplitResync(t *testing.T) {
	_, c := replicatedCluster(t)
	c.RegisterJob(context.Background(), "rj")
	if _, _, err := c.CreatePrefix(context.Background(), "rj/t", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	kv, _ := c.OpenKV(context.Background(), "rj/t")
	val := bytes.Repeat([]byte("r"), 1024)
	const n = 200 // ~200KB against 64KB blocks: several splits
	for i := 0; i < n; i++ {
		if err := kv.Put(context.Background(), fmt.Sprintf("key-%03d", i), val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, err := kv.Get(context.Background(), fmt.Sprintf("key-%03d", i))
		if err != nil || !bytes.Equal(v, val) {
			t.Fatalf("get %d after splits: %v", i, err)
		}
	}
}

func TestReplicatedQueueAndFile(t *testing.T) {
	_, c := replicatedCluster(t)
	c.RegisterJob(context.Background(

	// Queue across replicated segments.
	), "rj")

	if _, _, err := c.CreatePrefix(context.Background(), "rj/q", nil, DSQueue, 1, 0); err != nil {
		t.Fatal(err)
	}
	q, _ := c.OpenQueue(context.Background(), "rj/q")
	item := bytes.Repeat([]byte("q"), 1024)
	for i := 0; i < 100; i++ {
		if err := q.Enqueue(context.Background(), append([]byte(fmt.Sprintf("%03d:", i)), item...)); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		got, err := q.Dequeue(context.Background())
		if err != nil || string(got[:4]) != fmt.Sprintf("%03d:", i) {
			t.Fatalf("dequeue %d = %q, %v", i, got[:4], err)
		}
	}

	// File across replicated chunks; reads come from the tails.
	if _, _, err := c.CreatePrefix(context.Background(), "rj/f", nil, DSFile, 1, 0); err != nil {
		t.Fatal(err)
	}
	f, _ := c.OpenFile(context.Background(), "rj/f")
	payload := bytes.Repeat([]byte("f"), 150*1024) // spans ~3 chunks
	if err := f.WriteAt(context.Background(), 0, payload); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadAt(context.Background(), 0, len(payload))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("file read back %d bytes, %v", len(got), err)
	}
}

// TestReplicatedFlushLoad verifies the checkpoint path uses the chain
// tail and restores full chains.
func TestReplicatedFlushLoad(t *testing.T) {
	_, c := replicatedCluster(t)
	c.RegisterJob(context.Background(), "rj")
	c.CreatePrefix(context.Background(), "rj/t", nil, DSKV, 1, 0)
	kv, _ := c.OpenKV(context.Background(), "rj/t")
	kv.Put(context.Background(), "persist", []byte("me"))
	if _, err := c.FlushPrefix(context.Background(), "rj/t", "ckpt/repl"); err != nil {
		t.Fatal(err)
	}
	kv.Put(context.Background(), "persist", []byte("dirty"))
	if err := c.LoadPrefix(context.Background(), "rj/t", "ckpt/repl"); err != nil {
		t.Fatal(err)
	}
	kv2, _ := c.OpenKV(context.Background(), "rj/t")
	v, err := kv2.Get(context.Background(), "persist")
	if err != nil || string(v) != "me" {
		t.Fatalf("restored = %q, %v", v, err)
	}
}

// TestChainSpreadAcrossServers checks the allocator's least-loaded
// placement puts chain members on distinct servers when possible.
func TestChainSpreadAcrossServers(t *testing.T) {
	_, c := replicatedCluster(t)
	c.RegisterJob(context.Background(), "rj")
	m, _, err := c.CreatePrefix(context.Background(), "rj/t", nil, DSKV, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Blocks {
		if len(e.Chain) != 2 {
			t.Fatalf("chain length = %d", len(e.Chain))
		}
		if e.Chain[0].Server == e.Chain[1].Server {
			t.Errorf("chain members co-located on %s", e.Chain[0].Server)
		}
	}
}

// scaleSignalsSent sums jiffy_server_scale_signals_total{result="sent"}
// over the cluster's servers.
func scaleSignalsSent(cluster *Cluster) float64 {
	var n float64
	for _, srv := range cluster.Servers {
		n += scrapeObs(srv.Obs())[`jiffy_server_scale_signals_total{result="sent"}`]
	}
	return n
}

// TestOnlyHeadSignals: a file chunk on a chain of 3 that fills past the
// high threshold costs the control plane exactly one ScaleUp — the
// head's. The replicas hold the same bytes but do not evaluate the
// thresholds, and overwriting the full chunk in place does not signal
// again: the answered signal leaves the latch set while usage stays
// past the threshold.
func TestOnlyHeadSignals(t *testing.T) {
	cluster, c := replicatedClusterN(t, 3)
	ctx := context.Background()
	c.RegisterJob(ctx, "rj")
	if _, _, err := c.CreatePrefix(ctx, "rj/f", nil, DSFile, 1, 0); err != nil {
		t.Fatal(err)
	}
	f, err := c.OpenFile(ctx, "rj/f")
	if err != nil {
		t.Fatal(err)
	}
	const ctrlScaleUps = "jiffy_ctrl_scale_ups_total"
	base := scrapeObs(cluster.Controller.Obs())[ctrlScaleUps]

	chunk := bytes.Repeat([]byte("h"), 64*core.KB) // the whole first chunk
	if err := f.WriteAt(ctx, 0, chunk); err != nil {
		t.Fatal(err)
	}
	// The signal travels on the head's worker; wait for the growth.
	deadline := time.Now().Add(5 * time.Second)
	for scrapeObs(cluster.Controller.Obs())[ctrlScaleUps] < base+1 {
		if time.Now().After(deadline) {
			t.Fatal("the head never signalled the full chunk")
		}
		time.Sleep(time.Millisecond)
	}
	if open, err := cluster.Controller.Open("rj/f"); err != nil || len(open.Map.Blocks) != 2 {
		t.Fatalf("file did not grow by one chunk: %d blocks, %v", len(open.Map.Blocks), err)
	}

	for i := 0; i < 100; i++ {
		if err := f.WriteAt(ctx, 0, chunk); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}
	// Signals are queued before a write is acknowledged, so a stale one
	// would be on its way by now; give the workers time to deliver it.
	time.Sleep(100 * time.Millisecond)
	if got := scrapeObs(cluster.Controller.Obs())[ctrlScaleUps] - base; got != 1 {
		t.Errorf("%s advanced by %g over one growth and 100 overwrites, want 1", ctrlScaleUps, got)
	}
	if got := scaleSignalsSent(cluster); got != 1 {
		t.Errorf("servers sent %g scale signals, want 1 (the head's)", got)
	}
}

// TestChainRefusalLeavesNoGap: on a chain of 3, the middle replica
// alone disowns half its slots (a SlotOwnership call sent to it rather
// than to the head), as members deciding ownership each on their own
// clock would. A put in that half is applied by the head
// and refused by the middle, which has consumed its seq: it forwards a
// skip in its place, so the tail's stream has no gap. The put fails
// typed, a put in the other half is acknowledged within a second, and
// the cluster shuts down. Without the skip the tail waits forever for
// the refused seq, every later put parks behind it, and Close hangs.
func TestChainRefusalLeavesNoGap(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	cfg.ChainLength = 3
	cluster, err := StartCluster(ClusterOptions{Config: cfg, Servers: 3, BlocksPerServer: 16})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			go cluster.Close() // it may hang: that is the failure reported
		}
	}()
	ctx := context.Background()
	c, err := cluster.Connect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RegisterJob(ctx, "gap")
	m, _, err := c.CreatePrefix(ctx, "gap/kv", nil, DSKV, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	kv, err := c.OpenKV(ctx, "gap/kv")
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(ctx, "before", []byte("v")); err != nil {
		t.Fatal(err)
	}

	chain := m.Blocks[0].Chain
	if len(chain) != 3 {
		t.Fatalf("chain = %v, want 3 members", chain)
	}
	middle, err := rpc.Dial(chain[1].Server)
	if err != nil {
		t.Fatal(err)
	}
	defer middle.Close()
	half := m.NumSlots / 2
	disowned := []ds.SlotRange{{Lo: 0, Hi: half - 1}}
	if _, err := rpc.Invoke(ctx, middle, proto.SlotOwnership, proto.SlotOwnershipReq{Block: chain[1].ID, Ranges: disowned}); err != nil {
		t.Fatal(err)
	}
	keyIn := func(lo, hi int) string {
		for i := 0; ; i++ {
			if k := fmt.Sprintf("k%d", i); ds.SlotOf(k, m.NumSlots) >= lo && ds.SlotOf(k, m.NumSlots) <= hi {
				return k
			}
		}
	}

	inCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	err = kv.Put(inCtx, keyIn(0, half-1), []byte("refused"))
	cancel()
	if !errors.Is(err, core.ErrStaleEpoch) {
		t.Fatalf("put in the disowned range: %v, want ErrStaleEpoch", err)
	}
	outCtx, cancel := context.WithTimeout(ctx, time.Second)
	err = kv.Put(outCtx, keyIn(half, m.NumSlots-1), []byte("acked"))
	cancel()
	if err != nil {
		t.Fatalf("put outside the disowned range after the refusal: %v", err)
	}
	var refusals float64
	for _, srv := range cluster.Servers {
		refusals += scrapeObs(srv.Obs())["jiffy_server_hop_refusals_total"]
	}
	if refusals == 0 {
		t.Error("jiffy_server_hop_refusals_total = 0 after the middle refused a put")
	}

	done := make(chan struct{})
	go func() {
		cluster.Close()
		close(done)
	}()
	select {
	case <-done:
		closed = true
	case <-time.After(5 * time.Second):
		t.Fatal("Cluster.Close did not return within 5 s")
	}
}

// TestChain3KVSplitProbe: one client puts 8 000 keys of 128 B serially
// into a KV prefix on chains of 3 with 256 KiB blocks, so the prefix
// splits several times under the load. Every put is acknowledged and
// reads back, no chain member refused a hop (a split's disown is one
// sequenced op, so members never disagree on ownership), and the
// cluster closes. The whole probe is capped at 60 s. Before the disown
// was sequenced, members disowned each on their own and refused puts
// the head had applied; before refusals were skipped, that wedged the
// chain and Close hung.
func TestChain3KVSplitProbe(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	cfg.ChainLength = 3
	cfg.BlockSize = 256 * core.KB
	cluster, err := StartCluster(ClusterOptions{Config: cfg, Servers: 3, BlocksPerServer: 64})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			go cluster.Close() // it may hang: that is the failure reported
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := cluster.Connect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RegisterJob(ctx, "probe")
	if _, _, err := c.CreatePrefix(ctx, "probe/kv", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	kv, err := c.OpenKV(ctx, "probe/kv")
	if err != nil {
		t.Fatal(err)
	}
	const n = 8000
	val := func(i int) []byte {
		v := bytes.Repeat([]byte{'v'}, 128)
		copy(v, fmt.Sprint(i))
		return v
	}
	for i := 0; i < n; i++ {
		putCtx, cancel := context.WithTimeout(ctx, 8*time.Second)
		err := kv.Put(putCtx, fmt.Sprintf("probe-%05d", i), val(i))
		cancel()
		if err != nil {
			t.Fatalf("put %d of %d: %v", i, n, err)
		}
	}
	for i := 0; i < n; i++ {
		if v, err := kv.Get(ctx, fmt.Sprintf("probe-%05d", i)); err != nil || !bytes.Equal(v, val(i)) {
			t.Fatalf("get %d: %q, %v", i, v, err)
		}
	}
	if splits := scrapeObs(cluster.Controller.Obs())["jiffy_ctrl_scale_ups_total"]; splits < 2 {
		t.Errorf("the load split the prefix %g times, want several", splits)
	}
	for _, srv := range cluster.Servers {
		if got := scrapeObs(srv.Obs())["jiffy_server_hop_refusals_total"]; got != 0 {
			t.Errorf("%s: jiffy_server_hop_refusals_total = %g, want 0", srv.Addr(), got)
		}
	}

	done := make(chan struct{})
	go func() {
		cluster.Close()
		close(done)
	}()
	select {
	case <-done:
		closed = true
	case <-time.After(5 * time.Second):
		t.Fatal("Cluster.Close did not return within 5 s")
	}
}
