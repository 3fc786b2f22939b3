package jiffy_test

// Allocation gates for the single-op hot path, the batched path, the
// replicated 1 MiB file path, the control call and partition snapshots.
// Client and servers share the process (over mem://, or tcp loopback
// for the chain), so the measured count covers the whole round trip:
// request encode, wire framing, server dispatch, chain hops, response
// decode. The ceilings pin the pooled fast path — inline frames, frames
// decoded into connection storage at every size, recycled waiters and
// op scratch, borrowed response buffers — so a stray per-call
// allocation (a lost pooled buffer, a regrown channel, an escaping
// frame struct, a release closure) fails the test rather than quietly
// eroding the budget.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"jiffy"
	"jiffy/internal/core"
	"jiffy/internal/ds"
)

// skipUnderRace skips an allocation gate in a build whose pools are
// instrumented: under -race sync.Pool drops a quarter of all puts on
// purpose, and under -tags jiffydebug every pooled buffer is tracked in
// a map, so pooled-buffer ceilings do not hold.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if poolsInstrumented {
		t.Skip("pools are instrumented (-race or -tags jiffydebug)")
	}
}

func allocCluster(t *testing.T) *jiffy.Client {
	t.Helper()
	skipUnderRace(t)
	cfg := core.TestConfig()
	cfg.BlockSize = core.MB
	cfg.LeaseDuration = time.Hour
	cluster, err := jiffy.StartCluster(jiffy.ClusterOptions{
		Config: cfg, Servers: 1, BlocksPerServer: 64,
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
	return c
}

// TestKVPutSingleAllocs pins the put round trip. Keys are pre-written
// so the measured puts are steady-state overwrites, not hash-map
// growth: the server decodes into a pooled vector and the table copies
// the value into the bytes it already holds, so what is left is the
// client's copy of the key as argument 0 (4 objects when every put
// re-allocated its value and its vectors).
func TestKVPutSingleAllocs(t *testing.T) {
	c := allocCluster(t)
	c.RegisterJob(context.Background(), "allocs")
	if _, _, err := c.CreatePrefix(context.Background(), "allocs/kv", nil, jiffy.DSKV, 4, 0); err != nil {
		t.Fatal(err)
	}
	kv, err := c.OpenKV(context.Background(), "allocs/kv")
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 64)
	val := make([]byte, 128)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
		if err := kv.Put(context.Background(), keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		if err := kv.Put(context.Background(), keys[i%len(keys)], val); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("KV put: %.1f objects/op", allocs)
	if allocs > 1 {
		t.Fatalf("KV put single-op allocates %.1f objects/op, want <= 1", allocs)
	}
}

// TestKVGetSingleAllocs pins the get round trip: the server copies the
// value into its pooled response under the bucket lock, the client
// decodes into the caller's vector, and what is left is the client's
// copy of the key and the value the caller keeps (7 objects with a
// view, a result vector and a decode vector at each end).
func TestKVGetSingleAllocs(t *testing.T) {
	c := allocCluster(t)
	c.RegisterJob(context.Background(), "allocs")
	if _, _, err := c.CreatePrefix(context.Background(), "allocs/kv", nil, jiffy.DSKV, 4, 0); err != nil {
		t.Fatal(err)
	}
	kv, err := c.OpenKV(context.Background(), "allocs/kv")
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 64)
	val := make([]byte, 128)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
		if err := kv.Put(context.Background(), keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		v, err := kv.Get(context.Background(), keys[i%len(keys)])
		if err != nil || len(v) != len(val) {
			t.Fatalf("get: %d bytes, %v", len(v), err)
		}
		i++
	})
	t.Logf("KV get: %.1f objects/op", allocs)
	if allocs > 2 {
		t.Fatalf("KV get single-op allocates %.1f objects/op, want <= 2", allocs)
	}
}

// TestQueueEnqueueSingleAllocs pins the enqueue round trip: the item
// the segment stores is its one steady-state allocation. Segment growth
// amortizes across ops, so the ceiling carries a margin of one.
func TestQueueEnqueueSingleAllocs(t *testing.T) {
	c := allocCluster(t)
	c.RegisterJob(context.Background(), "allocs")
	if _, _, err := c.CreatePrefix(context.Background(), "allocs/q", nil, jiffy.DSQueue, 1, 0); err != nil {
		t.Fatal(err)
	}
	q, err := c.OpenQueue(context.Background(), "allocs/q")
	if err != nil {
		t.Fatal(err)
	}
	item := make([]byte, 64)
	allocs := testing.AllocsPerRun(300, func() {
		if err := q.Enqueue(context.Background(), item); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("queue enqueue: %.1f objects/op", allocs)
	if allocs > 2 {
		t.Fatalf("queue enqueue single-op allocates %.1f objects/op, want <= 2", allocs)
	}
}

// TestControlCallAllocs pins the control call on a 2-controller mem://
// cluster: one LeaseInfo and one RenewLease, both answered by the leader
// alone (a renewal is not an op-log entry), and one SetQuota on the job
// root, alternating between two values, which is applied, streamed to
// the standby as an op-log entry and acked before the answer, and
// pushed to the memory server. It covers both ends of every body and the
// standby's entry decode, so a codec that rebuilds per-message state
// fails here, and so does a control call that leaves garbage: bodies
// encoded into new buffers, a per-call copy of an answer or of a
// goroutine-path request, a path split into components, a slice header
// boxed per decode, op-log flush scratch built per flush, a request or
// answer moved to the heap per call, an op-log entry encoded from a
// heap box into a regrown buffer or decoded into a heap box. The three
// measure 13 objects, 16 with the entry encoded from a heap box into a
// new buffer and decoded into a heap box, 24 with a heap request and
// answer per call made as well, 32 with them per call served too. The
// LeaseInfo + RenewLease pair alone measures 4 objects; 12 with a heap
// request and answer per call made, 25 when each renewal was an op-log
// entry, 72 when every body had a buffer of its own and paths were
// split, 78 when every control request got a new goroutine rather than
// its connection's parked worker, and 1 634 with a gob encoder per
// message. The ceiling carries a margin over the steady state.
func TestControlCallAllocs(t *testing.T) {
	skipUnderRace(t)
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	cluster, err := jiffy.StartCluster(jiffy.ClusterOptions{
		Config: cfg, Controllers: 2, Servers: 1, BlocksPerServer: 8,
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
	if err := c.RegisterJob(ctx, "ctl"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.CreatePrefix(ctx, "ctl/t", nil, jiffy.DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	quotas := [2]jiffy.Quota{{OpsPerSec: 1000}, {OpsPerSec: 2000}}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		if _, err := c.LeaseDuration(ctx, "ctl/t"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RenewLease(ctx, "ctl/t"); err != nil {
			t.Fatal(err)
		}
		if err := c.SetQuota(ctx, "ctl", quotas[i%2]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 19 {
		t.Fatalf("LeaseInfo + RenewLease + SetQuota allocate %.1f objects, want <= 19", allocs)
	}
}

// TestCreateHierarchyAllocs pins a short job's control-plane commits on
// a 2-controller mem:// cluster, where every node commit is an op-log
// entry encoded on the leader and applied on the standby: register a
// job, build an 8-node DAG (a fan-out of four tasks under one stage,
// joined by two tasks of two parents each, and a last task under both),
// create a KV prefix and remove it, deregister the job. A node is made
// from the parent nodes already looked up, the leader encodes each entry
// once from the node itself into a reused buffer, and the standby
// decodes each into one box, so the round measures 224 objects; it
// measured 346 with a path built, extended and resolved again per node
// on both members, every leaf's empty child index, an image copied per
// node commit and a heap entry per encode and per decode. The ceiling
// carries a margin over the steady state.
func TestCreateHierarchyAllocs(t *testing.T) {
	skipUnderRace(t)
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	cluster, err := jiffy.StartCluster(jiffy.ClusterOptions{
		Config: cfg, Controllers: 2, Servers: 1, BlocksPerServer: 8,
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
	dag := []jiffy.DagNode{
		{Name: "s0"},
		{Name: "m0", Parents: []string{"s0"}}, {Name: "m1", Parents: []string{"s0"}},
		{Name: "m2", Parents: []string{"s0"}}, {Name: "m3", Parents: []string{"s0"}},
		{Name: "j0", Parents: []string{"m0", "m1"}}, {Name: "j1", Parents: []string{"m2", "m3"}},
		{Name: "out", Parents: []string{"j0", "j1"}},
	}
	const runs = 200
	jobs := make([]core.JobID, runs+1)
	kvs := make([]core.Path, runs+1)
	for i := range jobs {
		jobs[i] = core.JobID(fmt.Sprintf("dag%d", i))
		kvs[i] = core.Path(jobs[i]).MustChild("kv")
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		job := jobs[i]
		if err := c.RegisterJob(ctx, job); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateHierarchy(ctx, job, dag, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.CreatePrefix(ctx, kvs[i], nil, jiffy.DSKV, 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.RemovePrefix(ctx, kvs[i]); err != nil {
			t.Fatal(err)
		}
		if err := c.DeregisterJob(ctx, job); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 232 {
		t.Fatalf("a short job's control-plane commits allocate %.1f objects, want <= 232", allocs)
	}
}

// TestFileWrite1MChain3AllocBytes is the allocation gate for the
// replicated write and read paths: on three tcp-loopback servers, a
// 1 MiB WriteAt through a chain of 3 must not allocate payload-sized
// memory anywhere in the process. The client sends its buffer as
// scatter-gather segments, each server reads the request into a
// recycled large-class frame (wire.ReadFramePooled) decoded into its
// connection's frame, applies from it straight into block memory, and
// forwards the same bytes as a vectored hop built in its pooled scratch
// — so the steady state is a few hundred bytes of bookkeeping per
// member. The ceiling is 0.5 MB per write with frame recycling kept, as
// it is; without it each member's inbound frame would put the figure at
// 3.2 MB, and with the old gob hop at 11.7 MB. The objects are pinned
// too. A write measures 3.3–3.8 objects: the client's request vector,
// its copy of the answer and the vector it decodes it into, and
// background work (9.4 with a frame object per member and a segment
// vector per hop and per request, 15.3–15.5 with a result object per
// member too); the ceiling is 4.5. A 1 MiB ReadAt from the tail, served
// as a view, measures 1.2–1.5: the result, plus a share of background
// work (7.3–7.4 with a frame object at the client, a ds.U64 per integer
// argument, and the server's segment vector, lease method value and
// release closure); the ceiling is the result plus one. The read leg
// runs with the collector off: each result is a megabyte, so
// collections would come every few reads, and each empties every
// sync.Pool, whose refill costs objects that track the heap's size, not
// the read path.
func TestFileWrite1MChain3AllocBytes(t *testing.T) {
	const maxChainWriteObjects, maxChainReadObjects = 4.5, 2
	skipUnderRace(t)
	cfg := core.TestConfig()
	cfg.BlockSize = 4 * core.MB
	cfg.ChainLength = 3
	cfg.LeaseDuration = time.Hour
	cluster, err := jiffy.StartCluster(jiffy.ClusterOptions{
		Config: cfg, Transport: "tcp", Servers: 3, BlocksPerServer: 8,
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
	c.RegisterJob(ctx, "allocs")
	if _, _, err := c.CreatePrefix(ctx, "allocs/f", nil, jiffy.DSFile, 1, 0); err != nil {
		t.Fatal(err)
	}
	f, err := c.OpenFile(ctx, "allocs/f")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, core.MB)
	write := func(i int) {
		if err := f.WriteAt(ctx, i%4*core.MB, body); err != nil {
			t.Fatal(err)
		}
	}
	read := func(i int) {
		if got, err := f.ReadAt(ctx, i%4*core.MB, core.MB); err != nil || len(got) != core.MB {
			t.Fatalf("ReadAt: %d bytes, %v", len(got), err)
		}
	}
	// Warm-up: fill the chunk (one real scale-up), dial the chain's
	// sessions and the tail's, put one frame per member into the pool.
	for i := 0; i < 16; i++ {
		write(i)
		read(i)
	}
	const writes = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < writes; i++ {
		write(i)
	}
	runtime.ReadMemStats(&after)
	perWrite := (after.TotalAlloc - before.TotalAlloc) / writes
	objects := float64(after.Mallocs-before.Mallocs) / writes
	t.Logf("%d bytes, %.1f objects allocated per 1 MiB chain-3 write", perWrite, objects)
	if perWrite > core.MB/2 {
		t.Fatalf("1 MiB chain-3 write allocates %d bytes, want <= %d", perWrite, core.MB/2)
	}
	if objects > maxChainWriteObjects {
		t.Fatalf("1 MiB chain-3 write allocates %.1f objects, want <= %.1f", objects, maxChainWriteObjects)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.ReadMemStats(&before)
	for i := 0; i < writes; i++ {
		read(i)
	}
	runtime.ReadMemStats(&after)
	objects = float64(after.Mallocs-before.Mallocs) / writes
	t.Logf("%.1f objects allocated per 1 MiB chain-3 read", objects)
	if objects > maxChainReadObjects {
		t.Fatalf("1 MiB chain-3 read allocates %.1f objects, want <= %d: its result and one more", objects, maxChainReadObjects)
	}
}

// TestBatchAllocs pins the batched path on one mem:// server: a file
// AppendBatch of 64 × 100 B records and a KV MultiGet of 64 keys, each a
// whole in-process round trip. An AppendBatch is one append op, a run
// of its records: the client encodes it into a pooled buffer and reads
// the answer, the run's first offset and length, in place from the
// borrowed response; the server decodes it into a pooled vector, lands
// the run under one chunk lock hold and encodes its two integers. The
// chunk grows through the large-buffer pool, so an append's record
// costs no object, and an AppendBatch pays per call, not per record:
// 256 records cost what 64 do. MultiGet's frame is decoded into pooled
// vectors at both ends, and a get is copied into the batch response
// under its bucket lock, so it pays only per call too. A request past
// the inline threshold reaches the server in a recycled frame decoded
// into the connection's frame, so it costs no object there. Measured
// steady states: AppendBatch 1 object per call — the caller's offsets
// (2 with a frame object per request past the inline threshold, 3 as a
// batch frame of one-record appends, 9 with per-call vectors, 78 with
// a one-object integer result per append and fresh vectors per frame
// at both ends, 271 with a vector per op too); MultiGet 4 (5 with a
// frame object, 146 with a key string and a one-value view per get,
// 401 with the vectors too). The ceilings carry a small margin.
func TestBatchAllocs(t *testing.T) {
	c := allocCluster(t)
	ctx := context.Background()
	c.RegisterJob(ctx, "allocs")

	// appendAllocs measures AppendBatch of n × 100 B records over runs
	// calls into a fresh file; runs+1 calls stay inside the 1 MiB
	// chunk, so no call scales up.
	files := 0
	appendAllocs := func(t *testing.T, n, runs int) float64 {
		files++
		path := core.Path(fmt.Sprintf("allocs/f%d", files))
		if _, _, err := c.CreatePrefix(ctx, path, nil, jiffy.DSFile, 1, 0); err != nil {
			t.Fatal(err)
		}
		f, err := c.OpenFile(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		records := make([][]byte, n)
		for i := range records {
			records[i] = make([]byte, 100)
		}
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := f.AppendBatch(ctx, records); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("AppendBatch of %d x 100 B: %.1f objects/call", n, allocs)
		return allocs
	}

	t.Run("AppendBatch", func(t *testing.T) {
		if allocs := appendAllocs(t, 64, 100); allocs > 2 {
			t.Fatalf("AppendBatch of 64 records allocates %.1f objects, want <= 2", allocs)
		}
	})

	t.Run("AppendBatchPerCall", func(t *testing.T) {
		small, large := appendAllocs(t, 64, 30), appendAllocs(t, 256, 30)
		if large > small+2 || large < small-2 {
			t.Fatalf("AppendBatch allocates %.1f objects for 256 records and %.1f for 64, want within 2", large, small)
		}
	})

	// A redirected suffix: each measured call goes to its own file,
	// whose full first chunk the server has linked to the second; the
	// handle has not seen the second, so the call's first 15 records
	// land in the first chunk and the other 49 are redirected and land
	// in the second, whose buffer another handle's record has already
	// taken. The suffix is sent twice — refused with the redirect, then
	// landed — and each request costs its frame, what the plain call's
	// one request costs less its offsets vector. The redirect costs at
	// most 2 objects more: the typed redirect and its server name. The
	// refusal's message is not copied: core.ErrOf reads a plain
	// sentinel's payload not at all.
	// Measured: 3 objects, 1 for the plain call, whose requests' frames
	// cost none; 6 and 2 with a frame object per request, 7 when the rpc
	// layer copied the message into a string; 8 and 3 as batch frames of
	// one-record appends, 108 when every redirected op there parsed its
	// own redirect.
	t.Run("AppendBatchRedirected", func(t *testing.T) {
		plain := appendAllocs(t, 64, 100)
		cfg := core.TestConfig()
		cfg.LeaseDuration = time.Hour
		cluster, err := jiffy.StartCluster(jiffy.ClusterOptions{Config: cfg, Servers: 1, BlocksPerServer: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		rc, err := cluster.Connect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		rc.RegisterJob(ctx, "linked")
		records := make([][]byte, 64)
		for i := range records {
			records[i] = make([]byte, 100)
		}
		const runs = 30
		files := make([]*jiffy.File, runs+1) // AllocsPerRun warms up with one call
		for i := range files {
			path := core.Path(fmt.Sprintf("linked/f%d", i))
			if _, _, err := rc.CreatePrefix(ctx, path, nil, jiffy.DSFile, 1, 0); err != nil {
				t.Fatal(err)
			}
			if files[i], err = rc.OpenFile(ctx, path); err != nil {
				t.Fatal(err)
			}
			// 640 of the 655 records a 64 KiB chunk holds: past the high
			// threshold, so the chunk signals and is linked.
			for b := 0; b < 10; b++ {
				if _, err := files[i].AppendBatch(ctx, records); err != nil {
					t.Fatal(err)
				}
			}
			probe, err := rc.OpenFile(ctx, path)
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				if n, err := probe.Chunks(ctx); err == nil && n == 2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the full chunk was never grown")
				}
			}
			if err := probe.WriteAt(ctx, cfg.BlockSize, records[0]); err != nil {
				t.Fatal(err)
			}
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			offs, err := files[next].AppendBatch(ctx, records)
			if err != nil {
				t.Fatal(err)
			}
			if offs[63] < cfg.BlockSize {
				t.Fatalf("record 63 landed at %d, in the first chunk", offs[63])
			}
			next++
		})
		t.Logf("AppendBatch of 64 x 100 B with a redirected suffix: %.1f objects/call, %.1f without", allocs, plain)
		if frame := plain - 1; allocs > plain+2*frame+2 {
			t.Fatalf("a redirected suffix costs %.1f objects over a plain call and its two requests' frames (%.1f each), want <= 2",
				allocs-plain-2*frame, frame)
		}
	})

	t.Run("MultiGet", func(t *testing.T) {
		if _, _, err := c.CreatePrefix(ctx, "allocs/kv", nil, jiffy.DSKV, 4, 0); err != nil {
			t.Fatal(err)
		}
		kv, err := c.OpenKV(ctx, "allocs/kv")
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 64)
		val := make([]byte, 128)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%03d", i)
			if err := kv.Put(ctx, keys[i], val); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(300, func() {
			if _, err := kv.MultiGet(ctx, keys); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("MultiGet of 64 keys: %.1f objects/call", allocs)
		if allocs > 11 {
			t.Fatalf("MultiGet of 64 keys allocates %.1f objects, want <= 11", allocs)
		}
	})
}

// TestRefusedAppendAllocs: an append or write that does not fit its
// chunk is refused with an error built once — both wire forms of an
// error (ds.ErrResult) carry only its code, so a message formatted per
// refusal was dropped unread — so the refusal allocates nothing on the
// server's path, still reads as core.ErrBlockFull, and still makes the
// client grow the file.
func TestRefusedAppendAllocs(t *testing.T) {
	chunk := ds.NewFile(64)
	if _, err := chunk.Append(make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 10)
	out := make([]byte, 0, 16)
	for _, c := range []struct {
		name string
		op   core.OpType
		args [][]byte
	}{
		{"append", core.OpFileAppend, [][]byte{rec}},
		{"write", core.OpFileWrite, [][]byte{ds.U64(60), rec}},
	} {
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			_, _, err = ds.AppendAnswer(chunk, out, c.op, c.args)
		})
		if !errors.Is(err, core.ErrBlockFull) {
			t.Errorf("refused %s: %v, want ErrBlockFull", c.name, err)
		}
		if allocs != 0 {
			t.Errorf("refused %s allocates %.1f objects, want 0", c.name, allocs)
		}
	}

	// 4 KiB records into 64 KiB chunks: the 17th is refused by the
	// first chunk, and the client grows the file for it.
	cfg := core.TestConfig()
	cfg.BlockSize = 64 * core.KB
	cfg.LeaseDuration = time.Hour
	cluster, err := jiffy.StartCluster(jiffy.ClusterOptions{Config: cfg, Servers: 1, BlocksPerServer: 8})
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
	c.RegisterJob(ctx, "refused")
	if _, _, err := c.CreatePrefix(ctx, "refused/f", nil, jiffy.DSFile, 1, 0); err != nil {
		t.Fatal(err)
	}
	f, err := c.OpenFile(ctx, "refused/f")
	if err != nil {
		t.Fatal(err)
	}
	record := make([]byte, 4*core.KB)
	var off int
	for i := 0; i <= 16; i++ {
		record[0] = byte(i)
		if off, err = f.Append(ctx, record); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if chunks, err := f.Chunks(ctx); err != nil || chunks != 2 || off != 64*core.KB {
		t.Fatalf("after a refused append: %d chunks (%v), last record at %d; want 2 chunks, at %d", chunks, err, off, 64*core.KB)
	}
	if got, err := f.ReadAt(ctx, off, len(record)); err != nil || !bytes.Equal(got, record) {
		t.Fatalf("record after the refusal: %d bytes, %v", len(got), err)
	}
}

// TestChunkLifecycleAllocBytes pins where a file chunk's memory comes
// from: the large-buffer pool. A chunk grows through it, gives back
// what it outgrows, and gives all of it back when its block is deleted,
// so once warm, filling a 256 KiB chunk and removing its file costs the
// control calls, the writes' framing and the odd buffer the pool misses
// (a sync.Pool keeps one buffer per P out of the other Ps' reach), not
// the chunk. Measured: 16–38 KB per chunk, 530 KB — a fresh 256 KiB
// plus every smaller doubling — when a chunk grew with make and was
// dropped to the collector. The ceiling is half a chunk.
func TestChunkLifecycleAllocBytes(t *testing.T) {
	const chunk = 256 * core.KB
	skipUnderRace(t)
	cfg := core.TestConfig()
	cfg.BlockSize = chunk
	cfg.LeaseDuration = time.Hour
	cluster, err := jiffy.StartCluster(jiffy.ClusterOptions{Config: cfg, Servers: 1, BlocksPerServer: 8})
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
	c.RegisterJob(ctx, "chunks")
	record := make([]byte, 8*core.KB)
	cycle := func(i int) {
		path := core.Path(fmt.Sprintf("chunks/f%d", i))
		if _, _, err := c.CreatePrefix(ctx, path, nil, jiffy.DSFile, 1, 0); err != nil {
			t.Fatal(err)
		}
		f, err := c.OpenFile(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		// Appends grow the chunk through every class, as a shuffle does.
		for off := 0; off < chunk; off += len(record) {
			if err := f.WriteAt(ctx, off, record); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.RemovePrefix(ctx, path); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // warm-up: one buffer per class in the pool
		cycle(i)
	}
	const chunks = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < chunks; i++ {
		cycle(4 + i)
	}
	runtime.ReadMemStats(&after)
	perChunk := (after.TotalAlloc - before.TotalAlloc) / chunks
	t.Logf("%d bytes allocated per 256 KiB chunk filled and deleted", perChunk)
	if perChunk > chunk/2 {
		t.Fatalf("a 256 KiB chunk's lifecycle allocates %d bytes, want <= %d", perChunk, chunk/2)
	}
}

// TestSnapshotAllocs pins Snapshot+Restore of a partition, the step
// every demotion, rehydration, drain and chain fill runs. A snapshot is
// one codec message: a 1 MiB file chunk costs its buffer, its one
// decoded copy and a few fixed objects, and an empty queue segment (what
// every demotion restores to release memory) a handful. A per-item or
// per-field allocation in the snapshot format fails here.
func TestSnapshotAllocs(t *testing.T) {
	skipUnderRace(t)
	file := ds.NewFile(core.MB)
	if _, err := file.WriteAt(0, make([]byte, core.MB)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		p       ds.Partition
		ceiling float64
	}{
		{"File 1 MiB", file, 7},
		{"empty Queue", ds.NewQueue(core.MB), 4},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			snap, err := c.p.Snapshot()
			if err == nil {
				err = c.p.Restore(snap)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f objects per Snapshot+Restore", c.name, allocs)
		if allocs > c.ceiling {
			t.Errorf("%s: Snapshot+Restore allocates %.1f objects, want <= %.0f", c.name, allocs, c.ceiling)
		}
	}
}
