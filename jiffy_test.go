package jiffy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"jiffy/internal/core"
)

// testCluster boots a small cluster with leases long enough that
// nothing expires unless a test wants it to.
func testCluster(t *testing.T, servers, blocksPerServer int) (*Cluster, *Client) {
	t.Helper()
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	cluster, err := StartCluster(ClusterOptions{
		Config:          cfg,
		Servers:         servers,
		BlocksPerServer: blocksPerServer,
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

func TestKVEndToEnd(t *testing.T) {
	_, c := testCluster(t, 2, 32)
	if err := c.RegisterJob(context.Background(), "job1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.CreatePrefix(context.Background(), "job1/t1", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	kv, err := c.OpenKV(context.Background(), "job1/t1")
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(context.Background(), "greeting", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, err := kv.Get(context.Background(), "greeting")
	if err != nil || string(v) != "hello" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	ok, err := kv.Exists(context.Background(), "greeting")
	if err != nil || !ok {
		t.Errorf("Exists = %v, %v", ok, err)
	}
	old, err := kv.Update(context.Background(), "greeting", []byte("bonjour"))
	if err != nil || string(old) != "hello" {
		t.Errorf("Update = %q, %v", old, err)
	}
	del, err := kv.Delete(context.Background(), "greeting")
	if err != nil || string(del) != "bonjour" {
		t.Errorf("Delete = %q, %v", del, err)
	}
	if _, err := kv.Get(context.Background(), "greeting"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete = %v", err)
	}
}

// TestKVElasticSplit fills the store far beyond one block so splits
// must happen, then verifies every pair survives — the §3.3 elastic
// scaling path end to end.
func TestKVElasticSplit(t *testing.T) {
	cluster, c := testCluster(t, 2, 64)
	if err := c.RegisterJob(context.Background(), "job1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.CreatePrefix(context.Background(), "job1/t1", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	kv, err := c.OpenKV(context.Background(), "job1/t1")
	if err != nil {
		t.Fatal(err)
	}
	// 64KB blocks; write ~600KB so the store must split repeatedly.
	val := bytes.Repeat([]byte("x"), 1024)
	const n = 600
	for i := 0; i < n; i++ {
		if err := kv.Put(context.Background(), fmt.Sprintf("key-%04d", i), val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, err := kv.Get(context.Background(), fmt.Sprintf("key-%04d", i))
		if err != nil || !bytes.Equal(v, val) {
			t.Fatalf("get %d: len=%d err=%v", i, len(v), err)
		}
	}
	stats, err := c.ControllerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.AllocatedBlocks < 8 {
		t.Errorf("allocated blocks = %d; expected the store to have split many times",
			stats.AllocatedBlocks)
	}
	_ = cluster
}

func TestKVConcurrentClientsAcrossSplits(t *testing.T) {
	_, c := testCluster(t, 2, 64)
	c.RegisterJob(context.Background(), "job1")
	if _, _, err := c.CreatePrefix(context.Background(), "job1/t1", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kv, err := c.OpenKV(context.Background(), "job1/t1")
			if err != nil {
				errCh <- err
				return
			}
			val := bytes.Repeat([]byte{byte(g)}, 512)
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := kv.Put(context.Background(), key, val); err != nil {
					errCh <- fmt.Errorf("put %s: %w", key, err)
					return
				}
				got, err := kv.Get(context.Background(), key)
				if err != nil || !bytes.Equal(got, val) {
					errCh <- fmt.Errorf("get %s: %v", key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

func TestFileMultiChunk(t *testing.T) {
	_, c := testCluster(t, 2, 32)
	c.RegisterJob(context.Background(), "job1")
	if _, _, err := c.CreatePrefix(context.Background(), "job1/shuffle", nil, DSFile, 1, 0); err != nil {
		t.Fatal(err)
	}
	f, err := c.OpenFile(context.Background(), "job1/shuffle")
	if err != nil {
		t.Fatal(err)
	}
	// Write 300KB across 64KB chunks — requires ~5 blocks.
	payload := make([]byte, 300*1024)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	if _, err := f.Append(context.Background(), payload); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadAt(context.Background(), 0, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %d bytes, mismatch (want %d)", len(got), len(payload))
	}
	// Seek + sequential read.
	f.Seek(100 * 1024)
	part, err := f.Read(context.Background(), 1000)
	if err != nil || !bytes.Equal(part, payload[100*1024:100*1024+1000]) {
		t.Errorf("seek read mismatch: %d bytes, %v", len(part), err)
	}
	// Reading past EOF yields short data.
	tail, err := f.ReadAt(context.Background(), len(payload)-10, 100)
	if err != nil || len(tail) != 10 {
		t.Errorf("tail read = %d bytes, %v", len(tail), err)
	}
}

func TestQueueAcrossSegments(t *testing.T) {
	_, c := testCluster(t, 2, 64)
	c.RegisterJob(context.Background(), "job1")
	if _, _, err := c.CreatePrefix(context.Background(), "job1/chan", nil, DSQueue, 1, 0); err != nil {
		t.Fatal(err)
	}
	q, err := c.OpenQueue(context.Background(), "job1/chan")
	if err != nil {
		t.Fatal(err)
	}
	// Each item 1KB; 64KB segments; 300 items spans ~5 segments.
	const n = 300
	for i := 0; i < n; i++ {
		item := append([]byte(fmt.Sprintf("item-%04d-", i)), bytes.Repeat([]byte("q"), 1000)...)
		if err := q.Enqueue(context.Background(), item); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		item, err := q.Dequeue(context.Background())
		if err != nil {
			t.Fatalf("dequeue %d: %v", i, err)
		}
		want := fmt.Sprintf("item-%04d-", i)
		if string(item[:len(want)]) != want {
			t.Fatalf("dequeue %d = %q...", i, item[:len(want)])
		}
	}
	if _, err := q.Dequeue(context.Background()); !errors.Is(err, ErrEmpty) {
		t.Errorf("dequeue on empty = %v", err)
	}
}

func TestQueueInterleavedProducerConsumer(t *testing.T) {
	_, c := testCluster(t, 1, 64)
	c.RegisterJob(context.Background(), "job1")
	if _, _, err := c.CreatePrefix(context.Background(), "job1/chan", nil, DSQueue, 1, 0); err != nil {
		t.Fatal(err)
	}
	prod, _ := c.OpenQueue(context.Background(), "job1/chan")
	cons, _ := c.OpenQueue(context.Background(), "job1/chan")
	done := make(chan struct{})
	const n = 500
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if err := prod.Enqueue(context.Background(), []byte(fmt.Sprintf("%d", i))); err != nil {
				t.Errorf("enqueue: %v", err)
				return
			}
		}
	}()
	got := 0
	deadline := time.Now().Add(10 * time.Second)
	for got < n && time.Now().Before(deadline) {
		item, err := cons.Dequeue(context.Background())
		if errors.Is(err, ErrEmpty) {
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatalf("dequeue: %v", err)
		}
		if string(item) != fmt.Sprintf("%d", got) {
			t.Fatalf("out of order: got %q want %d", item, got)
		}
		got++
	}
	<-done
	if got != n {
		t.Errorf("consumed %d of %d", got, n)
	}
}

func TestNotifications(t *testing.T) {
	_, c := testCluster(t, 1, 32)
	c.RegisterJob(context.Background(), "job1")
	if _, _, err := c.CreatePrefix(context.Background(), "job1/chan", nil, DSQueue, 1, 0); err != nil {
		t.Fatal(err)
	}
	consumer, _ := c.OpenQueue(context.Background(), "job1/chan")
	listener, err := consumer.Subscribe(context.Background(), core.OpEnqueue)
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	producer, _ := c.OpenQueue(context.Background(), "job1/chan")
	if err := producer.Enqueue(context.Background(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	n, err := listener.Get(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n.Op != core.OpEnqueue || string(n.Data) != "ping" {
		t.Errorf("notification = %+v", n)
	}
}

func TestHierarchyAndRenewal(t *testing.T) {
	_, c := testCluster(t, 1, 32)
	c.RegisterJob(context.Background(), "dagjob")
	err := c.CreateHierarchy(context.Background(), "dagjob", []DagNode{
		{Name: "T1", Type: DSFile},
		{Name: "T2", Type: DSFile},
		{Name: "T5", Parents: []string{"T1", "T2"}, Type: DSKV},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Multi-path resolution through either parent.
	if _, err := c.OpenKV(context.Background(), "dagjob/T1/T5"); err != nil {
		t.Errorf("open via T1: %v", err)
	}
	if _, err := c.OpenKV(context.Background(), "dagjob/T2/T5"); err != nil {
		t.Errorf("open via T2: %v", err)
	}
	renewed, err := c.RenewLease(context.Background(), "dagjob/T1/T5")
	if err != nil {
		t.Fatal(err)
	}
	if renewed != 3 { // T5 + parents T1, T2
		t.Errorf("renewed = %d, want 3", renewed)
	}
	if d, err := c.LeaseDuration(context.Background(), "dagjob/T1/T5"); err != nil || d != time.Minute {
		t.Errorf("lease duration = %v, %v", d, err)
	}
	prefixes, err := c.ListPrefixes(context.Background(), "dagjob")
	if err != nil || len(prefixes) != 4 { // root + 3 tasks
		t.Errorf("prefixes = %d, %v", len(prefixes), err)
	}
}

// TestLeaseExpiryFlushesAndReloads exercises the full §3.2 lifecycle:
// write data, let the lease lapse, verify memory was reclaimed and the
// data flushed, then open the prefix again and read the data back.
func TestLeaseExpiryFlushesAndReloads(t *testing.T) {
	cfg := core.TestConfig() // 200ms leases, 20ms scans
	cluster, err := StartCluster(ClusterOptions{
		Config: cfg, Servers: 1, BlocksPerServer: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	c, _ := cluster.Connect(context.Background())
	defer c.Close()

	c.RegisterJob(context.Background(), "job1")
	if _, _, err := c.CreatePrefix(context.Background(), "job1/t1", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	kv, _ := c.OpenKV(context.Background(), "job1/t1")
	if err := kv.Put(context.Background(), "persisted", []byte("across expiry")); err != nil {
		t.Fatal(err)
	}

	// Wait for the lease to lapse and the expiry worker to reclaim.
	deadline := time.Now().Add(5 * time.Second)
	for leaseExpiries(cluster) == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if leaseExpiries(cluster) == 0 {
		t.Fatal("lease never expired")
	}
	stats, _ := c.ControllerStats(context.Background())
	if stats.AllocatedBlocks != 0 {
		t.Errorf("blocks still allocated after expiry: %d", stats.AllocatedBlocks)
	}

	// Opening the prefix again transparently reloads from the
	// persistent tier.
	kv2, err := c.OpenKV(context.Background(), "job1/t1")
	if err != nil {
		t.Fatal(err)
	}
	v, err := kv2.Get(context.Background(), "persisted")
	if err != nil || string(v) != "across expiry" {
		t.Fatalf("after reload: %q, %v", v, err)
	}
}

// TestRenewalPreventsExpiry verifies that a Renewer keeps short-leased
// data alive.
func TestRenewalPreventsExpiry(t *testing.T) {
	cfg := core.TestConfig()
	cluster, err := StartCluster(ClusterOptions{
		Config: cfg, Servers: 1, BlocksPerServer: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	c, _ := cluster.Connect(context.Background())
	defer c.Close()

	c.RegisterJob(context.Background(), "job1")
	if _, _, err := c.CreatePrefix(context.Background(), "job1/t1", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	renewer := c.StartRenewer(50*time.Millisecond, "job1/t1")
	defer renewer.Stop()
	kv, _ := c.OpenKV(context.Background(), "job1/t1")
	kv.Put(context.Background(), "k", []byte("v"))

	time.Sleep(600 * time.Millisecond) // 3 lease durations
	if got := leaseExpiries(cluster); got != 0 {
		t.Errorf("prefix expired %g times despite renewal", got)
	}
	if v, err := kv.Get(context.Background(), "k"); err != nil || string(v) != "v" {
		t.Errorf("data lost: %q, %v", v, err)
	}
}

func TestExplicitFlushLoad(t *testing.T) {
	_, c := testCluster(t, 1, 32)
	c.RegisterJob(context.Background(), "job1")
	if _, _, err := c.CreatePrefix(context.Background(), "job1/t1", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	kv, _ := c.OpenKV(context.Background(), "job1/t1")
	kv.Put(context.Background(), "checkpoint", []byte("me"))
	n, err := c.FlushPrefix(context.Background(), "job1/t1", "s3://bucket/ckpt1")
	if err != nil || n != 1 {
		t.Fatalf("flush = %d, %v", n, err)
	}
	// Mutate after the checkpoint, then load the checkpoint back.
	kv.Put(context.Background(), "checkpoint", []byte("overwritten"))
	kv.Put(context.Background(), "extra", []byte("new"))
	if err := c.LoadPrefix(context.Background(), "job1/t1", "s3://bucket/ckpt1"); err != nil {
		t.Fatal(err)
	}
	kv2, _ := c.OpenKV(context.Background(), "job1/t1")
	v, err := kv2.Get(context.Background(), "checkpoint")
	if err != nil || string(v) != "me" {
		t.Errorf("after load: %q, %v", v, err)
	}
	if _, err := kv2.Get(context.Background(), "extra"); !errors.Is(err, ErrNotFound) {
		t.Errorf("post-checkpoint key survived load: %v", err)
	}
}

func TestDeregisterJobFreesEverything(t *testing.T) {
	_, c := testCluster(t, 1, 32)
	c.RegisterJob(context.Background(), "job1")
	c.CreatePrefix(context.Background(), "job1/t1", nil, DSKV, 2, 0)
	c.CreatePrefix(context.Background(), "job1/t2", nil, DSFile, 2, 0)
	stats, _ := c.ControllerStats(context.Background())
	if stats.AllocatedBlocks != 4 {
		t.Fatalf("allocated = %d, want 4", stats.AllocatedBlocks)
	}
	if err := c.DeregisterJob(context.Background(), "job1"); err != nil {
		t.Fatal(err)
	}
	stats, _ = c.ControllerStats(context.Background())
	if stats.AllocatedBlocks != 0 || stats.Jobs != 0 {
		t.Errorf("after deregister: %d blocks, %d jobs", stats.AllocatedBlocks, stats.Jobs)
	}
	// Operations on the dead job fail.
	if _, err := c.OpenKV(context.Background(), "job1/t1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("open on dead job = %v", err)
	}
}

// TestChurnedJobsLeaveNoTenantState churns short jobs without quotas
// through two servers: each job's end must leave nothing behind in a
// server's admission gate or metrics, and the controller has nothing to
// tell the servers about it.
func TestChurnedJobsLeaveNoTenantState(t *testing.T) {
	const jobs = 200
	cluster, c := testCluster(t, 2, 32)
	ctx := context.Background()
	for i := 0; i < jobs; i++ {
		job := core.JobID(fmt.Sprintf("churn%d", i))
		if err := c.RegisterJob(ctx, job); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.CreatePrefix(ctx, core.Path(job+"/t"), nil, DSKV, 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.DeregisterJob(ctx, job); err != nil {
			t.Fatal(err)
		}
	}
	for _, srv := range cluster.Servers {
		if st := srv.Gate().Stats(); len(st) != 0 {
			t.Errorf("%s: gate holds %d tenants after %d churned jobs", srv.Addr(), len(st), jobs)
		}
		m := scrapeObs(srv.Obs())
		series := 0
		for name := range m {
			if strings.HasPrefix(name, "jiffy_tenant_") {
				series++
			}
		}
		if series != 0 {
			t.Errorf("%s: exports %d jiffy_tenant_ series", srv.Addr(), series)
		}
		if n := m[`jiffy_rpc_requests_total{role="server",method="SetTenantQuota"}`]; n != 0 {
			t.Errorf("%s: served %g SetTenantQuota calls", srv.Addr(), n)
		}
	}
}

func TestJobIsolation(t *testing.T) {
	_, c := testCluster(t, 1, 32)
	c.RegisterJob(context.Background(), "jobA")
	c.RegisterJob(context.Background(), "jobB")
	c.CreatePrefix(context.Background(), "jobA/t", nil, DSKV, 1, 0)
	c.CreatePrefix(context.Background(), "jobB/t", nil, DSKV, 1, 0)
	kvA, _ := c.OpenKV(context.Background(), "jobA/t")
	kvB, _ := c.OpenKV(context.Background(), "jobB/t")
	kvA.Put(context.Background(), "k", []byte("A"))
	kvB.Put(context.Background(), "k", []byte("B"))
	a, _ := kvA.Get(context.Background(), "k")
	b, _ := kvB.Get(context.Background(), "k")
	if string(a) != "A" || string(b) != "B" {
		t.Errorf("cross-job contamination: %q, %q", a, b)
	}
	// Dropping jobA leaves jobB intact.
	c.DeregisterJob(context.Background(), "jobA")
	if v, err := kvB.Get(context.Background(), "k"); err != nil || string(v) != "B" {
		t.Errorf("jobB affected by jobA teardown: %q, %v", v, err)
	}
}

func TestRegisterDuplicateJob(t *testing.T) {
	_, c := testCluster(t, 1, 8)
	if err := c.RegisterJob(context.Background(), "dup"); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterJob(context.Background(), "dup"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate register = %v", err)
	}
}

func TestNoCapacity(t *testing.T) {
	_, c := testCluster(t, 1, 2)
	c.RegisterJob(context.Background(), "hungry")
	if _, _, err := c.CreatePrefix(context.Background(), "hungry/t", nil, DSKV, 5, 0); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("over-allocation = %v", err)
	}
	// The failed create must not leave a half-built prefix behind.
	if _, _, err := c.CreatePrefix(context.Background(), "hungry/t", nil, DSKV, 1, 0); err != nil {
		t.Errorf("retry after failure = %v", err)
	}
}

func TestTCPTransportCluster(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	cluster, err := StartCluster(ClusterOptions{
		Config: cfg, Servers: 1, BlocksPerServer: 16, Transport: "tcp",
	})
	if err != nil {
		t.Skipf("tcp unavailable: %v", err)
	}
	defer cluster.Close()
	c, err := cluster.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RegisterJob(context.Background(), "tcpjob")
	if _, _, err := c.CreatePrefix(context.Background(), "tcpjob/t", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	kv, _ := c.OpenKV(context.Background(), "tcpjob/t")
	if err := kv.Put(context.Background(), "over", []byte("tcp")); err != nil {
		t.Fatal(err)
	}
	v, err := kv.Get(context.Background(), "over")
	if err != nil || string(v) != "tcp" {
		t.Errorf("Get = %q, %v", v, err)
	}
}

// TestMetadataOverhead checks the §6.4 claim: ~64B per task plus 8B
// per block of controller metadata.
func TestMetadataOverhead(t *testing.T) {
	_, c := testCluster(t, 1, 32)
	c.RegisterJob(context.Background(), "job1")
	c.CreatePrefix(context.Background(), "job1/t1", nil, DSKV, 4, 0)
	stats, _ := c.ControllerStats(context.Background())
	want := 2*64 + 4*8 // root + t1 tasks, 4 blocks
	if stats.MetadataBytes != want {
		t.Errorf("metadata bytes = %d, want %d", stats.MetadataBytes, want)
	}
}
