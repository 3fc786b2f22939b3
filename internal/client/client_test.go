package client_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"jiffy"
	"jiffy/internal/client"
	"jiffy/internal/core"
	"jiffy/internal/obs"
	"jiffy/internal/rpc"
)

// leaseExpiries reads jiffy_ctrl_lease_expiries_total from the cluster's
// first controller.
func leaseExpiries(cluster *jiffy.Cluster) float64 {
	var buf bytes.Buffer
	cluster.Controller.Obs().WritePrometheus(&buf)
	return obs.ParsePrometheus(buf.Bytes())["jiffy_ctrl_lease_expiries_total"]
}

func testCluster(t *testing.T) (*jiffy.Cluster, *client.Client) {
	t.Helper()
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	cluster, err := jiffy.StartCluster(jiffy.ClusterOptions{
		Config: cfg, Servers: 2, BlocksPerServer: 64,
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

func TestOpenWrongType(t *testing.T) {
	_, c := testCluster(t)
	c.RegisterJob(context.Background(), "j")
	c.CreatePrefix(context.Background(), "j/kv", nil, core.DSKV, 1, 0)
	if _, err := c.OpenQueue(context.Background(), "j/kv"); !errors.Is(err, core.ErrWrongType) {
		t.Errorf("OpenQueue on KV = %v", err)
	}
	if _, err := c.OpenFile(context.Background(), "j/kv"); !errors.Is(err, core.ErrWrongType) {
		t.Errorf("OpenFile on KV = %v", err)
	}
	if _, err := c.OpenKV(context.Background(), "j/missing"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("OpenKV on missing = %v", err)
	}
}

func TestKVExistsSemantics(t *testing.T) {
	_, c := testCluster(t)
	c.RegisterJob(context.Background(), "j")
	c.CreatePrefix(context.Background(), "j/t", nil, core.DSKV, 1, 0)
	kv, _ := c.OpenKV(context.Background(), "j/t")
	ok, err := kv.Exists(context.Background(), "ghost")
	if err != nil || ok {
		t.Errorf("Exists(ghost) = %v, %v", ok, err)
	}
	kv.Put(context.Background(), "real", []byte("v"))
	ok, err = kv.Exists(context.Background(), "real")
	if err != nil || !ok {
		t.Errorf("Exists(real) = %v, %v", ok, err)
	}
}

// TestStaleHandleRecovers: a handle opened before splits keeps working
// after the store has scaled several times.
func TestStaleHandleRecovers(t *testing.T) {
	_, c := testCluster(t)
	c.RegisterJob(context.Background(), "j")
	c.CreatePrefix(context.Background(), "j/t", nil, core.DSKV, 1, 0)
	early, _ := c.OpenKV(context.Background(
	// Force splits with a second handle.
	), "j/t")

	writer, _ := c.OpenKV(context.Background(), "j/t")
	big := make([]byte, 1024)
	for i := 0; i < 400; i++ {
		if err := writer.Put(context.Background(), fmt.Sprintf("grow-%d", i), big); err != nil {
			t.Fatal(err)
		}
	}
	// The early handle's cached map is several epochs stale; its ops
	// must still succeed via refresh-and-retry.
	if err := early.Put(context.Background(), "after-splits", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	v, err := early.Get(context.Background(), "grow-42")
	if err != nil || len(v) != 1024 {
		t.Errorf("stale-handle get = %d bytes, %v", len(v), err)
	}
}

func TestConcurrentHandleRefresh(t *testing.T) {
	_, c := testCluster(t)
	c.RegisterJob(context.Background(), "j")
	c.CreatePrefix(context.Background(), "j/t", nil, core.DSKV, 1, 0)
	kv, _ := c.OpenKV(context.Background(), "j/t")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("g%d-%d", g, i)
				if err := kv.Put(context.Background(), key, make([]byte, 512)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if _, err := kv.Get(context.Background(), key); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRenewerAddRemove(t *testing.T) {
	cfg := core.TestConfig() // 200ms leases
	cluster, err := jiffy.StartCluster(jiffy.ClusterOptions{
		Config: cfg, Servers: 1, BlocksPerServer: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	c, _ := cluster.Connect(context.Background())
	defer c.Close()

	c.RegisterJob(context.Background(), "j")
	c.CreatePrefix(context.Background(), "j/keep", nil, core.DSKV, 1, 0)
	c.CreatePrefix(context.Background(), "j/drop", nil, core.DSKV, 1, 0)
	r := c.StartRenewer(50*time.Millisecond, "j/keep")
	r.Add("j/drop")
	time.Sleep(400 * time.Millisecond)
	if n := leaseExpiries(cluster); n != 0 {
		t.Fatalf("%g prefixes expired while renewed", n)
	}
	// Stop renewing one prefix; it expires, the other survives.
	r.Remove("j/drop")
	deadline := time.Now().Add(5 * time.Second)
	for leaseExpiries(cluster) == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := leaseExpiries(cluster); n != 1 {
		t.Errorf("expiries = %g, want 1", n)
	}
	r.Stop()
	r.Stop() // idempotent
}

func TestListenerTryGet(t *testing.T) {
	_, c := testCluster(t)
	c.RegisterJob(context.Background(), "j")
	c.CreatePrefix(context.Background(), "j/q", nil, core.DSQueue, 1, 0)
	q, _ := c.OpenQueue(context.Background(), "j/q")
	l, err := q.Subscribe(context.Background(), core.OpEnqueue)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, ok := l.TryGet(); ok {
		t.Error("TryGet on idle listener returned a notification")
	}
	q.Enqueue(context.Background(), []byte("x"))
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n, ok := l.TryGet(); ok {
			if string(n.Data) != "x" {
				t.Errorf("notification = %+v", n)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("notification never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestListenerTimeout(t *testing.T) {
	_, c := testCluster(t)
	c.RegisterJob(context.Background(), "j")
	c.CreatePrefix(context.Background(), "j/q", nil, core.DSQueue, 1, 0)
	q, _ := c.OpenQueue(context.Background(), "j/q")
	l, err := q.Subscribe(context.Background(), core.OpEnqueue)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	start := time.Now()
	_, err = l.Get(30 * time.Millisecond)
	if !errors.Is(err, core.ErrTimeout) {
		t.Errorf("err = %v", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Error("Get returned before the timeout")
	}
}

// TestListenerCloseSkipsDeadSession: closing a listener whose
// subscription session has died must not dial a fresh session only to
// cancel a subscription the server already dropped on disconnect (on
// tcp to a vanished host that dial blocks for the OS connect timeout).
func TestListenerCloseSkipsDeadSession(t *testing.T) {
	cluster, _ := testCluster(t)
	ctrl := make(map[string]bool)
	for _, a := range cluster.ControllerAddrs {
		ctrl[a] = true
	}
	var mu sync.Mutex
	dials := 0
	var data []*rpc.Client
	c, err := cluster.Connect(context.Background(), client.WithDial(func(addr string) (*rpc.Client, error) {
		s, err := rpc.Dial(addr)
		if err == nil {
			mu.Lock()
			dials++
			if !ctrl[addr] {
				data = append(data, s)
			}
			mu.Unlock()
		}
		return s, err
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RegisterJob(context.Background(), "j")
	c.CreatePrefix(context.Background(), "j/q", nil, core.DSQueue, 1, 0)
	q, err := c.OpenQueue(context.Background(), "j/q")
	if err != nil {
		t.Fatal(err)
	}
	l, err := q.Subscribe(context.Background(), core.OpEnqueue)
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	sessions := data
	before := dials
	mu.Unlock()
	if len(sessions) == 0 {
		t.Fatal("subscribe dialed no data-plane session")
	}
	for _, s := range sessions {
		s.Close()
	}
	l.Close()
	mu.Lock()
	defer mu.Unlock()
	if dials != before {
		t.Fatalf("Listener.Close dialed %d new session(s) to cancel subscriptions on dead ones", dials-before)
	}
}

func TestClientCloseIdempotent(t *testing.T) {
	cluster, _ := testCluster(t)
	c, err := cluster.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second close = %v", err)
	}
}

func TestFileReadAcrossUnwrittenChunk(t *testing.T) {
	_, c := testCluster(t)
	c.RegisterJob(context.Background(), "j")
	c.CreatePrefix(context.Background(), "j/f", nil, core.DSFile, 1, 0)
	f, _ := c.OpenFile(context.Background(), "j/f")
	f.WriteAt(context.Background(), 0, []byte("head"))
	// Reading far past EOF yields empty, not an error.
	data, err := f.ReadAt(context.Background(), 1<<20, 100)
	if err != nil || len(data) != 0 {
		t.Errorf("far read = %d bytes, %v", len(data), err)
	}
}

// TestFileReadAtAllocs is the client's allocation gate: a 64 KiB
// ReadAt — a response past the inline frame threshold, served as a view
// — allocates only its result in the whole mem:// round trip. Its
// integer arguments are a pooled pair, the response is decoded into
// the connection's frame and only its payload is handed over, and the
// server answers from its pooled scratch. Measured: 1 object; 3 with a
// ds.U64 per argument, 7 with a frame object at the client and a
// segment vector, lease method value and release closure at the server
// too.
func TestFileReadAtAllocs(t *testing.T) {
	if poolsInstrumented {
		t.Skip("pools are instrumented (-race or -tags jiffydebug)")
	}
	_, c := testCluster(t)
	ctx := context.Background()
	c.RegisterJob(ctx, "j")
	if _, _, err := c.CreatePrefix(ctx, "j/f", nil, core.DSFile, 1, 0); err != nil {
		t.Fatal(err)
	}
	f, err := c.OpenFile(ctx, "j/f")
	if err != nil {
		t.Fatal(err)
	}
	const n = 64 << 10
	if err := f.WriteAt(ctx, 0, make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if got, err := f.ReadAt(ctx, 0, n); err != nil || len(got) != n {
			t.Fatalf("ReadAt: %d bytes, %v", len(got), err)
		}
	})
	if allocs > 1 {
		t.Fatalf("a 64 KiB ReadAt allocates %.1f objects, want 1: its result", allocs)
	}
}

// TestListenerCoversScaledBlocks: a subscription created before the
// structure scales still delivers notifications for items landing in
// blocks added afterwards (the listener resyncs its coverage).
func TestListenerCoversScaledBlocks(t *testing.T) {
	_, c := testCluster(t)
	c.RegisterJob(context.Background(), "lsc")
	c.CreatePrefix(context.Background(), "lsc/q", nil, core.DSQueue, 1, 0)
	consumer, _ := c.OpenQueue(context.Background(), "lsc/q")
	l, err := consumer.Subscribe(context.Background(), core.OpEnqueue)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Fill well past one 64KB segment so the queue scales.
	producer, _ := c.OpenQueue(context.Background(), "lsc/q")
	item := make([]byte, 4*1024)
	for i := 0; i < 40; i++ {
		if err := producer.Enqueue(context.Background(), item); err != nil {
			t.Fatal(err)
		}
	}
	// Drain pending notifications, forcing at least one resync via the
	// Get timeout path, then enqueue once more: the new item lands in a
	// late block and must still notify.
	for {
		if _, err := l.Get(50 * time.Millisecond); err != nil {
			break
		}
	}
	if err := producer.Enqueue(context.Background(), []byte("late-item")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := l.Get(100 * time.Millisecond)
		if err == nil && string(n.Data) == "late-item" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("notification from scaled block never arrived")
		}
	}
}

// TestRPCTimeoutZeroKeepsDefault pins WithRPCTimeout's documented
// contract — zero keeps the timeout already in force, only a negative
// value means unbounded — against a controller that accepts and never
// answers: the call must fail with the session's own ErrTimeout well
// before the test's safety cancel fires.
func TestRPCTimeoutZeroKeepsDefault(t *testing.T) {
	release := make(chan struct{})
	srv := rpc.NewServer(func(context.Context, *rpc.ServerConn, uint16, []byte) (rpc.Response, error) {
		<-release
		return rpc.Response{}, nil
	}, nil)
	addr, err := srv.Listen("mem://client-test-blackhole")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release)

	// Cancelable but deadline-free, so the session timeout is what arms.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer time.AfterFunc(3*time.Second, cancel).Stop()

	c, err := client.Dial(ctx, client.WithControllers(addr),
		client.WithRPCTimeout(50*time.Millisecond), client.WithRPCTimeout(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterJob(ctx, "j"); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("RegisterJob against a silent controller = %v, want ErrTimeout from the 50ms session timeout", err)
	}
}
