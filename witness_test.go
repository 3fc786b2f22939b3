package jiffy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"jiffy/internal/client"
	"jiffy/internal/clock"
	"jiffy/internal/core"
	"jiffy/internal/faultinject"
	"jiffy/internal/rpc"
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
//  3. A reader that cannot dial the middle or the tail reads k: each
//     read avoids both and falls back along the chain to the head.
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
	connect := func(dial func(string) (*rpc.Client, error)) *Client {
		c, err := cluster.Connect(ctx, client.WithDial(dial))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	writer := connect(inj.Dial)
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
	// 3 (set-up). The reader refuses to dial the middle and the tail.
	reader := connect(func(addr string) (*rpc.Client, error) {
		if addr == middle || addr == tail {
			return nil, fmt.Errorf("witness: reader does not dial %s", addr)
		}
		return inj.Dial(addr)
	})
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

// lockedBuffer is a bytes.Buffer that many goroutines may log into.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestCreateHierarchyRefusesBadName is the witness for a DAG node name
// that is not a path component (empty, or holding the separator): the
// controller answers the call once with the validation error, names
// the node, creates none of the DAG's nodes (not even those listed
// before the bad one) and keeps serving. A controller that makes a path
// from the name panics in its handler instead, and the client, seeing a
// dead session, re-sends the call until its retries run out.
func TestCreateHierarchyRefusesBadName(t *testing.T) {
	var logs lockedBuffer
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	cluster, err := StartCluster(ClusterOptions{
		Config: cfg, Controllers: 2, Servers: 1, BlocksPerServer: 8,
		Logger: slog.New(slog.NewTextHandler(&logs, nil)),
	})
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
	if err := c.RegisterJob(ctx, "dag"); err != nil {
		t.Fatal(err)
	}
	for _, dag := range [][]DagNode{
		{{Name: "a/b"}},
		{{Name: "ok"}, {Name: "", Parents: []string{"ok"}}},
		{{Name: "ok"}, {Name: "x/y", Parents: []string{"ok"}}},
	} {
		bad := dag[len(dag)-1].Name
		err := c.CreateHierarchy(ctx, "dag", dag, 0)
		if err == nil || errors.Is(err, core.ErrClosed) || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Errorf("CreateHierarchy with node %q = %v, want the validation error naming it", bad, err)
		}
	}
	if n := strings.Count(logs.String(), "handler panic"); n > 0 {
		t.Errorf("the controller logged %d handler panics", n)
	}
	prefixes, err := c.ListPrefixes(ctx, "dag")
	if err != nil || len(prefixes) != 1 {
		t.Fatalf("after the refused DAGs the job lists %v (%v), want its root alone", prefixes, err)
	}
	if err := c.CreateHierarchy(ctx, "dag", []DagNode{{Name: "ok"}, {Name: "next", Parents: []string{"ok"}, Type: DSKV}}, 0); err != nil {
		t.Fatalf("a valid DAG after the refused ones: %v", err)
	}
	if _, err := c.LeaseDuration(ctx, "dag/ok/next"); err != nil {
		t.Fatal(err)
	}
}

// TestControlErrorSaysWhy is the witness for a control call's error
// text: the controller refuses a DAG whose node names a missing parent
// with an error naming that parent, and the client's error keeps the
// text while errors.Is still finds ErrNotFound. Mapping the answer's
// wire code back to its bare sentinel left "jiffy: not found" alone.
func TestControlErrorSaysWhy(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	cluster, err := StartCluster(ClusterOptions{Config: cfg, Controllers: 2, Servers: 1, BlocksPerServer: 8})
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
	if err := c.RegisterJob(ctx, "dag"); err != nil {
		t.Fatal(err)
	}
	err = c.CreateHierarchy(ctx, "dag", []DagNode{{Name: "a", Type: DSKV}, {Name: "b", Parents: []string{"missing"}}}, 0)
	if !errors.Is(err, core.ErrNotFound) || !strings.Contains(err.Error(), `"missing"`) {
		t.Fatalf("CreateHierarchy with a missing parent = %v, want ErrNotFound naming %q", err, "missing")
	}
}
