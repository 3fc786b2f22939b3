package jiffy

// End-to-end observability suite: span propagation across both
// transports, exact client/server metric invariants on a fault-free
// cluster, and the admin HTTP endpoint scraped live while the chaos
// injector jitters the wire. Server-side spans and per-method stats
// are recorded after the response frame is written (see
// internal/rpc.ServerConn.dispatch), so every server-side assertion
// polls with a deadline instead of asserting right after a client
// call returns.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"context"

	"jiffy/internal/client"
	"jiffy/internal/core"
	"jiffy/internal/faultinject"
	"jiffy/internal/obs"
)

// scrapeRegistry renders a registry to Prometheus text and parses it
// back into name{labels} -> value.
func scrapeRegistry(r *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	return obs.ParsePrometheus(buf.Bytes())
}

// leaseExpiries reads jiffy_ctrl_lease_expiries_total from the
// cluster's first controller.
func leaseExpiries(cluster *Cluster) float64 {
	return scrapeRegistry(cluster.Controller.Obs())["jiffy_ctrl_lease_expiries_total"]
}

// scrapeAdmin fetches and parses an admin endpoint's /metrics.
func scrapeAdmin(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	return obs.ParsePrometheus(body)
}

// pollUntil retries cond every few milliseconds until it returns no
// error or the deadline passes; the last error becomes the failure.
func pollUntil(t *testing.T, d time.Duration, cond func() error) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		err := cond()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %v: %v", d, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSpanPropagationMemAndTCP checks the acceptance criterion that
// trace/span IDs propagate client -> server over both transports: the
// client records an rpc:DataOp span, and the server records a
// srv:DataOp span in the same trace whose parent is the client span
// and whose span ID is freshly minted.
func TestSpanPropagationMemAndTCP(t *testing.T) {
	for _, transport := range []string{"mem", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			cfg := core.TestConfig()
			cfg.LeaseDuration = time.Minute
			cluster, err := StartCluster(ClusterOptions{
				Config: cfg, Transport: transport, Servers: 2, BlocksPerServer: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()

			ctx := context.Background()
			exp := obs.NewRingExporter(64)
			c, err := cluster.Connect(ctx, client.WithTracing(exp))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.RegisterJob(ctx, "spanjob"); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.CreatePrefix(ctx, "spanjob/kv", nil, DSKV, 1, 0); err != nil {
				t.Fatal(err)
			}
			kv, err := c.OpenKV(ctx, "spanjob/kv")
			if err != nil {
				t.Fatal(err)
			}
			if err := kv.Put(ctx, "k", []byte("v")); err != nil {
				t.Fatal(err)
			}

			// The client records its span before Put returns.
			var cs obs.SpanEvent
			for _, ev := range exp.Snapshot() {
				if ev.Name == "rpc:DataOp" {
					cs = ev
				}
			}
			if cs.TraceID == 0 || cs.SpanID == 0 {
				t.Fatalf("client rpc:DataOp span missing or zero-ID; ring = %+v", exp.Snapshot())
			}

			// The server records its span after writing the response.
			pollUntil(t, 5*time.Second, func() error {
				for _, srv := range cluster.Servers {
					for _, ev := range srv.Spans().Snapshot() {
						if ev.Name != "srv:DataOp" || ev.TraceID != cs.TraceID {
							continue
						}
						if ev.ParentID != cs.SpanID {
							t.Fatalf("server span parent = %x, want client span %x", ev.ParentID, cs.SpanID)
						}
						if ev.SpanID == 0 || ev.SpanID == cs.SpanID {
							t.Fatalf("server span ID %x must be fresh (client %x)", ev.SpanID, cs.SpanID)
						}
						return nil
					}
				}
				return fmt.Errorf("no srv:DataOp span in trace %x yet", cs.TraceID)
			})
		})
	}
}

// TestObservabilityInvariants runs a fault-free workload against a
// single-block KV and checks the metric arithmetic exactly: requests
// counted once per call on both sides, histogram counts matching
// request counts, zero retries/errors/redirects, batch sizes recorded,
// and per-server block gauges consistent with created/deleted
// counters.
func TestObservabilityInvariants(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	cluster, err := StartCluster(ClusterOptions{
		Config: cfg, Servers: 2, BlocksPerServer: 16, DisableExpiry: true,
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
	if err := c.RegisterJob(ctx, "obsjob"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.CreatePrefix(ctx, "obsjob/kv", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	kv, err := c.OpenKV(ctx, "obsjob/kv")
	if err != nil {
		t.Fatal(err)
	}

	const n = 100
	for i := 0; i < n; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("k-%03d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := kv.Get(ctx, fmt.Sprintf("k-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	pairs := make([]client.KVPair, 64)
	for i := range pairs {
		pairs[i] = client.KVPair{Key: fmt.Sprintf("b-%03d", i), Value: []byte("batched")}
	}
	if err := kv.MultiPut(ctx, pairs); err != nil {
		t.Fatal(err)
	}

	// Client-side stats are recorded before each call returns, so
	// they can be asserted exactly and immediately.
	cm := scrapeRegistry(c.Obs())
	dataOp := `{role="client",method="DataOp"}`
	wantExact := map[string]float64{
		"jiffy_rpc_requests_total" + dataOp:                            2 * n,
		"jiffy_rpc_errors_total" + dataOp:                              0,
		"jiffy_rpc_in_flight" + dataOp:                                 0,
		"jiffy_rpc_latency_usec_count" + dataOp:                        2 * n,
		`jiffy_rpc_requests_total{role="client",method="DataOpBatch"}`: 1,
		`jiffy_rpc_retries_total{role="client"}`:                       0,
		`jiffy_rpc_redirects_total{role="client"}`:                     0,
		"jiffy_client_batch_ops_count":                                 1,
		"jiffy_client_batch_ops_sum":                                   64,
		"jiffy_client_stale_regroups_total":                            0,
	}
	for k, want := range wantExact {
		got, ok := cm[k]
		if !ok {
			t.Errorf("client metric %s missing", k)
		} else if got != want {
			t.Errorf("client metric %s = %g, want %g", k, got, want)
		}
	}
	if cm["jiffy_rpc_bytes_out_total"+dataOp] <= 0 {
		t.Errorf("client DataOp bytes_out = %g, want > 0", cm["jiffy_rpc_bytes_out_total"+dataOp])
	}

	// Server-side stats land after the response frame; poll until the
	// cluster-wide sums match what the client sent.
	pollUntil(t, 5*time.Second, func() error {
		var dataOps, batchOps, latCount float64
		for _, srv := range cluster.Servers {
			sm := scrapeRegistry(srv.Obs())
			dataOps += sm[`jiffy_rpc_requests_total{role="server",method="DataOp"}`]
			batchOps += sm[`jiffy_rpc_requests_total{role="server",method="DataOpBatch"}`]
			latCount += sm[`jiffy_rpc_latency_usec_count{role="server",method="DataOp"}`]
		}
		if dataOps != 2*n || batchOps != 1 || latCount != 2*n {
			return fmt.Errorf("server sums: DataOp=%g (want %d), DataOpBatch=%g (want 1), latency count=%g",
				dataOps, 2*n, batchOps, latCount)
		}
		return nil
	})

	// Block accounting: each server's live-block gauge must equal its
	// created-minus-deleted counters, and the cluster-wide live total
	// must match the controller's allocation view.
	pollUntil(t, 5*time.Second, func() error {
		var live float64
		for i, srv := range cluster.Servers {
			sm := scrapeRegistry(srv.Obs())
			created := sm["jiffy_store_blocks_created_total"]
			deleted := sm["jiffy_store_blocks_deleted_total"]
			blocks := sm["jiffy_store_blocks"]
			if created-deleted != blocks {
				return fmt.Errorf("server %d: created %g - deleted %g != blocks %g", i, created, deleted, blocks)
			}
			live += blocks
		}
		km := scrapeRegistry(cluster.Controller.Obs())
		allocated := km["jiffy_ctrl_blocks_total"] - km["jiffy_ctrl_blocks_free"]
		if allocated != live {
			return fmt.Errorf("controller allocated %g != live store blocks %g", allocated, live)
		}
		return nil
	})
}

// TestAdminMetricsDuringChaos boots a two-server cluster under seeded
// wire jitter, serves real admin endpoints for the controller and both
// servers, and checks that the scraped counters move correctly through
// a workload that forces repartitioning, a lease renewal, and a lease
// expiry — the ISSUE acceptance scenario, driven over HTTP exactly as
// an operator would see it.
func TestAdminMetricsDuringChaos(t *testing.T) {
	inj := faultinject.New(202, nil)
	inj.AddRule(faultinject.Rule{
		Name: "wire-jitter", Match: "send:",
		Latency: 50 * time.Microsecond, Jitter: 100 * time.Microsecond,
	})
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute // only the explicit short-lease prefix expires
	cfg.RPCTimeout = 5 * time.Second
	cluster := chaosCluster(t, inj, cfg, ClusterOptions{Servers: 2, BlocksPerServer: 16})

	ctrlAdmin, err := obs.ServeAdmin("127.0.0.1:0", obs.AdminOptions{
		Registry: cluster.Controller.Obs(), Spans: cluster.Controller.Spans(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrlAdmin.Close()
	var srvAdmins []*obs.AdminServer
	for _, srv := range cluster.Servers {
		a, err := obs.ServeAdmin("127.0.0.1:0", obs.AdminOptions{
			Registry: srv.Obs(), Spans: srv.Spans(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		srvAdmins = append(srvAdmins, a)
	}

	before := scrapeAdmin(t, ctrlAdmin.Addr)

	ctx := context.Background()
	exp := obs.NewRingExporter(256)
	c, err := client.Dial(ctx, client.WithControllers(cluster.ControllerAddrs...),
		client.WithDial(inj.Dial), client.WithRPCTimeout(cfg.RPCTimeout),
		client.WithRetryPolicy(client.RetryPolicy{Limit: 6}),
		client.WithTracing(exp))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterJob(ctx, "adminjob"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.CreatePrefix(ctx, "adminjob/kv", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	// A second prefix with a deliberately short lease that is never
	// renewed: the expiry worker must reclaim it.
	if _, _, err := c.CreatePrefix(ctx, "adminjob/expire", nil, DSKV, 1, 250*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	kv, err := c.OpenKV(ctx, "adminjob/kv")
	if err != nil {
		t.Fatal(err)
	}

	// 1KB values against 64KB blocks: 200 writes overflow the initial
	// block and force scale-ups under jitter.
	val := []byte(strings.Repeat("x", 1024))
	for i := 0; i < 200; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("key-%04d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.RenewLease(ctx, "adminjob/kv"); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, 10*time.Second, func() error {
		if leaseExpiries(cluster) == 0 {
			return fmt.Errorf("adminjob/expire not expired yet")
		}
		return nil
	})

	// Controller counters, over HTTP: control ops moved, the splits
	// registered as scale-ups, the renewal is counted, and the expiry the
	// registry showed above is counted over HTTP too.
	pollUntil(t, 5*time.Second, func() error {
		after := scrapeAdmin(t, ctrlAdmin.Addr)
		if after["jiffy_ctrl_control_ops_total"] <= before["jiffy_ctrl_control_ops_total"] {
			return fmt.Errorf("control ops did not advance (%g -> %g)",
				before["jiffy_ctrl_control_ops_total"], after["jiffy_ctrl_control_ops_total"])
		}
		if after["jiffy_ctrl_scale_ups_total"] < 1 {
			return fmt.Errorf("scale ups = %g, want >= 1", after["jiffy_ctrl_scale_ups_total"])
		}
		if after["jiffy_ctrl_lease_renewals_total"] < 1 {
			return fmt.Errorf("lease renewals = %g, want >= 1", after["jiffy_ctrl_lease_renewals_total"])
		}
		if after["jiffy_ctrl_lease_expiries_total"] < 1 {
			return fmt.Errorf("lease expiries = %g, want >= 1", after["jiffy_ctrl_lease_expiries_total"])
		}
		if after[`jiffy_ctrl_job_blocks{job="adminjob"}`] < 1 {
			return fmt.Errorf("job blocks gauge = %g, want >= 1", after[`jiffy_ctrl_job_blocks{job="adminjob"}`])
		}
		return nil
	})

	// Cross-endpoint block accounting after the reclaim settles: the
	// controller's allocated count must equal the live blocks reported
	// by the server admin endpoints, each consistent with its own
	// created/deleted counters.
	pollUntil(t, 10*time.Second, func() error {
		km := scrapeAdmin(t, ctrlAdmin.Addr)
		var live, created float64
		for i, a := range srvAdmins {
			sm := scrapeAdmin(t, a.Addr)
			if d := sm["jiffy_store_blocks_created_total"] - sm["jiffy_store_blocks_deleted_total"]; d != sm["jiffy_store_blocks"] {
				return fmt.Errorf("server %d: created-deleted %g != blocks %g", i, d, sm["jiffy_store_blocks"])
			}
			live += sm["jiffy_store_blocks"]
			created += sm["jiffy_store_blocks_created_total"]
		}
		if created < 3 {
			return fmt.Errorf("blocks created = %g, want >= 3 (initial + expire + splits)", created)
		}
		allocated := km["jiffy_ctrl_blocks_total"] - km["jiffy_ctrl_blocks_free"]
		if allocated != live {
			return fmt.Errorf("controller allocated %g != live store blocks %g", allocated, live)
		}
		return nil
	})

	// /healthz and /spans over HTTP. The traced client's IDs rode the
	// wire, so the controller's span ring is non-empty.
	resp, err := http.Get("http://" + ctrlAdmin.Addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q, want 200 \"ok\\n\"", resp.StatusCode, body)
	}
	pollUntil(t, 5*time.Second, func() error {
		resp, err := http.Get("http://" + ctrlAdmin.Addr + "/spans")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var dump struct {
			Total int64           `json:"total"`
			Spans []obs.SpanEvent `json:"spans"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
			return fmt.Errorf("decode /spans: %v", err)
		}
		if dump.Total < 1 || len(dump.Spans) < 1 {
			return fmt.Errorf("/spans total=%d len=%d, want >= 1", dump.Total, len(dump.Spans))
		}
		for _, ev := range dump.Spans {
			if ev.TraceID == 0 || ev.SpanID == 0 || !strings.HasPrefix(ev.Name, "srv:") {
				return fmt.Errorf("malformed controller span %+v", ev)
			}
		}
		return nil
	})
}

// TestAdminMetricsControllerGroup scrapes the replicated control
// plane's metrics over real admin endpoints: exactly one member
// exports jiffy_ctrl_leader=1, the replication-lag gauge reads zero
// after every acked mutation (acks are withheld until live standbys
// ack the op-log), and a leader kill plus standby promotion flips the
// leader gauge, bumps jiffy_ctrl_failovers_total, and registers as a
// jiffy_client_rehomes_total increment on the client that re-homed.
func TestAdminMetricsControllerGroup(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	cluster, err := StartCluster(ClusterOptions{
		Config: cfg, Controllers: 3, Servers: 2, BlocksPerServer: 16,
		DisableExpiry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	admins := make([]*obs.AdminServer, len(cluster.Controllers))
	for i, ctrl := range cluster.Controllers {
		a, err := obs.ServeAdmin("127.0.0.1:0", obs.AdminOptions{
			Registry: ctrl.Obs(), Spans: ctrl.Spans(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		admins[i] = a
	}

	// Exactly the first member leads; nobody has failed over yet.
	for i, a := range admins {
		m := scrapeAdmin(t, a.Addr)
		wantLeader := 0.0
		if i == 0 {
			wantLeader = 1
		}
		if m["jiffy_ctrl_leader"] != wantLeader {
			t.Fatalf("member %d jiffy_ctrl_leader = %g, want %g", i, m["jiffy_ctrl_leader"], wantLeader)
		}
		if m["jiffy_ctrl_failovers_total"] != 0 {
			t.Fatalf("member %d failovers = %g before any failover", i, m["jiffy_ctrl_failovers_total"])
		}
	}

	ctx := context.Background()
	c, err := cluster.Connect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterJob(ctx, "grp"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.CreatePrefix(ctx, "grp/kv", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	kv, err := c.OpenKV(ctx, "grp/kv")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Every mutation above was acked, so every live standby has acked
	// the ops that produced it: the leader's lag gauge must read zero.
	m := scrapeAdmin(t, admins[0].Addr)
	if m["jiffy_ctrl_replication_lag_ops"] != 0 {
		t.Fatalf("replication lag = %g after acked ops, want 0", m["jiffy_ctrl_replication_lag_ops"])
	}
	cm := scrapeRegistry(c.Obs())
	if cm["jiffy_client_rehomes_total"] != 0 {
		t.Fatalf("client rehomes = %g under a stable leader", cm["jiffy_client_rehomes_total"])
	}

	// Kill the leader, promote the first standby, and touch the control
	// plane through the same client so it re-homes.
	cluster.Controllers[0].Close()
	if gen := cluster.Controllers[1].PromoteNow(); gen != 2 {
		t.Fatalf("promotion gen = %d, want 2", gen)
	}
	stats, err := c.ControllerStats(ctx)
	if err != nil || stats.Jobs != 1 {
		t.Fatalf("post-failover stats = %+v, %v", stats, err)
	}

	m1 := scrapeAdmin(t, admins[1].Addr)
	if m1["jiffy_ctrl_leader"] != 1 {
		t.Errorf("new leader jiffy_ctrl_leader = %g, want 1", m1["jiffy_ctrl_leader"])
	}
	if m1["jiffy_ctrl_failovers_total"] != 1 {
		t.Errorf("new leader failovers = %g, want 1", m1["jiffy_ctrl_failovers_total"])
	}
	m2 := scrapeAdmin(t, admins[2].Addr)
	if m2["jiffy_ctrl_leader"] != 0 {
		t.Errorf("remaining standby jiffy_ctrl_leader = %g, want 0", m2["jiffy_ctrl_leader"])
	}
	cm = scrapeRegistry(c.Obs())
	if cm["jiffy_client_rehomes_total"] < 1 {
		t.Errorf("client rehomes = %g after a leader kill, want >= 1", cm["jiffy_client_rehomes_total"])
	}
}

// TestAdminMetricsAfterServerFailure scrapes the self-healing counters
// over a real admin endpoint through a server failure: a death bumps
// jiffy_ctrl_server_failures_total and the membership-epoch gauge,
// every affected partition entry counts toward
// jiffy_ctrl_chain_repairs_total, and unreplicated blocks split by
// fate — flushed ones are rebuilt from the persist tier while
// unflushed ones land in jiffy_ctrl_blocks_lost_total and fail fast at
// the client.
func TestAdminMetricsAfterServerFailure(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	cluster, err := StartCluster(ClusterOptions{
		Config: cfg, Servers: 2, BlocksPerServer: 16, DisableExpiry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctrlAdmin, err := obs.ServeAdmin("127.0.0.1:0", obs.AdminOptions{
		Registry: cluster.Controller.Obs(), Spans: cluster.Controller.Spans(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrlAdmin.Close()

	before := scrapeAdmin(t, ctrlAdmin.Addr)
	for _, name := range []string{
		"jiffy_ctrl_server_failures_total",
		"jiffy_ctrl_chain_repairs_total",
		"jiffy_ctrl_blocks_lost_total",
	} {
		if before[name] != 0 {
			t.Fatalf("%s = %g before any failure", name, before[name])
		}
	}
	if before["jiffy_ctrl_membership_epoch"] < 2 {
		t.Fatalf("membership epoch = %g after two registrations",
			before["jiffy_ctrl_membership_epoch"])
	}

	ctx := context.Background()
	c, err := cluster.Connect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterJob(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	// Four single-replica prefixes across two servers: whichever server
	// dies hosts at least two of them.
	paths := []core.Path{"m/a", "m/b", "m/c", "m/d"}
	for _, p := range paths {
		if _, _, err := c.CreatePrefix(ctx, p, nil, DSKV, 1, 0); err != nil {
			t.Fatal(err)
		}
		kv, err := c.OpenKV(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := kv.Put(ctx, "k", []byte("v-"+string(p))); err != nil {
			t.Fatal(err)
		}
	}
	hosts := make(map[core.Path]string)
	count := make(map[string]int)
	for _, p := range paths {
		open, err := cluster.Controller.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		hosts[p] = open.Map.Blocks[0].Info.Server
		count[hosts[p]]++
	}
	victim := ""
	for addr, n := range count {
		if victim == "" || n > count[victim] {
			victim = addr
		}
	}
	var onVictim, flushed []core.Path
	for _, p := range paths {
		if hosts[p] == victim {
			onVictim = append(onVictim, p)
		}
	}
	if len(onVictim) < 2 {
		t.Fatalf("victim %s hosts only %v; need a flushed and an unflushed prefix", victim, onVictim)
	}
	// Flush exactly one hosted prefix; its block must be recovered from
	// the persist tier, while its unflushed neighbors are lost.
	flushed = onVictim[:1]
	if _, err := c.FlushPrefix(ctx, flushed[0], "ckpt/obs-recovery"); err != nil {
		t.Fatal(err)
	}

	for i, srv := range cluster.Servers {
		if strings.Contains(victim, fmt.Sprintf("server-%d", i)) {
			srv.Close()
		}
	}
	if !cluster.Controller.FailServer(victim) {
		t.Fatal("FailServer reported the victim already dead")
	}

	after := scrapeAdmin(t, ctrlAdmin.Addr)
	if got := after["jiffy_ctrl_server_failures_total"]; got != 1 {
		t.Errorf("server failures = %g, want 1", got)
	}
	if got, want := after["jiffy_ctrl_chain_repairs_total"], float64(len(onVictim)); got != want {
		t.Errorf("chain repairs = %g, want %g (every entry on the victim)", got, want)
	}
	if got, want := after["jiffy_ctrl_blocks_lost_total"], float64(len(onVictim)-1); got != want {
		t.Errorf("blocks lost = %g, want %g (all on-victim entries minus the flushed one)", got, want)
	}
	if got, want := after["jiffy_ctrl_membership_epoch"], before["jiffy_ctrl_membership_epoch"]+1; got != want {
		t.Errorf("membership epoch = %g, want %g", got, want)
	}

	// The metric split matches observable client behavior: the flushed
	// prefix reads back its data, the lost ones fail fast.
	kv, err := c.OpenKV(ctx, flushed[0])
	if err != nil {
		t.Fatal(err)
	}
	if v, err := kv.Get(ctx, "k"); err != nil || string(v) != "v-"+string(flushed[0]) {
		t.Fatalf("flushed prefix %s unreadable after recovery: %q, %v", flushed[0], v, err)
	}
	for _, p := range onVictim[1:] {
		kv, err := c.OpenKV(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := kv.Get(ctx, "k"); !errors.Is(err, ErrBlockLost) {
			t.Fatalf("lost prefix %s Get = %v, want ErrBlockLost", p, err)
		}
	}
}
