package jiffy

// Gray-failure chaos suite: a server that is alive but persistently
// slow (fail-slow) must not be treated as healthy (unbounded tail
// latency) nor as dead (spurious chain splices). These scenarios drive
// the full gray-failure machinery end to end under the deterministic
// injector: the per-server circuit breaker steers traffic off the slow
// replica, and the server→controller fail-slow reports place it on
// probation without a membership change. Hedged reads, which bound the
// client's read tail, are gray_tail_test.go over tailbench.Measure.
// Seeds are fixed; failures reproduce exactly.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"jiffy/internal/client"
	"jiffy/internal/core"
	"jiffy/internal/faultinject"
)

// grayTailLatency is the injected one-way latency toward the slow
// server: far above any healthy in-process RTT, far below the RPC
// timeout, so ops succeed but slowly — the definition of gray.
const grayTailLatency = 25 * time.Millisecond

// metricValue extracts the first sample of name from a Prometheus
// dump, -1 when absent.
func metricValue(dump, name string) float64 {
	for _, line := range strings.Split(dump, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if len(rest) == 0 || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(line)
		var v float64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err == nil {
			return v
		}
	}
	return -1
}

// grayCluster boots a 3-server cluster with 3-way chains behind the
// injector and returns it with a prefix whose single chain spans all
// three servers, plus that chain's tail address.
func grayCluster(t *testing.T, inj *faultinject.Injector, cfg core.Config) (*Cluster, string) {
	t.Helper()
	cluster := chaosCluster(t, inj, cfg, ClusterOptions{Servers: 3, BlocksPerServer: 16})
	seed, err := cluster.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	ctx := context.Background()
	if err := seed.RegisterJob(ctx, "gray"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := seed.CreatePrefix(ctx, "gray/kv", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	open, err := cluster.Controller.Open("gray/kv")
	if err != nil {
		t.Fatal(err)
	}
	chain := open.Map.Blocks[0].Chain
	if len(chain) != cfg.ChainLength {
		t.Fatalf("chain = %v, want length %d", chain, cfg.ChainLength)
	}
	return cluster, chain[len(chain)-1].Server
}

// TestChaosGrayFailureBreaker drives the per-server circuit breaker
// through its full deterministic cycle: closed while healthy; slow
// successes (latency-ceiling strikes) open it after exactly the
// configured streak; while open, reads fail over along the chain and
// still succeed; after the cooldown a half-open probe against the
// healed server closes it again.
func TestChaosGrayFailureBreaker(t *testing.T) {
	inj := faultinject.New(1302, nil)
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	cfg.ChainLength = 3
	cfg.RPCTimeout = 2 * time.Second
	cluster, tail := grayCluster(t, inj, cfg)
	ctx := context.Background()

	const cooldown = 100 * time.Millisecond
	c, err := cluster.Connect(ctx, client.WithBreaker(client.BreakerPolicy{
		Failures: 3, LatencyCeiling: 5 * time.Millisecond, Cooldown: cooldown,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	kv, err := c.OpenKV(ctx, "gray/kv")
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(ctx, "bk", []byte("bv")); err != nil {
		t.Fatal(err)
	}

	stateOf := func(server string) (string, int) {
		for _, s := range c.ServerHealth() {
			if s.Server == server {
				return s.State, s.Strikes
			}
		}
		return "", 0
	}

	// Healthy reads leave the breaker closed.
	for i := 0; i < 4; i++ {
		if _, err := kv.Get(ctx, "bk"); err != nil {
			t.Fatalf("healthy get: %v", err)
		}
	}
	if state, _ := stateOf(tail); state != "closed" {
		t.Fatalf("healthy breaker state = %q, want closed", state)
	}

	inj.AddRule(faultinject.Rule{Name: "slow-tail", Match: "send:" + tail, Latency: grayTailLatency})

	// Strikes accumulate one per slow success; the breaker must open on
	// the third and not before.
	for i := 1; i <= 3; i++ {
		if _, err := kv.Get(ctx, "bk"); err != nil {
			t.Fatalf("gray get %d: %v", i, err)
		}
		state, strikes := stateOf(tail)
		if i < 3 && state != "closed" {
			t.Fatalf("breaker state after %d strikes = %q, want closed", i, state)
		}
		if i == 3 && state != "open" {
			t.Fatalf("breaker state after %d strikes = %q (strikes=%d), want open", i, state, strikes)
		}
	}

	// Open breaker: reads fail over to an upstream chain member — fast
	// and successful, without waiting out the slow tail.
	start := time.Now()
	if v, err := kv.Get(ctx, "bk"); err != nil || string(v) != "bv" {
		t.Fatalf("failover get = %q, %v", v, err)
	}
	if elapsed := time.Since(start); elapsed >= grayTailLatency {
		t.Errorf("failover get took %v: it waited on the open-breaker tail", elapsed)
	}
	if state, _ := stateOf(tail); state != "open" {
		t.Fatalf("breaker state during failover = %q, want open", state)
	}

	// The breaker-state gauge mirrors the snapshot (closed=0 open=1
	// half-open=2).
	var buf bytes.Buffer
	c.Obs().WritePrometheus(&buf)
	gauge := fmt.Sprintf(`jiffy_client_breaker_state{server=%q}`, tail)
	if v := metricValue(buf.String(), gauge); v != 1 {
		t.Errorf("%s = %v, want 1 (open)", gauge, v)
	}

	// Heal the tail and wait out the cooldown: the next read admits a
	// single half-open probe, which succeeds fast and closes the
	// breaker — traffic returns to the tail.
	inj.RemoveRule("slow-tail")
	time.Sleep(cooldown + 20*time.Millisecond)
	if _, err := kv.Get(ctx, "bk"); err != nil {
		t.Fatalf("post-heal get: %v", err)
	}
	if state, strikes := stateOf(tail); state != "closed" || strikes != 0 {
		t.Fatalf("post-heal breaker = %q/%d strikes, want closed/0", state, strikes)
	}
}

// TestChaosGrayFailureProbation exercises the server→controller leg: a
// chain head whose forward round trips stall past SlowHopThreshold for
// core.DefaultSlowHopStreak writes files a Degraded report; the controller's probe
// finds the successor alive and places it on probation — no death, no
// chain splice, no membership change — steering new allocations to
// healthy servers until recovery probes lift it.
func TestChaosGrayFailureProbation(t *testing.T) {
	if testing.Short() {
		t.Skip("long chaos scenario")
	}
	inj := faultinject.New(1303, nil)
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	cfg.ChainLength = 2
	cfg.RPCTimeout = 2 * time.Second
	cfg.SlowHopThreshold = 5 * time.Millisecond
	cluster, tail := grayCluster(t, inj, cfg)
	ctx := context.Background()

	c, err := cluster.Connect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	kv, err := c.OpenKV(ctx, "gray/kv")
	if err != nil {
		t.Fatal(err)
	}

	epochBefore := cluster.Controller.MembershipEpoch()
	inj.AddRule(faultinject.Rule{Name: "slow-tail", Match: "send:" + tail, Latency: grayTailLatency})

	// Each write's chain forward stalls on the slow successor; after
	// core.DefaultSlowHopStreak of them the head reports Degraded, asynchronously.
	for i := 0; i < 6; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("p%02d", i), []byte("v")); err != nil {
			t.Fatalf("gray put %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for !cluster.Controller.ServerProbated(tail) {
		if time.Now().After(deadline) {
			t.Fatal("slow chain successor never reached probation")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cluster.Controller.ServerDead(tail) {
		t.Fatal("fail-slow server was declared dead")
	}
	if got := cluster.Controller.MembershipEpoch(); got != epochBefore {
		t.Fatalf("probation changed the membership epoch: %d -> %d", epochBefore, got)
	}
	var buf bytes.Buffer
	cluster.Controller.Obs().WritePrometheus(&buf)
	if v := metricValue(buf.String(), "jiffy_ctrl_servers_degraded"); v != 1 {
		t.Errorf("jiffy_ctrl_servers_degraded = %v, want 1", v)
	}

	// The probated chain keeps serving: acked writes remain readable —
	// probation must never splice or lose the slow member's data.
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("p%02d", i)
		if v, err := kv.Get(ctx, key); err != nil || string(v) != "v" {
			t.Fatalf("acked write %s lost under probation: %q, %v", key, v, err)
		}
	}

	// New allocations steer away from the probated server while the
	// healthy pool suffices.
	if _, _, err := c.CreatePrefix(ctx, "gray/fresh", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	open, err := cluster.Controller.Open("gray/fresh")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range open.Map.Blocks {
		for _, member := range e.Replicas() {
			if member.Server == tail {
				t.Fatalf("new chain member %v placed on probated server", member)
			}
		}
	}
	if len(open.Probation) != 1 || open.Probation[0] != tail {
		t.Fatalf("OpenResp.Probation = %v, want [%s]", open.Probation, tail)
	}

	// Heal the server; consecutive clean recovery probes lift the
	// probation and re-admit it to allocation.
	inj.RemoveRule("slow-tail")
	for i := 0; i < core.DefaultProbationRecoveryProbes; i++ {
		cluster.Controller.ProbeProbationNow()
	}
	if cluster.Controller.ServerProbated(tail) {
		t.Fatal("probation not lifted after clean recovery probes")
	}
}
