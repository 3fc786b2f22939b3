package jiffy

// Gray-failure chaos suite: a server that is alive but persistently
// slow (fail-slow) must not be treated as healthy (unbounded tail
// latency) nor as dead (spurious chain splices). The scenario drives
// controller probation end to end under the deterministic injector: a
// Degraded failure report, filed over the controller's ReportFailure
// RPC, places the slow replica on probation without a membership
// change. Hedged reads, which bound the client's read tail, are
// gray_tail_test.go over tailbench.Measure.
// Seeds are fixed; failures reproduce exactly.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/faultinject"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
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

// TestChaosGrayFailureProbation exercises the report→controller leg:
// with every byte toward a chain's tail delayed, a Degraded report
// against the tail reaches the controller over the wire; the
// controller's probe finds the tail alive and places it on probation —
// no death, no chain splice, no membership change — steering new
// allocations to healthy servers until recovery probes lift it.
func TestChaosGrayFailureProbation(t *testing.T) {
	inj := faultinject.New(1303, nil)
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	cfg.ChainLength = 2
	cfg.RPCTimeout = 2 * time.Second
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

	// Each write's chain forward stalls on the slow tail, and succeeds.
	for i := 0; i < 6; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("p%02d", i), []byte("v")); err != nil {
			t.Fatalf("gray put %d: %v", i, err)
		}
	}
	reporter, err := inj.Dial(cluster.ControllerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer reporter.Close()
	if _, err := rpc.Invoke(ctx, reporter, proto.ReportFailure, proto.ReportFailureReq{
		Reporter: "gray-chaos", Server: tail, Degraded: true,
	}); err != nil {
		t.Fatalf("degraded report: %v", err)
	}
	if !cluster.Controller.ServerProbated(tail) {
		t.Fatal("degraded report did not place the slow tail on probation")
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
