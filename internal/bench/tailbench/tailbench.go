// Package tailbench measures the gray-failure tail-latency claim the
// hedged-read path makes: with one chain member alive but persistently
// slow, a hedged client's read p99 stays within a small multiple of the
// healthy baseline while an unhedged client eats the full injected
// delay. The regress gate (jiffy-regress -tail) fails when the hedged
// tail exceeds the allowed multiple — a regression in the hedge
// trigger, the backup-target ranking, or cancellation would all surface
// here as a blown p99.
package tailbench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"jiffy"
	"jiffy/internal/client"
	"jiffy/internal/core"
	"jiffy/internal/faultinject"
	"jiffy/internal/metrics"
	"jiffy/internal/obs"
)

// injectedDelay is the one-way latency laid on every byte toward the
// slow chain tail: far above a healthy in-process round trip, far below
// the RPC timeout — gray, not dead.
const injectedDelay = 25 * time.Millisecond

// baselineFloor keeps the gate meaningful on very fast machines: a
// sub-millisecond healthy p99 would make "3x baseline" tighter than
// scheduler jitter.
const baselineFloor = 2 * time.Millisecond

// Params sizes one measurement.
type Params struct {
	Keys     int // working set
	Warmup   int // healthy reads per client before measuring
	Healthy  int // healthy-baseline samples
	Unhedged int // gray-phase samples on the plain client (each pays ~injectedDelay)
	Hedged   int // gray-phase samples on the hedged client
}

// DefaultParams returns the full or quick (CI smoke) profile.
func DefaultParams(quick bool) Params {
	p := Params{Keys: 48, Warmup: 96, Healthy: 400, Unhedged: 80, Hedged: 400}
	if quick {
		p.Healthy = 200
		p.Unhedged = 40
		p.Hedged = 200
	}
	return p
}

// Result is one -tail measurement, written as the report artifact.
type Result struct {
	Quick         bool          `json:"quick"`
	InjectedDelay time.Duration `json:"injected_delay_ns"`
	HealthyP99    time.Duration `json:"healthy_p99_ns"`
	GateBaseline  time.Duration `json:"gate_baseline_ns"`
	UnhedgedP99   time.Duration `json:"unhedged_p99_ns"`
	HedgedP99     time.Duration `json:"hedged_p99_ns"`
	HedgedRatio   float64       `json:"hedged_over_baseline"`
	HedgesFired   float64       `json:"hedges_fired"`
	HedgesWon     float64       `json:"hedges_won"`
}

// WriteFile writes the report as indented JSON.
func (r Result) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Measure boots a 3-server cluster with 3-way chains behind the fault
// injector, records the healthy read baseline, turns the chain tail
// gray, and measures the unhedged vs hedged read p99.
func Measure(quick bool, logf func(format string, args ...interface{})) (Result, error) {
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	p := DefaultParams(quick)
	res := Result{Quick: quick, InjectedDelay: injectedDelay}

	inj := faultinject.New(1305, nil)
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	cfg.ChainLength = 3
	cfg.RPCTimeout = 2 * time.Second
	cluster, err := jiffy.StartCluster(jiffy.ClusterOptions{
		Config: cfg, Servers: 3, BlocksPerServer: 16, Dial: inj.Dial,
	})
	if err != nil {
		return res, err
	}
	defer cluster.Close()
	ctx := context.Background()

	plain, err := cluster.Connect(ctx)
	if err != nil {
		return res, err
	}
	defer plain.Close()
	hedged, err := cluster.Connect(ctx, client.WithHedgedReads())
	if err != nil {
		return res, err
	}
	defer hedged.Close()

	if err := plain.RegisterJob(ctx, "tailbench"); err != nil {
		return res, err
	}
	if _, _, err := plain.CreatePrefix(ctx, "tailbench/kv", nil, jiffy.DSKV, 1, 0); err != nil {
		return res, err
	}
	kvPlain, err := plain.OpenKV(ctx, "tailbench/kv")
	if err != nil {
		return res, err
	}
	kvHedged, err := hedged.OpenKV(ctx, "tailbench/kv")
	if err != nil {
		return res, err
	}
	open, err := cluster.Controller.Open("tailbench/kv")
	if err != nil {
		return res, err
	}
	chain := open.Map.Blocks[0].Chain
	tail := chain[len(chain)-1].Server

	key := func(i int) string { return fmt.Sprintf("k%03d", i%p.Keys) }
	for i := 0; i < p.Keys; i++ {
		if err := kvPlain.Put(ctx, key(i), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			return res, err
		}
	}
	// Warm both clients: the hedged one needs latency samples before its
	// p95 trigger arms.
	for i := 0; i < p.Warmup; i++ {
		if _, err := kvPlain.Get(ctx, key(i)); err != nil {
			return res, err
		}
		if _, err := kvHedged.Get(ctx, key(i)); err != nil {
			return res, err
		}
	}

	healthy, err := sample(ctx, kvPlain, key, p.Healthy)
	if err != nil {
		return res, err
	}
	res.HealthyP99 = metrics.Quantile(healthy, 0.99)
	res.GateBaseline = max(res.HealthyP99, baselineFloor)
	logf("tail: healthy p99 %v over %d reads (gate baseline %v)\n",
		res.HealthyP99, p.Healthy, res.GateBaseline)

	inj.AddRule(faultinject.Rule{Name: "slow-tail", Match: "send:" + tail, Latency: injectedDelay})
	logf("tail: chain tail %s turned gray (+%v per send)\n", tail, injectedDelay)

	unhedged, err := sample(ctx, kvPlain, key, p.Unhedged)
	if err != nil {
		return res, err
	}
	res.UnhedgedP99 = metrics.Quantile(unhedged, 0.99)
	hedgedLat, err := sample(ctx, kvHedged, key, p.Hedged)
	if err != nil {
		return res, err
	}
	res.HedgedP99 = metrics.Quantile(hedgedLat, 0.99)
	res.HedgedRatio = float64(res.HedgedP99) / float64(res.GateBaseline)

	var buf bytes.Buffer
	hedged.Obs().WritePrometheus(&buf)
	vals := obs.ParsePrometheus(buf.Bytes())
	res.HedgesFired = vals["jiffy_client_hedges_fired_total"]
	res.HedgesWon = vals["jiffy_client_hedges_won_total"]
	logf("tail: unhedged p99 %v, hedged p99 %v (%.2fx baseline), hedges fired %.0f won %.0f\n",
		res.UnhedgedP99, res.HedgedP99, res.HedgedRatio, res.HedgesFired, res.HedgesWon)
	return res, nil
}

// sample times n sequential gets.
func sample(ctx context.Context, kv *client.KV, key func(int) string, n int) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := kv.Get(ctx, key(i)); err != nil {
			return nil, fmt.Errorf("tailbench: get %d: %w", i, err)
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}
