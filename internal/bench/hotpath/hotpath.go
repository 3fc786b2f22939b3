// Package hotpath is the telemetry-overhead A/B behind
// cmd/jiffy-regress -overhead: batched KV puts and gets over the mem://
// transport, run interleaved with telemetry on and off. Single-op and
// large-value cost are measured by benchmark/ (bash benchmark/run.sh),
// not here.
package hotpath

import (
	"context"
	"fmt"
	"testing"
	"time"

	"jiffy"
	"jiffy/internal/core"
	"jiffy/internal/obs"
)

// batchSize is the multi-op batch width the overhead claim is stated for.
const batchSize = 64

// valSize is the payload size per op — small objects, the regime where
// per-request overhead dominates (§6.2).
const valSize = 128

// params sizes the cluster and working set; quick shrinks both for CI
// smoke runs — the measured ratio is the same, each run just spends
// less time in setup.
type params struct {
	servers         int
	blocksPerServer int
	keys            int
}

func newParams(quick bool) params {
	if quick {
		return params{servers: 1, blocksPerServer: 64, keys: 512}
	}
	return params{servers: 2, blocksPerServer: 128, keys: 4096}
}

// kv boots a cluster and returns a handle on a fresh 4-block KV prefix.
func (p params) kv(b *testing.B) *jiffy.KV {
	b.Helper()
	cfg := core.TestConfig()
	cfg.BlockSize = core.MB
	cfg.LeaseDuration = time.Hour
	cluster, err := jiffy.StartCluster(jiffy.ClusterOptions{
		Config: cfg, Servers: p.servers, BlocksPerServer: p.blocksPerServer,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cluster.Close() })
	c, err := cluster.Connect(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	c.RegisterJob(context.Background(), "bench")
	if _, _, err := c.CreatePrefix(context.Background(), "bench/kv", nil, jiffy.DSKV, 4, 0); err != nil {
		b.Fatal(err)
	}
	kv, err := c.OpenKV(context.Background(), "bench/kv")
	if err != nil {
		b.Fatal(err)
	}
	return kv
}

func keyPool(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
	}
	return keys
}

func (p params) kvPutBatch(b *testing.B) {
	kv := p.kv(b)
	keys := keyPool(p.keys)
	val := make([]byte, valSize)
	pairs := make([]jiffy.KVPair, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batchSize {
		m := batchSize
		if n+m > b.N {
			m = b.N - n
		}
		for j := 0; j < m; j++ {
			pairs[j] = jiffy.KVPair{Key: keys[(n+j)%len(keys)], Value: val}
		}
		if err := kv.MultiPut(context.Background(), pairs[:m]); err != nil {
			b.Fatal(err)
		}
	}
}

func (p params) kvGetBatch(b *testing.B) {
	kv := p.kv(b)
	keys := keyPool(p.keys)
	val := make([]byte, valSize)
	pairs := make([]jiffy.KVPair, 0, batchSize)
	for i := 0; i < len(keys); i += batchSize {
		pairs = pairs[:0]
		for j := i; j < i+batchSize && j < len(keys); j++ {
			pairs = append(pairs, jiffy.KVPair{Key: keys[j], Value: val})
		}
		if err := kv.MultiPut(context.Background(), pairs); err != nil {
			b.Fatal(err)
		}
	}
	batch := make([]string, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batchSize {
		m := batchSize
		if n+m > b.N {
			m = b.N - n
		}
		for j := 0; j < m; j++ {
			batch[j] = keys[(n+j)%len(keys)]
		}
		if _, err := kv.MultiGet(context.Background(), batch[:m]); err != nil {
			b.Fatal(err)
		}
	}
}

// OverheadResult compares one benchmark run with telemetry enabled
// against the same benchmark with telemetry globally disabled
// (obs.SetEnabled). Ops/sec are best-of-N per mode.
type OverheadResult struct {
	Name         string
	OnOpsPerSec  float64
	OffOpsPerSec float64
}

// Overhead is the fractional throughput cost of telemetry:
// (off-on)/off. Negative values mean run-to-run noise exceeded the
// overhead — i.e. the cost is unmeasurably small.
func (r OverheadResult) Overhead() float64 {
	if r.OffOpsPerSec <= 0 {
		return 0
	}
	return 1 - r.OnOpsPerSec/r.OffOpsPerSec
}

// MeasureOverhead A/B-tests the batched hot path (the batch=64 regime
// the DESIGN overhead claim is stated for) with telemetry on vs off.
// Modes are interleaved round-robin and the best ops/sec per mode is
// kept, so transient scheduler noise shrinks with more rounds instead
// of accumulating into either side. Telemetry is left enabled on
// return regardless of the toggling.
func MeasureOverhead(quick bool, rounds int, log func(format string, args ...interface{})) []OverheadResult {
	if rounds < 1 {
		rounds = 1
	}
	defer obs.SetEnabled(true)
	p := newParams(quick)
	benches := []struct {
		name string
		f    func(*testing.B)
	}{
		{"KVPutBatch", p.kvPutBatch},
		{"KVGetBatch", p.kvGetBatch},
	}
	var out []OverheadResult
	for _, bench := range benches {
		var on, off float64
		for round := 0; round < rounds; round++ {
			for _, enabled := range []bool{true, false} {
				obs.SetEnabled(enabled)
				ops := opsPerSec(testing.Benchmark(bench.f))
				if enabled {
					if ops > on {
						on = ops
					}
				} else if ops > off {
					off = ops
				}
			}
		}
		obs.SetEnabled(true)
		r := OverheadResult{Name: bench.name, OnOpsPerSec: on, OffOpsPerSec: off}
		out = append(out, r)
		if log != nil {
			log("%-24s on %12.0f ops/sec  off %12.0f ops/sec  overhead %+.2f%%\n",
				r.Name, r.OnOpsPerSec, r.OffOpsPerSec, 100*r.Overhead())
		}
	}
	return out
}

// opsPerSec is a benchmark run's throughput, 0 for a run that measured
// no time.
func opsPerSec(r testing.BenchmarkResult) float64 {
	if r.T <= 0 {
		return 0
	}
	return float64(r.N) / r.T.Seconds()
}
