package hotpath

import (
	"testing"

	"jiffy/internal/obs"
)

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
	p := smallParams(quick)
	benches := []Bench{
		{Name: "KVPutBatch", F: p.kvPutBatch},
		{Name: "KVGetBatch", F: p.kvGetBatch},
	}
	var out []OverheadResult
	for _, bench := range benches {
		var on, off float64
		for round := 0; round < rounds; round++ {
			for _, enabled := range []bool{true, false} {
				obs.SetEnabled(enabled)
				ops := opsPerSec(testing.Benchmark(bench.F))
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
		r := OverheadResult{Name: bench.Name, OnOpsPerSec: on, OffOpsPerSec: off}
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
