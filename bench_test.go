package jiffy_test

// One benchmark per table/figure of the paper's evaluation (§6), each
// wrapping the corresponding generator in internal/bench. Run them all
// with:
//
//	go test -bench=. -benchmem
//
// or regenerate a figure's full output with cmd/jiffy-bench. Benchmarks
// run the Quick configurations so the whole suite finishes in minutes;
// EXPERIMENTS.md records full-scale results. Single-op data-path cost is
// measured by the repository benchmark (bash benchmark/run.sh), not here.

import (
	"io"
	"testing"

	"jiffy/internal/bench"
)

// runFig executes one figure generator b.N times, discarding output.
func runFig(b *testing.B, fn func(io.Writer, bench.Options) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := fn(io.Discard, bench.Options{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1SnowflakeTrace regenerates Fig. 1: the Snowflake-like
// workload's per-tenant intermediate data over time and the waste of
// peak provisioning.
func BenchmarkFig1SnowflakeTrace(b *testing.B) { runFig(b, bench.Fig1) }

// BenchmarkFig9aJobSlowdown regenerates Fig. 9: job slowdown (a) and
// resource utilization (b) vs. capacity for ElastiCache, Pocket and
// Jiffy. One replay produces both panels.
func BenchmarkFig9aJobSlowdown(b *testing.B) { runFig(b, bench.Fig9) }

// BenchmarkFig10aLatency regenerates Fig. 10: six-system latency (a)
// and MB/s (b) vs. object size, with Jiffy measured live. Both panels
// come from the same samples.
func BenchmarkFig10aLatency(b *testing.B) { runFig(b, bench.Fig10) }

// BenchmarkFig11aLifetime regenerates Fig. 11(a): allocated vs. used
// memory over time per data structure under lease-based reclamation.
func BenchmarkFig11aLifetime(b *testing.B) { runFig(b, bench.Fig11a) }

// BenchmarkFig11bRepartition regenerates Fig. 11(b): repartitioning
// latency CDFs and the impact of repartitioning on foreground gets.
func BenchmarkFig11bRepartition(b *testing.B) { runFig(b, bench.Fig11b) }

// BenchmarkFig12aController regenerates Fig. 12(a): controller
// throughput vs. latency on one shard.
func BenchmarkFig12aController(b *testing.B) { runFig(b, bench.Fig12a) }

// BenchmarkFig12bControllerScaling regenerates Fig. 12(b): controller
// throughput scaling with shard count.
func BenchmarkFig12bControllerScaling(b *testing.B) { runFig(b, bench.Fig12b) }

// BenchmarkFig13aStreamingWordCount regenerates Fig. 13(a): streaming
// word-count batch latency, Jiffy vs. an over-provisioned
// ElastiCache model.
func BenchmarkFig13aStreamingWordCount(b *testing.B) { runFig(b, bench.Fig13a) }

// BenchmarkFig13bExCamera regenerates Fig. 13(b): ExCamera task
// latency with rendezvous-server polling vs. Jiffy queue notifications.
func BenchmarkFig13bExCamera(b *testing.B) { runFig(b, bench.Fig13b) }

// BenchmarkFig14aBlockSize, ...LeaseDuration and ...Threshold
// regenerate Fig. 14's sensitivity sweeps.
func BenchmarkFig14aBlockSize(b *testing.B) { runFig(b, bench.Fig14a) }

// BenchmarkFig14bLeaseDuration sweeps lease durations (Fig. 14(b)).
func BenchmarkFig14bLeaseDuration(b *testing.B) { runFig(b, bench.Fig14b) }

// BenchmarkFig14cThreshold sweeps repartition thresholds (Fig. 14(c)).
func BenchmarkFig14cThreshold(b *testing.B) { runFig(b, bench.Fig14c) }

// BenchmarkMetadataOverhead regenerates the §6.4 storage-overhead
// numbers.
func BenchmarkMetadataOverhead(b *testing.B) { runFig(b, bench.Overhead) }
