// jiffy-regress runs the CI performance gates that measure both sides
// of their comparison in one run, so they need no recorded baseline and
// hold on any machine; each exits non-zero when its bound is crossed.
//
//	jiffy-regress -quick -overhead                    # telemetry on/off A-B on the batched hot path
//	jiffy-regress -quick -tail -tail-out TAIL.json    # hedged vs unhedged read p99 under a slow chain tail
//	jiffy-regress -quick -rounds 3 -ctrl-scale        # controller shard scaling (Fig. 12(b))
//
// Single-op cost has no gate here: Test*SingleAllocs and
// TestFileWrite1MChain3AllocBytes (tier-1) pin allocations, and
// allocs_per_op / ops_per_s on benchmark/'s kv-small-tcp and
// shuffle-batch-mem measure the rest. The bodies behind -overhead run
// standalone as `go test -bench 'KVPut|KVGet|FileAppend|QueueEnqueue'`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"jiffy/internal/bench/ctrlscale"
	"jiffy/internal/bench/hotpath"
	"jiffy/internal/bench/tailbench"
)

func main() {
	quick := flag.Bool("quick", false, "smaller cluster and working set (CI smoke mode)")
	overhead := flag.Bool("overhead", false, "A/B the batched hot path with telemetry on vs off and gate the difference")
	overheadTol := flag.Float64("overhead-tolerance", 0.02, "allowed fractional telemetry overhead with -overhead")
	overheadRounds := flag.Int("overhead-rounds", 3, "interleaved A/B rounds per benchmark with -overhead")
	ctrlScale := flag.Bool("ctrl-scale", false, "measure controller metadata shard scaling (Fig. 12(b)) and gate the speedup")
	ctrlScaleMin := flag.Float64("ctrl-scale-min", 2.0, "required sharded-vs-single-lock ops/sec ratio with -ctrl-scale")
	tail := flag.Bool("tail", false, "measure hedged vs unhedged read p99 under an injected slow chain tail and gate the hedged tail")
	tailMax := flag.Float64("tail-max", 3.0, "allowed hedged p99 as a multiple of the healthy baseline with -tail")
	tailOut := flag.String("tail-out", "", "path to write the -tail report JSON (empty = don't write)")
	rounds := flag.Int("rounds", 1, "measurement rounds with -ctrl-scale; the best round is kept (use >1 on noisy machines)")
	flag.Parse()

	if *ctrlScale {
		if runtime.GOMAXPROCS(0) < 4 {
			// The ratio measures lock-domain parallelism; below four
			// cores there is nothing for extra shards to run on, so the
			// gate would fail for hardware reasons. Say so instead of
			// reporting a phantom regression.
			fmt.Printf("ctrl-scale: skipped, GOMAXPROCS=%d < 4 cannot exercise shard parallelism\n",
				runtime.GOMAXPROCS(0))
			return
		}
		base, scaled, ratio, err := ctrlscale.Gate(*quick, *rounds, func(format string, args ...interface{}) {
			fmt.Printf(format, args...)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "jiffy-regress: ctrl-scale: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("ctrl-scale: %d blocks, %d jobs, %d workers: 1 shard %.1f KOps -> %d shards %.1f KOps (%.2fx)\n",
			base.Blocks, base.Jobs, base.Workers, base.KOps, scaled.Shards, scaled.KOps, ratio)
		if ratio < *ctrlScaleMin {
			fmt.Fprintf(os.Stderr, "jiffy-regress: ctrl-scale speedup %.2fx below required %.2fx\n",
				ratio, *ctrlScaleMin)
			os.Exit(1)
		}
		return
	}

	if *tail {
		res, err := tailbench.Measure(*quick, func(format string, args ...interface{}) {
			fmt.Printf(format, args...)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "jiffy-regress: tail: %v\n", err)
			os.Exit(2)
		}
		if *tailOut != "" {
			if err := res.WriteFile(*tailOut); err != nil {
				fmt.Fprintf(os.Stderr, "jiffy-regress: write %s: %v\n", *tailOut, err)
				os.Exit(2)
			}
			fmt.Printf("wrote %s\n", *tailOut)
		}
		// Sanity first: if the unhedged client did not feel the injected
		// delay, the injector misfired and the hedged number proves
		// nothing — refuse to report a pass from a broken measurement.
		if res.UnhedgedP99 < res.InjectedDelay {
			fmt.Fprintf(os.Stderr, "jiffy-regress: tail: unhedged p99 %v below the injected %v delay; fault injection ineffective\n",
				res.UnhedgedP99, res.InjectedDelay)
			os.Exit(2)
		}
		if res.HedgesFired == 0 {
			fmt.Fprintf(os.Stderr, "jiffy-regress: tail: no hedges fired under a %v slow tail\n", res.InjectedDelay)
			os.Exit(1)
		}
		if res.HedgedRatio > *tailMax {
			fmt.Fprintf(os.Stderr, "jiffy-regress: tail: hedged p99 %v is %.2fx the %v baseline, above the allowed %.2fx\n",
				res.HedgedP99, res.HedgedRatio, res.GateBaseline, *tailMax)
			os.Exit(1)
		}
		fmt.Printf("tail: hedged p99 %v within %.1fx of the %v baseline (unhedged %v)\n",
			res.HedgedP99, *tailMax, res.GateBaseline, res.UnhedgedP99)
		return
	}

	if *overhead {
		failed := false
		for _, r := range hotpath.MeasureOverhead(*quick, *overheadRounds, func(format string, args ...interface{}) {
			fmt.Printf(format, args...)
		}) {
			if r.Overhead() > *overheadTol {
				failed = true
				fmt.Fprintf(os.Stderr, "jiffy-regress: %s telemetry overhead %.2f%% exceeds %.2f%%\n",
					r.Name, 100*r.Overhead(), 100**overheadTol)
			}
		}
		if failed {
			os.Exit(1)
		}
		fmt.Printf("telemetry overhead within %.1f%%\n", 100**overheadTol)
		return
	}

	fmt.Fprintln(os.Stderr, "jiffy-regress: pick a gate: -overhead, -tail or -ctrl-scale")
	flag.Usage()
	os.Exit(2)
}
