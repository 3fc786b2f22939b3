// jiffy-regress runs the CI performance gates that measure both sides
// of their comparison in one run, so they need no recorded baseline and
// hold on any machine; each exits non-zero when its bound is crossed.
//
//	jiffy-regress -quick -overhead                    # telemetry on/off A-B on the batched hot path
//	jiffy-regress -quick -tail -tail-out TAIL.json    # hedged vs unhedged read p99 under a slow chain tail
//	jiffy-regress -quick -rounds 3 -ctrl-scale        # controller shard scaling (Fig. 12(b))
//
// The bounds are constants, not flags. Single-op cost has no gate here:
// Test*SingleAllocs and TestFileWrite1MChain3AllocBytes (tier-1) pin
// allocations, and bash benchmark/run.sh measures the rest.
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

const (
	// overheadTolerance is the allowed fractional telemetry overhead
	// (DESIGN.md §16 invariant 1).
	overheadTolerance = 0.02
	// ctrlScaleMin is the required sharded-vs-single-lock ops/sec ratio.
	ctrlScaleMin = 2.0
	// tailMax is the allowed hedged p99 as a multiple of the healthy
	// baseline.
	tailMax = 3.0
)

func main() {
	quick := flag.Bool("quick", false, "smaller cluster and working set (CI smoke mode)")
	overhead := flag.Bool("overhead", false, "A/B the batched hot path with telemetry on vs off and gate the difference")
	ctrlScale := flag.Bool("ctrl-scale", false, "measure controller metadata shard scaling (Fig. 12(b)) and gate the speedup")
	tail := flag.Bool("tail", false, "measure hedged vs unhedged read p99 under an injected slow chain tail and gate the hedged tail")
	tailOut := flag.String("tail-out", "", "path to write the -tail report JSON (empty = don't write)")
	rounds := flag.Int("rounds", 3, "interleaved rounds with -overhead and -ctrl-scale; the best round per side is kept")
	flag.Parse()
	logf := func(format string, args ...interface{}) { fmt.Printf(format, args...) }

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
		base, scaled, ratio, err := ctrlscale.Gate(*quick, *rounds, logf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jiffy-regress: ctrl-scale: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("ctrl-scale: %d blocks, %d jobs, %d workers: 1 shard %.1f KOps -> %d shards %.1f KOps (%.2fx)\n",
			base.Blocks, base.Jobs, base.Workers, base.KOps, scaled.Shards, scaled.KOps, ratio)
		if ratio < ctrlScaleMin {
			fmt.Fprintf(os.Stderr, "jiffy-regress: ctrl-scale speedup %.2fx below required %.2fx\n",
				ratio, ctrlScaleMin)
			os.Exit(1)
		}
		return
	}

	if *tail {
		res, err := tailbench.Measure(*quick, logf)
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
		// Sanity first: a measurement in which the tail was not slow, or
		// no hedge fired, proves nothing about the hedged p99.
		if err := res.Sanity(); err != nil {
			fmt.Fprintf(os.Stderr, "jiffy-regress: tail: %v\n", err)
			os.Exit(1)
		}
		if res.HedgedRatio > tailMax {
			fmt.Fprintf(os.Stderr, "jiffy-regress: tail: hedged p99 %v is %.2fx the %v baseline, above the allowed %.2fx\n",
				res.HedgedP99, res.HedgedRatio, res.GateBaseline, tailMax)
			os.Exit(1)
		}
		fmt.Printf("tail: hedged p99 %v within %.1fx of the %v baseline (unhedged %v)\n",
			res.HedgedP99, tailMax, res.GateBaseline, res.UnhedgedP99)
		return
	}

	if *overhead {
		failed := false
		for _, r := range hotpath.MeasureOverhead(*quick, *rounds, logf) {
			if r.Overhead() > overheadTolerance {
				failed = true
				fmt.Fprintf(os.Stderr, "jiffy-regress: %s telemetry overhead %.2f%% exceeds %.2f%%\n",
					r.Name, 100*r.Overhead(), 100*overheadTolerance)
			}
		}
		if failed {
			os.Exit(1)
		}
		fmt.Printf("telemetry overhead within %.1f%%\n", 100*overheadTolerance)
		return
	}

	fmt.Fprintln(os.Stderr, "jiffy-regress: pick a gate: -overhead, -tail or -ctrl-scale")
	flag.Usage()
	os.Exit(2)
}
