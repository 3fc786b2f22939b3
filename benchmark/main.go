// Command benchmark is the repository's benchmark: four workloads
// driven through the public client API against an in-process cluster,
// every result checked against an oracle, every metric printed by
// name with its unit. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"jiffy/benchmark/stats"
)

// rounds is how many fresh clusters one run measures; the run reports
// the median of the rounds' values.
const rounds = 3

// gcPercent is the collector's pace for the whole run. It is part of
// what is measured, so it is fixed here and not inherited from GOGC.
const gcPercent = 100

// hashedOps is how many generated operations workload_hash covers.
const hashedOps = 4096

// workloads lists the benchmark's workloads in the order "all" runs
// them.
var workloads = []struct {
	name string
	new  func() workload
}{
	{"kv-small-tcp", func() workload { return &kvSmall{} }},
	{"file-1m-chain3", func() workload { return &file1M{} }},
	{"shuffle-batch-mem", func() workload { return &shuffleBatch{} }},
	{"ctrl-churn-mem", func() workload { return &ctrlChurn{} }},
}

func newWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.new(), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// options are the command's flags.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	traceOut  string
	smoke     bool
	selfcheck int
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 18, "seconds measured per run, split over the rounds")
	flag.IntVar(&o.trace, "trace", 0, "1 records spans and reports the per-layer metrics instead")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>.json)")
	flag.BoolVar(&o.smoke, "smoke", false, "one short round on a small data set (schema test)")
	flag.IntVar(&o.selfcheck, "selfcheck", 0, "run the benchmark K times and fail if a metric's spread exceeds its bound")
	flag.Parse()

	debug.SetGCPercent(gcPercent)

	if err := run(context.Background(), o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options, out io.Writer) error {
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		w, err := newWorkload(name)
		if err != nil {
			return err
		}
		if g := w.shape().Generators; g > runtime.NumCPU() {
			return fmt.Errorf("%s needs %d load-generator goroutines but the machine has %d CPUs",
				name, g, runtime.NumCPU())
		}
	}
	if o.selfcheck > 0 {
		return selfcheck(ctx, o, names, out)
	}
	enc := json.NewEncoder(out)
	failed := false
	for _, name := range names {
		var res result
		var err error
		if o.trace != 0 {
			res, err = runTraced(ctx, name, o, enc)
		} else {
			res, err = runMeasured(ctx, name, o, enc)
		}
		if err != nil {
			return err
		}
		if err := enc.Encode(res); err != nil {
			return err
		}
		failed = failed || !res.Correct
	}
	if failed {
		return fmt.Errorf("operations failed or results did not match the oracle")
	}
	return nil
}

// header is the first line of a workload's output.
type header struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Shape     shape   `json:"cluster"`
	NumCPU    int     `json:"num_cpu"`
	GoVersion string  `json:"go_version"`
	GCPercent int     `json:"gc_percent"`
	Rounds    int     `json:"rounds"`
	WarmupS   float64 `json:"round_warmup_s"`
	RoundS    float64 `json:"round_measured_s"`
	Traced    bool    `json:"traced"`
	Smoke     bool    `json:"smoke"`
}

func printHeader(enc *json.Encoder, name string, o options, n int, ro roundOpts) error {
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	s := w.shape()
	s.Procs = s.procs()
	return enc.Encode(map[string]header{"header": {
		Workload: name, Seed: o.seed, Shape: s,
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		GCPercent: gcPercent, Rounds: n, WarmupS: ro.warm.Seconds(), RoundS: ro.measure.Seconds(),
		Traced: o.trace != 0, Smoke: o.smoke,
	}})
}

// roundLengths splits the run's measured seconds over n rounds; the
// warm-up before each is a sixth of the round, at most two seconds.
func roundLengths(o options, n int) roundOpts {
	measure := time.Duration(o.seconds / float64(n) * float64(time.Second))
	warm := measure / 6
	if warm > 2*time.Second {
		warm = 2 * time.Second
	}
	return roundOpts{warm: warm, measure: measure, smoke: o.smoke}
}

// runMeasured runs a workload's rounds with tracing off and reports
// the median of each end-to-end metric.
func runMeasured(ctx context.Context, name string, o options, enc *json.Encoder) (result, error) {
	n := rounds
	if o.smoke {
		n = 1
	}
	ro := roundLengths(o, n)
	if err := printHeader(enc, name, o, n, ro); err != nil {
		return result{}, err
	}
	var rs []roundResult
	for i := 0; i < n; i++ {
		ro.seed = o.seed + uint64(i)
		r, err := runRound(ctx, name, ro)
		if err != nil {
			return result{}, err
		}
		if err := enc.Encode(map[string]roundResult{"round": r}); err != nil {
			return result{}, err
		}
		rs = append(rs, r)
	}
	res := result{Metrics: make(map[string]value)}
	for _, r := range rs {
		res.Attempted += r.Ops + r.Failed
		res.Failed += r.Failed
	}
	res.Correct = res.Failed == 0
	for _, m := range endToEnd {
		vs := make([]float64, len(rs))
		for i, r := range rs {
			v, ok := r.EndToEnd[m.Name]
			if !ok {
				return result{}, fmt.Errorf("round reports no %s", m.Name)
			}
			vs[i] = v
		}
		res.Metrics[m.Name] = value{stats.Median(vs), m.Unit}
	}
	return res, nil
}

// traceOutPath is where a traced run writes its spans.
func traceOutPath(o options, name string) string {
	if o.traceOut != "" {
		return o.traceOut
	}
	return filepath.Join(".bench_build", "trace-"+name+".json")
}

// runTraced runs one round with tracing off and one with spans
// recorded, on the same inputs, then the per-layer probes, and reports
// the per-layer metrics. It writes the spans and the counts taken at
// the same boundaries to the trace file.
func runTraced(ctx context.Context, name string, o options, enc *json.Encoder) (result, error) {
	const n = 2
	ro := roundLengths(o, rounds) // a third of the run each; the probes take the rest
	if err := printHeader(enc, name, o, n, ro); err != nil {
		return result{}, err
	}
	tr := newTracer()
	ro.seed = o.seed
	var rs [n]roundResult
	for i := range rs {
		if i == 1 {
			ro.tr = tr
		}
		r, err := runRound(ctx, name, ro)
		if err != nil {
			return result{}, err
		}
		if err := enc.Encode(map[string]roundResult{"round": r}); err != nil {
			return result{}, err
		}
		rs[i] = r
	}
	plain, traced := rs[0], rs[1]

	layer, err := runProbes(ctx, o.smoke, tr)
	if err != nil {
		return result{}, err
	}
	layer["client.read_p99_us"] = traced.ReadTailUs
	layer["client.write_p99_us"] = traced.WriteTailUs
	layer["client.retries"] = float64(traced.Retries)
	layer["client.map_refreshes"] = float64(traced.MapRefreshes)
	layer["controller.scale_ups"] = float64(traced.ScaleUps)
	layer["trace.overhead_share"] = 1 - traced.EndToEnd["ops_per_s"]/plain.EndToEnd["ops_per_s"]
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)          // cannot fail for RUSAGE_SELF
	layer["process.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB

	if err := writeTrace(traceOutPath(o, name), traceFile{Workload: name, Seed: o.seed,
		Sample: traceSample, Counts: traced.Calls, Retries: traced.Retries, Spans: tr.spans}); err != nil {
		return result{}, err
	}

	res := result{Metrics: make(map[string]value)}
	res.Attempted = plain.Ops + plain.Failed + traced.Ops + traced.Failed
	res.Failed = plain.Failed + traced.Failed
	res.Correct = res.Failed == 0
	for _, m := range perLayer {
		v, ok := layer[m.Name]
		if !ok {
			return result{}, fmt.Errorf("no probe produced %s", m.Name)
		}
		res.Metrics[m.Name] = value{v, m.Unit}
	}
	return res, nil
}
