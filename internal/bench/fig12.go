package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jiffy/internal/controller"
	"jiffy/internal/core"
	"jiffy/internal/metrics"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
)

// Fig12a reproduces the paper's Fig. 12(a): controller throughput vs.
// latency on a single shard (the paper's single CPU core), driving the
// live RPC stack with closed-loop clients issuing lease renewals — the
// dominant control-plane operation. The curve rises to the saturation
// throughput (paper: ~42 KOps at ~370µs).
func Fig12a(w io.Writer, opts Options) error {
	concurrencies := []int{1, 2, 4, 8, 16, 32, 64}
	duration := 600 * time.Millisecond
	if opts.Quick {
		concurrencies = []int{1, 4, 16}
		duration = 200 * time.Millisecond
	}
	tbl := metrics.NewTable("Fig. 12(a): controller throughput vs latency (1 shard)",
		"clients", "throughput(KOps)", "mean latency", "p99 latency")
	for _, conc := range concurrencies {
		kops, mean, p99, err := controllerLoad(1, conc, duration)
		if err != nil {
			return err
		}
		tbl.AddRow(conc, kops, mean, p99)
	}
	fprintln(w, "%s", tbl.String())
	return nil
}

// Fig12b reproduces the paper's Fig. 12(b): controller throughput as
// shards (cores) are added. Jobs hash-partition across shards with
// independent locks, so throughput scales with shard count until the
// machine's cores are saturated (the paper scales to 64 cores;
// laptop-scale runs flatten at NumCPU).
func Fig12b(w io.Writer, opts Options) error {
	shardCounts := []int{1, 2, 4, 8}
	duration := 600 * time.Millisecond
	if opts.Quick {
		shardCounts = []int{1, 4}
		duration = 200 * time.Millisecond
	}
	tbl := metrics.NewTable(
		fmt.Sprintf("Fig. 12(b): controller throughput scaling (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)),
		"shards", "throughput(KOps)", "speedup")
	base := 0.0
	for _, shards := range shardCounts {
		kops, _, _, err := controllerLoad(shards, 4*shards, duration)
		if err != nil {
			return err
		}
		if base == 0 {
			base = kops
		}
		tbl.AddRow(shards, kops, kops/base)
	}
	fprintln(w, "%s", tbl.String())
	return nil
}

var fig12Seq atomic.Int64

// controllerLoad drives a live controller over the framed RPC stack
// with closed-loop renewal clients and reports throughput and latency.
func controllerLoad(shards, clients int, duration time.Duration) (kops float64, mean, p99 time.Duration, err error) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour // nothing expires mid-benchmark
	ctrl, err := controller.New(controller.Options{
		Config: cfg, Shards: shards, DisableExpiry: true,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer ctrl.Close()
	addr, err := ctrl.Listen(fmt.Sprintf("mem://fig12-%d", fig12Seq.Add(1)))
	if err != nil {
		return 0, 0, 0, err
	}

	// One job (and hierarchy) per client, spread across shards.
	paths := make([]core.Path, clients)
	for i := range paths {
		job := core.JobID(fmt.Sprintf("loadjob%d", i))
		if err := ctrl.RegisterJob(job); err != nil {
			return 0, 0, 0, err
		}
		paths[i] = core.Path(string(job))
	}

	var ops atomic.Int64
	hist := metrics.NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cl, err := rpc.Dial(addr)
		if err != nil {
			return 0, 0, 0, err
		}
		wg.Add(1)
		go func(cl *rpc.Client, path core.Path) {
			defer wg.Done()
			defer cl.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				if _, err := rpc.Invoke(context.Background(), cl, proto.RenewLease,
					proto.RenewLeaseReq{Paths: []core.Path{path}}); err != nil {
					return
				}
				hist.Record(time.Since(start))
				ops.Add(1)
			}
		}(cl, paths[i])
	}
	time.Sleep(duration)
	close(stop)
	wg.Wait()
	total := ops.Load()
	return float64(total) / duration.Seconds() / 1000, hist.Mean(), hist.Percentile(99), nil
}
