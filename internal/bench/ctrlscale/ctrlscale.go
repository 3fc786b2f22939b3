// Package ctrlscale measures the controller metadata plane's shard
// scaling (the paper's Fig. 12(b) claim): create/lookup/renew
// throughput against a metadata set sized in blocks, driven directly
// in-process so shard-lock contention — not the RPC stack — is the
// measured variable. Measure is the one body: jiffy-bench fig12b prints
// it per shard count, and the regress gate (jiffy-regress -ctrl-scale)
// compares N shards against the single-lock baseline and fails when the
// speedup falls below the claimed floor.
package ctrlscale

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jiffy/internal/controller"
	"jiffy/internal/core"
	"jiffy/internal/proto"
)

// Params sizes the measured metadata plane.
type Params struct {
	// Blocks is the allocator population (the paper's 10^6-block
	// scale point; quick mode drops an order of magnitude).
	Blocks int
	// Jobs is the number of independent hierarchies, hashed across
	// shards.
	Jobs int
	// Workers is the closed-loop load generator count.
	Workers int
	// Duration is the measurement window per shard configuration.
	Duration time.Duration
}

// DefaultParams returns the full-scale (10^6 blocks) or quick (10^5)
// profile.
func DefaultParams(quick bool) Params {
	p := Params{
		Blocks:   1_000_000,
		Jobs:     512,
		Workers:  2 * runtime.GOMAXPROCS(0),
		Duration: time.Second,
	}
	if quick {
		p.Blocks = 100_000
		p.Jobs = 128
		p.Duration = 300 * time.Millisecond
	}
	return p
}

// Result is one shard-count measurement.
type Result struct {
	Shards  int
	Workers int
	Jobs    int
	Blocks  int
	KOps    float64
}

// Measure runs the closed-loop metadata workload against a controller
// with the given shard count: the allocator is populated to
// Params.Blocks via virtual server registrations, Params.Jobs
// hierarchies are spread across the shards, and every worker loop
// issues the §4.1 control ops — a lease lookup, a lease renewal, and
// periodically a create/remove pair of a transient hierarchy node.
// No data plane is attached: the ops touch only shard-scoped metadata,
// so the single-lock vs sharded comparison isolates the lock domain.
func Measure(shards int, p Params) (Result, error) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour // nothing expires mid-benchmark
	ctrl, err := controller.New(controller.Options{
		Config: cfg, Shards: shards, DisableExpiry: true,
	})
	if err != nil {
		return Result{}, err
	}
	defer ctrl.Close()

	// Virtual fleet: registration populates the allocator without
	// probing the servers, so the block count scales freely.
	const vServers = 64
	per := p.Blocks / vServers
	if per < 1 {
		per = 1
	}
	for i := 0; i < vServers; i++ {
		if _, err := ctrl.RegisterServer(fmt.Sprintf("mem://ctrlscale-srv-%d", i), per); err != nil {
			return Result{}, err
		}
	}
	paths := make([]core.Path, p.Jobs)
	for j := range paths {
		job := core.JobID(fmt.Sprintf("sj%d", j))
		if err := ctrl.RegisterJob(job); err != nil {
			return Result{}, err
		}
		if err := ctrl.CreateHierarchy(proto.CreateHierarchyReq{
			Job:   job,
			Nodes: []proto.DagNode{{Name: "stage", Type: core.DSNone}},
		}); err != nil {
			return Result{}, err
		}
		paths[j] = core.Path(fmt.Sprintf("sj%d/stage", j))
	}

	var ops atomic.Int64
	var failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < p.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i += p.Workers {
				select {
				case <-stop:
					return
				default:
				}
				path := paths[i%len(paths)]
				if _, err := ctrl.LeaseInfo(path); err != nil {
					failed.Add(1)
					return
				}
				if _, err := ctrl.RenewLease([]core.Path{path}); err != nil {
					failed.Add(1)
					return
				}
				n := int64(2)
				if i%8 == 0 {
					job := path.Job()
					name := fmt.Sprintf("t%d", w)
					if err := ctrl.CreateHierarchy(proto.CreateHierarchyReq{
						Job:   job,
						Nodes: []proto.DagNode{{Name: name, Type: core.DSNone}},
					}); err != nil {
						failed.Add(1)
						return
					}
					if err := ctrl.RemovePrefix(core.Path(string(job)).MustChild(name)); err != nil {
						failed.Add(1)
						return
					}
					n += 2
				}
				ops.Add(n)
			}
		}(w)
	}
	time.Sleep(p.Duration)
	close(stop)
	wg.Wait()
	if failed.Load() > 0 {
		return Result{}, fmt.Errorf("ctrlscale: %d worker(s) died mid-measurement", failed.Load())
	}
	return Result{
		Shards:  shards,
		Workers: p.Workers,
		Jobs:    p.Jobs,
		Blocks:  p.Blocks,
		KOps:    float64(ops.Load()) / p.Duration.Seconds() / 1000,
	}, nil
}

// ScaledShards is the shard count the gate compares against the
// single-lock baseline — the paper's 8-core point, never below two.
func ScaledShards() int {
	s := runtime.GOMAXPROCS(0)
	if s > 8 {
		s = 8
	}
	if s < 2 {
		s = 2
	}
	return s
}

// Gate measures the single-lock baseline and the sharded configuration
// best-of-rounds and returns both plus the speedup. Best-of-N per side:
// scheduler interference only ever slows a round down, so the fastest
// round of each side is the closest estimate of its actual capacity
// and the ratio stops flapping on busy runners.
func Gate(quick bool, rounds int, log func(format string, args ...interface{})) (base, scaled Result, ratio float64, err error) {
	if rounds < 1 {
		rounds = 1
	}
	p := DefaultParams(quick)
	shards := ScaledShards()
	for round := 0; round < rounds; round++ {
		b, err := Measure(1, p)
		if err != nil {
			return base, scaled, 0, err
		}
		if b.KOps > base.KOps {
			base = b
		}
		s, err := Measure(shards, p)
		if err != nil {
			return base, scaled, 0, err
		}
		if s.KOps > scaled.KOps {
			scaled = s
		}
		if log != nil {
			log("ctrl-scale round %d: 1 shard %.1f KOps, %d shards %.1f KOps\n",
				round+1, b.KOps, shards, s.KOps)
		}
	}
	if base.KOps <= 0 {
		return base, scaled, 0, fmt.Errorf("ctrlscale: baseline measured zero throughput")
	}
	return base, scaled, scaled.KOps / base.KOps, nil
}
