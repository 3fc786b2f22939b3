package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"jiffy"
	"jiffy/benchmark/stats"
	"jiffy/internal/core"
	"jiffy/internal/proto"
)

// ctrlChurn is the ctrl-churn-mem workload: short-lived jobs register,
// build a hierarchy, create and remove prefixes and renew leases
// against a replicated, sharded controller that already holds a
// thousand live nodes. The data path does almost nothing; controller
// shard locks, hierarchy walks, the allocator and the op-log's
// flush-before-ack replication do all of it. No data-path change
// should move it.
//
// Like kv-small-tcp it runs on one P, for the same reason: one
// closed-loop caller makes every call a serial chain of goroutine
// hand-offs (caller, leader, op-log stream, standby and back), and on
// two Ps each of them crosses CPUs. Ten runs on two Ps, taken in turns
// with ten on one, spread 9 to 12 % against 3 to 5 %, at three quarters
// of the speed.
type ctrlChurn struct {
	env
	rng      *rand.Rand
	renewer  *jiffy.Renewer
	standing []core.JobID
	free     int // free blocks with only the standing jobs alive
	cycles   int
	value    []byte
	held     int64
}

const (
	churnStandingJobs      = 64
	churnStandingJobsSmoke = 8
	churnStandingNodes     = 16
	churnStandingKVs       = 4  // nodes of a standing job that hold data
	churnStandingPuts      = 16 // values each of them holds
	churnNodes             = 8
	churnPrefixes          = 4
	churnRenews            = 8
	churnValueSize         = core.KB
	// churnWarmCycles is how many cycles set-up runs before the
	// round's warm-up: a cycle takes a few milliseconds, and without
	// them set-up would be tens of milliseconds, too short to be
	// steady.
	churnWarmCycles      = 128
	churnWarmCyclesSmoke = 16
	churnRenewEvery      = 250 * time.Millisecond
)

const (
	churnRead = iota
	churnWrite
	churnData
)

func (w *ctrlChurn) calls() []callDef {
	return []callDef{
		churnRead:  {"client.control-read", kindRead},
		churnWrite: {"client.control-write", kindWrite},
		churnData:  {"client.KV.Put", kindOther},
	}
}

func (w *ctrlChurn) shape() shape {
	return shape{Transport: "mem", Controllers: 2, Servers: 2, BlocksPerServer: 2048,
		ChainLength: 1, BlockSize: 64 * core.KB, Generators: 1, Procs: 1}
}

// dag draws a random execution DAG of n tasks: every task but the
// first consumes one or two earlier tasks. It returns the nodes in
// parents-before-children order and each node's canonical path, which
// runs through its first parent.
func dag(rng *rand.Rand, job core.JobID, n int, kvs int) ([]jiffy.DagNode, []core.Path) {
	nodes := make([]jiffy.DagNode, n)
	paths := make([]core.Path, n)
	for i := range nodes {
		nodes[i].Name = fmt.Sprintf("t%d", i)
		paths[i] = core.Path(job).MustChild(nodes[i].Name)
		if i > 0 {
			first := rng.IntN(i)
			nodes[i].Parents = []string{nodes[first].Name}
			paths[i] = paths[first].MustChild(nodes[i].Name)
			if second := rng.IntN(i); second != first {
				nodes[i].Parents = append(nodes[i].Parents, nodes[second].Name)
			}
		}
		if i >= n-kvs {
			nodes[i].Type, nodes[i].InitialBlocks = jiffy.DSKV, 1
		}
	}
	return nodes, paths
}

func (w *ctrlChurn) setup(ctx context.Context, seed uint64, smoke bool) error {
	s := w.shape()
	cfg := core.TestConfig()
	cfg.BlockSize = s.BlockSize
	cfg.LeaseDuration = core.DefaultLeaseDuration
	cfg.LeaseScanPeriod = core.DefaultLeaseScanPeriod
	if err := w.boot(ctx, jiffy.ClusterOptions{Config: cfg, Transport: s.Transport,
		Controllers: s.Controllers, ControllerShards: 2,
		Servers: s.Servers, BlocksPerServer: s.BlocksPerServer}); err != nil {
		return err
	}
	w.rng = stats.NewRand(seed, 1)
	w.value = make([]byte, churnValueSize)
	for i := range w.value {
		w.value[i] = byte(w.rng.Uint32())
	}

	// The standing jobs: live metadata that lease scans and renewals
	// walk for the whole round. The renewer keeps them alive; nothing
	// ever expires.
	jobs, warm := churnStandingJobs, churnWarmCycles
	if smoke {
		jobs, warm = churnStandingJobsSmoke, churnWarmCyclesSmoke
	}
	w.renewer = w.client.StartRenewer(churnRenewEvery)
	for j := 0; j < jobs; j++ {
		job := core.JobID(fmt.Sprintf("standing%02d", j))
		if err := w.client.RegisterJob(ctx, job); err != nil {
			return err
		}
		nodes, paths := dag(w.rng, job, churnStandingNodes, churnStandingKVs)
		if err := w.client.CreateHierarchy(ctx, job, nodes, 0); err != nil {
			return err
		}
		w.renewer.Add(core.Path(job))
		for i, n := range nodes {
			for _, p := range n.Parents {
				for _, b := range []byte(p) {
					w.sum.Add(uint64(b))
				}
			}
			if n.Type != jiffy.DSKV {
				continue
			}
			kv, err := w.client.OpenKV(ctx, paths[i])
			if err != nil {
				return err
			}
			for k := 0; k < churnStandingPuts; k++ {
				if err := kv.Put(ctx, fmt.Sprintf("k%d", k), w.value); err != nil {
					return err
				}
				w.held += churnValueSize
			}
		}
		w.standing = append(w.standing, job)
	}
	w.free = w.cluster.Controller.Stats().FreeBlocks

	rec := newRecorder(w.calls(), time.Second, nil, 0)
	rec.begin = time.Now()
	for i := 0; i < warm; i++ {
		w.cycle(ctx, rec)
	}
	if rec.failed > 0 {
		return fmt.Errorf("warm cycle: %w", rec.firstErr)
	}
	return nil
}

func (w *ctrlChurn) drive(ctx context.Context, d time.Duration, rec *recorder) error {
	for {
		w.cycle(ctx, rec)
		if err := rec.tooManyFailures(); err != nil {
			return err
		}
		if time.Since(rec.begin) >= d {
			return nil
		}
	}
}

// cycle is the life of one short job; every client call in it is one
// operation. A step that fails is recorded and the rest of the cycle
// still runs, so that the job is always deregistered.
func (w *ctrlChurn) cycle(ctx context.Context, rec *recorder) {
	w.cycles++
	job := core.JobID(fmt.Sprintf("churn%d", w.cycles))
	// step times one client call; check, when set, compares its result
	// with the model after the clock has stopped.
	step := func(call int, bytes int, fn, check func() error) {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		if err == nil && check != nil {
			err = check()
		}
		rec.done(call, t0, t1, 1, bytes, err)
	}

	step(churnWrite, 0, func() error { return w.client.RegisterJob(ctx, job) }, nil)
	nodes, paths := dag(w.rng, job, churnNodes, 0)
	step(churnWrite, 0, func() error { return w.client.CreateHierarchy(ctx, job, nodes, 0) }, nil)
	want := []core.Path{core.Path(job)}
	want = append(want, paths...)

	prefixes := make([]core.Path, churnPrefixes)
	for i := range prefixes {
		prefixes[i] = core.Path(job).MustChild(fmt.Sprintf("kv%d", i))
		step(churnWrite, 0, func() error {
			_, _, err := w.client.CreatePrefix(ctx, prefixes[i], nil, jiffy.DSKV, 1, 0)
			return err
		}, nil)
	}
	want = append(want, prefixes...)
	for _, p := range prefixes {
		var kv *jiffy.KV
		step(churnRead, 0, func() (err error) {
			kv, err = w.client.OpenKV(ctx, p)
			return err
		}, nil)
		if kv != nil {
			step(churnData, churnValueSize, func() error { return kv.Put(ctx, "k", w.value) }, nil)
		}
	}

	for i := 0; i < churnRenews; i++ {
		p := paths[w.rng.IntN(len(paths))]
		step(churnRead, 0, func() error {
			_, err := w.client.RenewLease(ctx, p)
			return err
		}, nil)
		var lease time.Duration
		step(churnRead, 0, func() (err error) {
			lease, err = w.client.LeaseDuration(ctx, p)
			return err
		}, func() error {
			if lease != core.DefaultLeaseDuration {
				return fmt.Errorf("lease of %s is %v: %w", p, lease, errMismatch)
			}
			return nil
		})
	}

	var listed []proto.PrefixInfo
	step(churnRead, 0, func() (err error) {
		listed, err = w.client.ListPrefixes(ctx, job)
		return err
	}, func() error { return samePaths(listed, want) })
	for _, p := range prefixes {
		step(churnWrite, 0, func() error { return w.client.RemovePrefix(ctx, p) }, nil)
	}
	step(churnWrite, 0, func() error { return w.client.DeregisterJob(ctx, job) }, nil)

	if free := w.cluster.Controller.Stats().FreeBlocks; free != w.free {
		rec.done(churnWrite, time.Time{}, time.Time{}, 1, 0,
			fmt.Errorf("%d blocks free after %s, %d before: %w", free, job, w.free, errMismatch))
	}
}

// samePaths checks a ListPrefixes answer against the model as a set.
func samePaths(got []proto.PrefixInfo, want []core.Path) error {
	if len(got) != len(want) {
		return fmt.Errorf("listed %d prefixes, want %d: %w", len(got), len(want), errMismatch)
	}
	g := make([]string, len(got))
	for i, p := range got {
		g[i] = string(p.Path)
	}
	v := make([]string, len(want))
	for i, p := range want {
		v[i] = string(p)
	}
	sort.Strings(g)
	sort.Strings(v)
	for i := range g {
		if g[i] != v[i] {
			return fmt.Errorf("listed %q, want %q: %w", g[i], v[i], errMismatch)
		}
	}
	return nil
}

func (w *ctrlChurn) residentHeap(_ context.Context, measure func()) (int64, error) {
	measure()
	return w.held, nil
}

// verify checks that the standby holds what the leader holds: acks
// wait for the op-log flush, so no lag is allowed.
func (w *ctrlChurn) verify(ctx context.Context) error {
	w.renewer.Stop()
	lead, standby := w.cluster.Controllers[0], w.cluster.Controllers[1]
	l, s := lead.Stats(), standby.Stats()
	if l.Jobs != s.Jobs || l.Prefixes != s.Prefixes || l.Jobs != len(w.standing) {
		return fmt.Errorf("standby holds %d jobs / %d prefixes, leader %d / %d, want %d jobs: %w",
			s.Jobs, s.Prefixes, l.Jobs, l.Prefixes, len(w.standing), errMismatch)
	}
	for _, job := range w.standing {
		lp, err := lead.ListPrefixes(job)
		if err != nil {
			return err
		}
		sp, err := standby.ListPrefixes(job)
		if err != nil {
			return fmt.Errorf("standby: %w", err)
		}
		want := make([]core.Path, len(lp.Prefixes))
		for i, p := range lp.Prefixes {
			want[i] = p.Path
		}
		if err := samePaths(sp.Prefixes, want); err != nil {
			return fmt.Errorf("standby, job %s: %w", job, err)
		}
	}
	return nil
}
