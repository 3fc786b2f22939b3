package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"jiffy"
	"jiffy/benchmark/stats"
	"jiffy/internal/core"
	"jiffy/internal/dataflow"
	"jiffy/internal/mr"
	"jiffy/internal/proto"
)

// The probes in this file need a running cluster: single client
// operations on a quiet one, the cost of the replication chain, the
// controller's methods called directly, and two small applications.

// client times single operations through the public client API on a
// quiet chain-1 cluster over the in-process transport.
func (p *probes) client(ctx context.Context) error {
	e, err := probeCluster(ctx, jiffy.ClusterOptions{Servers: 2, BlocksPerServer: 32}, 4*core.MB, 1)
	if err != nil {
		return err
	}
	defer e.close()
	c := e.client

	if _, _, err := c.CreatePrefix(ctx, "probe/kv", nil, jiffy.DSKV, 1, 0); err != nil {
		return err
	}
	kv, err := c.OpenKV(ctx, "probe/kv")
	if err != nil {
		return err
	}
	const keys = 1024
	ks := make([]string, keys)
	value := make([]byte, kvValueSize)
	pairs := make([]jiffy.KVPair, kvBatch)
	for i := range ks {
		ks[i] = fmt.Sprintf("k%015d", i)
		if err := kv.Put(ctx, ks[i], value); err != nil {
			return err
		}
	}
	rng := stats.NewRand(1, 4)
	var opErr error
	note := func(err error) {
		if err != nil {
			opErr = err
		}
	}
	get := func() error { _, err := kv.Get(ctx, ks[rng.IntN(keys)]); return err }
	put := func() error { return kv.Put(ctx, ks[rng.IntN(keys)], value) }
	if p.out["client.get_p50_us"], _, err = p.latency(20_000, get); err != nil {
		return err
	}
	if p.out["client.put_p50_us"], _, err = p.latency(20_000, put); err != nil {
		return err
	}
	p.out["client.get_allocs"] = p.timed(20_000, func() { note(get()) }).allocs
	p.out["client.put_allocs"] = p.timed(20_000, func() { note(put()) }).allocs
	p.out["client.multiput64_us_per_op"] = p.timed(2_000, func() {
		for i := range pairs {
			pairs[i] = jiffy.KVPair{Key: ks[rng.IntN(keys)], Value: value}
		}
		note(kv.MultiPut(ctx, pairs))
	}).us() / kvBatch

	if _, _, err := c.CreatePrefix(ctx, "probe/file", nil, jiffy.DSFile, 1, 0); err != nil {
		return err
	}
	f, err := c.OpenFile(ctx, "probe/file")
	if err != nil {
		return err
	}
	body := make([]byte, core.MB)
	span := 0
	res := p.timed(400, func() {
		note(f.WriteAt(ctx, span%4*core.MB, body))
		span++
	})
	p.out["client.file_write1m_us"], p.out["client.file_write1m_alloc_bytes"] = res.us(), res.bytes
	p.out["client.file_read1m_us"] = p.timed(400, func() {
		got, err := f.ReadAt(ctx, span%4*core.MB, core.MB)
		if err == nil && len(got) != core.MB {
			err = fmt.Errorf("read %d bytes", len(got))
		}
		note(err)
		span++
	}).us()

	if _, _, err := c.CreatePrefix(ctx, "probe/queue", nil, jiffy.DSQueue, 1, 0); err != nil {
		return err
	}
	q, err := c.OpenQueue(ctx, "probe/queue")
	if err != nil {
		return err
	}
	const items = 10_000 // 1.28 MB, inside the queue's first segment
	p.out["client.enqueue_us"] = p.timed(items, func() { note(q.Enqueue(ctx, value)) }).us()
	p.out["client.dequeue_us"] = p.timed(items, func() { _, err := q.Dequeue(ctx); note(err) }).us()
	return opErr
}

// server measures what the replication chain adds to a write: the same
// client call on a chain of three minus on a chain of one, over tcp.
func (p *probes) server(ctx context.Context) error {
	var write1m, put [2]float64
	for i, chain := range []int{1, 3} {
		e, err := probeCluster(ctx, jiffy.ClusterOptions{Transport: "tcp", Servers: 3, BlocksPerServer: 8},
			4*core.MB, chain)
		if err != nil {
			return err
		}
		err = func() error {
			defer e.close()
			if _, _, err := e.client.CreatePrefix(ctx, "probe/file", nil, jiffy.DSFile, 1, 0); err != nil {
				return err
			}
			f, err := e.client.OpenFile(ctx, "probe/file")
			if err != nil {
				return err
			}
			body := make([]byte, core.MB)
			span := 0
			if write1m[i], _, err = p.latency(200, func() error {
				span++
				return f.WriteAt(ctx, span%4*core.MB, body)
			}); err != nil {
				return err
			}
			if _, _, err := e.client.CreatePrefix(ctx, "probe/kv", nil, jiffy.DSKV, 1, 0); err != nil {
				return err
			}
			kv, err := e.client.OpenKV(ctx, "probe/kv")
			if err != nil {
				return err
			}
			value := make([]byte, kvValueSize)
			put[i], _, err = p.latency(10_000, func() error { return kv.Put(ctx, "k", value) })
			return err
		}()
		if err != nil {
			return fmt.Errorf("chain %d: %w", chain, err)
		}
	}
	p.out["server.forward_chain3_write1m_us"] = write1m[1] - write1m[0]
	p.out["server.forward_chain3_put_us"] = put[1] - put[0]
	return nil
}

// section collects the times of one part of a probe's loop body, for
// loops whose parts are reported separately.
type section struct{ h stats.Hist }

func (s *section) time(fn func()) {
	t0 := time.Now()
	fn()
	s.h.Record(int64(time.Since(t0)))
}

// us is the part's median time in microseconds.
func (s *section) us() float64 { return s.h.Quantile(0.5) / 1e3 }

// controller calls the leader's methods directly, without the client
// and its RPC, on clusters of one and of two controllers: the
// difference is the op-log's flush-before-ack.
func (p *probes) controller(ctx context.Context) error {
	var create [2]section
	for i, members := range []int{1, 2} {
		e, err := probeCluster(ctx, jiffy.ClusterOptions{Controllers: members, ControllerShards: 2,
			Servers: 2, BlocksPerServer: 1024}, 64*core.KB, 1)
		if err != nil {
			return err
		}
		err = func() error {
			defer e.close()
			ctrl := e.cluster.Controller
			var ctrlErr error
			note := func(err error) {
				if err != nil {
					ctrlErr = err
				}
			}
			var remove section
			for n := 0; n < p.iters(1_000); n++ {
				path := core.Path("probe").MustChild("c" + strconv.Itoa(n))
				create[i].time(func() {
					_, err := ctrl.CreatePrefix(proto.CreatePrefixReq{Path: path, Type: core.DSKV, InitialBlocks: 1})
					note(err)
				})
				remove.time(func() { note(ctrl.RemovePrefix(path)) })
			}
			if members == 2 {
				return ctrlErr
			}
			p.out["controller.remove_prefix_us"] = remove.us()

			path := core.Path("probe/leased")
			_, err := ctrl.CreatePrefix(proto.CreatePrefixReq{Path: path, Type: core.DSFile, InitialBlocks: 1})
			note(err)
			p.out["controller.renew_us"] = p.timed(100_000, func() {
				_, err := ctrl.RenewLease([]core.Path{path})
				note(err)
			}).us()
			p.out["controller.lease_info_us"] = p.timed(100_000, func() {
				_, err := ctrl.LeaseInfo(path)
				note(err)
			}).us()

			// One scale-up appends one chunk to a file; the file is
			// recreated before the cluster runs out of blocks.
			var scale section
			for n := 0; n < p.iters(1_000); n++ {
				open, err := ctrl.Open(path)
				note(err)
				tail, _ := open.Map.Tail()
				scale.time(func() {
					_, err := ctrl.ScaleUp(proto.ScaleUpReq{Path: path, Block: tail.Info.ID})
					note(err)
				})
				if len(open.Map.Blocks) >= 512 {
					note(ctrl.RemovePrefix(path))
					_, err := ctrl.CreatePrefix(proto.CreatePrefixReq{Path: path, Type: core.DSFile, InitialBlocks: 1})
					note(err)
				}
			}
			p.out["controller.scale_up_us"] = scale.us()

			rng := stats.NewRand(1, 5)
			var build section
			for n := 0; n < p.iters(400); n++ {
				job := core.JobID("dag" + strconv.Itoa(n))
				note(ctrl.RegisterJob(job))
				nodes, _ := dag(rng, job, churnStandingNodes, 0)
				build.time(func() {
					note(ctrl.CreateHierarchy(proto.CreateHierarchyReq{Job: job, Nodes: nodes}))
				})
				note(ctrl.DeregisterJob(job))
			}
			p.out["controller.create_hierarchy16_us"] = build.us()
			return ctrlErr
		}()
		if err != nil {
			return fmt.Errorf("%d controllers: %w", members, err)
		}
	}
	p.out["controller.create_prefix_us"] = create[0].us()
	p.out["controller.repl_flush_us"] = create[1].us() - create[0].us()
	return nil
}

// apps runs two small applications built on the store: a map-reduce
// word count over an eighth of the shuffle-batch-mem corpus, and a
// three-vertex queue pipeline. Set beside ops_per_s of
// shuffle-batch-mem they tell whether the application layer or the
// store is the cost.
func (p *probes) apps(ctx context.Context) error {
	cfg := core.TestConfig()
	cfg.BlockSize = 256 * core.KB
	cfg.LeaseDuration = core.DefaultLeaseDuration
	cfg.LeaseScanPeriod = core.DefaultLeaseScanPeriod
	e := &env{}
	defer e.close()
	if err := e.boot(ctx, jiffy.ClusterOptions{Config: cfg, Servers: 2, BlocksPerServer: 256}); err != nil {
		return err
	}

	words := p.iters(shuffleBytes / 8 / shuffleRecord)
	rng := stats.NewRand(1, 6)
	zipf := stats.NewZipf(rng, shuffleVocab, shuffleTheta)
	workers := shuffleWorkers()
	splits := make([]strings.Builder, workers)
	for i := 0; i < words; i++ {
		fmt.Fprintf(&splits[i%workers], "w%05d ", stats.Scatter(zipf.Next(), shuffleVocab))
	}
	inputs := make([]string, workers)
	for i := range splits {
		inputs[i] = splits[i].String()
	}
	pad := strings.Repeat("x", shuffleRecord-8-6-1) // records of 100 bytes, as the workload's
	t0 := time.Now()
	res, err := mr.Run(ctx, e.client, mr.Config{
		JobID: "wordcount", Inputs: inputs, Reducers: workers,
		Map: func(split string, emit func(key, value string)) error {
			for _, w := range strings.Fields(split) {
				emit(w, pad)
			}
			return nil
		},
		Reduce: func(_ string, values []string) (string, error) { return strconv.Itoa(len(values)), nil },
	})
	if err != nil {
		return fmt.Errorf("mr: %w", err)
	}
	p.out["mr.job_ms"] = float64(time.Since(t0)) / 1e6
	counted := 0
	for _, v := range res.Output {
		n, _ := strconv.Atoi(v)
		counted += n
	}
	if counted != words {
		return fmt.Errorf("mr counted %d words of %d", counted, words)
	}

	items := p.iters(5_000)
	item := make([]byte, shuffleRecord)
	received := 0
	forward := func(ctx context.Context, in []*dataflow.Reader, out []*dataflow.Writer) error {
		for {
			it, ok, err := in[0].Read(ctx)
			if err != nil || !ok {
				return err
			}
			if len(out) == 0 {
				received++
			} else if err := out[0].Write(it); err != nil {
				return err
			}
		}
	}
	t0 = time.Now()
	err = dataflow.Run(ctx, e.client, dataflow.Graph{JobID: "pipeline", Vertices: []dataflow.Vertex{
		{Name: "source", Outputs: []string{"raw"},
			Fn: func(_ context.Context, _ []*dataflow.Reader, out []*dataflow.Writer) error {
				for i := 0; i < items; i++ {
					if err := out[0].Write(item); err != nil {
						return err
					}
				}
				return nil
			}},
		{Name: "relay", Inputs: []string{"raw"}, Outputs: []string{"relayed"}, Fn: forward},
		{Name: "sink", Inputs: []string{"relayed"}, Fn: forward},
	}})
	if err != nil {
		return fmt.Errorf("dataflow: %w", err)
	}
	p.out["dataflow.pipeline_ms"] = float64(time.Since(t0)) / 1e6
	if received != items {
		return fmt.Errorf("dataflow sink received %d items of %d", received, items)
	}
	return nil
}
