package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"jiffy"
	"jiffy/benchmark/stats"
	"jiffy/internal/alloc"
	"jiffy/internal/blockstore"
	"jiffy/internal/core"
	"jiffy/internal/cuckoo"
	"jiffy/internal/ds"
	"jiffy/internal/hierarchy"
	"jiffy/internal/persist"
	"jiffy/internal/qos"
	"jiffy/internal/rpc"
	"jiffy/internal/tier"
	"jiffy/internal/wire"
)

// The probes time calls into each layer's exported functions from
// outside, with fixed iteration counts. Their numbers say what a layer
// costs on its own; README.md lists which end-to-end metric each one
// should move, and on which workload it should not.

// cost is what one call cost on average.
type cost struct {
	ns     float64
	allocs float64
	bytes  float64
}

func (c cost) us() float64 { return c.ns / 1e3 }

// probes collects the per-layer numbers of one traced run.
type probes struct {
	smoke  bool
	tr     *tracer
	parent uint64
	out    map[string]float64
}

// iters scales an iteration count down for the schema test.
func (p *probes) iters(n int) int {
	if p.smoke {
		return max(n/20, 5)
	}
	return n
}

// timed calls fn n times in five batches. The time per call is the
// median batch's, so that one descheduling does not colour it; the
// allocation counts are exact totals over all batches.
func (p *probes) timed(n int, fn func()) cost {
	n = p.iters(n)
	const batches = 5
	per := max(n/batches, 1)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ns := make([]float64, batches)
	for b := range ns {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		ns[b] = float64(time.Since(t0)) / float64(per)
	}
	runtime.ReadMemStats(&ms1)
	calls := float64(per * batches)
	return cost{
		ns:     stats.Median(ns),
		allocs: float64(ms1.Mallocs-ms0.Mallocs) / calls,
		bytes:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / calls,
	}
}

// latency calls fn n times, timing each call, and returns the median
// and the tail (p99 when the sample allows it) in microseconds.
func (p *probes) latency(n int, fn func() error) (p50, tail float64, err error) {
	var h stats.Hist
	for i := 0; i < p.iters(n); i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		h.Record(int64(time.Since(t0)))
	}
	_, t := h.TailQuantile(0.99, 10)
	return h.Quantile(0.5) / 1e3, t / 1e3, nil
}

// group runs one layer's probes under a span of their own.
func (p *probes) group(layer string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	p.tr.span("probe:"+layer, p.parent, 0, t0, time.Now())
	if err != nil {
		return fmt.Errorf("probe %s: %w", layer, err)
	}
	return nil
}

// runProbes runs every probe and returns the per-layer numbers they
// produce, keyed by metric name.
func runProbes(ctx context.Context, smoke bool, tr *tracer) (map[string]float64, error) {
	// The probes run on a heap that holds 64 MiB, as a server holding
	// data does. On an empty heap the collector would start after every
	// few MiB allocated, and a probe that allocates 1 MiB per call
	// (a frame read, a file write) would mostly time the collector:
	// wire.frame_1m_us read twice as high without this.
	ballast := make([]byte, 64*core.MB)
	defer runtime.KeepAlive(ballast)

	t0 := time.Now()
	p := &probes{smoke: smoke, tr: tr, out: make(map[string]float64)}
	p.parent = tr.open("probes", 0, t0)
	defer func() { tr.close(p.parent, time.Now()) }()
	for _, g := range []struct {
		layer string
		fn    func(context.Context) error
	}{
		{"wire", p.wire}, {"rpc", p.rpc}, {"ds", p.ds}, {"cuckoo", p.cuckoo},
		{"blockstore", p.blockstore}, {"qos", p.qos}, {"hierarchy", p.hierarchy},
		{"tier", p.tier}, {"client", p.client}, {"server", p.server},
		{"controller", p.controller}, {"apps", p.apps},
	} {
		if err := p.group(g.layer, func() error { return g.fn(ctx) }); err != nil {
			return nil, err
		}
	}

	// The budgets: what is left of a client operation once the parts
	// measured on their own are taken away, as a share of the whole.
	o := p.out
	get := o["client.get_p50_us"]
	o["client.self_get_us"] = get - o["rpc.null_call_mem_us"] - o["blockstore.apply_get_ns"]/1e3
	o["budget.kv_get_residual_share"] = (o["client.self_get_us"] - o["qos.admit_inactive_ns"]/1e3) / get
	write := o["client.file_write1m_us"]
	o["budget.file_write1m_residual_share"] = (write - o["wire.frame_1m_us"] -
		o["rpc.null_call_mem_us"] - o["blockstore.apply_write1m_us"]) / write
	return o, nil
}

// memPipe returns the two ends of an in-process connection.
func memPipe(name string) (client, server *wire.Conn, closeAll func(), err error) {
	lis, err := wire.Listen(wire.MemPrefix + name)
	if err != nil {
		return nil, nil, nil, err
	}
	cn, err := wire.Dial(wire.MemPrefix + name)
	if err != nil {
		lis.Close()
		return nil, nil, nil, err
	}
	sn, err := lis.Accept()
	if err != nil {
		cn.Close()
		lis.Close()
		return nil, nil, nil, err
	}
	client, server = wire.NewConn(cn), wire.NewConn(sn)
	return client, server, func() { client.Close(); server.Close(); lis.Close() }, nil
}

func (p *probes) wire(context.Context) error {
	c, s, closeAll, err := memPipe("bench-probe-wire")
	if err != nil {
		return err
	}
	defer closeAll()

	// Small frames: the inline path the single-op data plane uses,
	// encode into one buffer and decode into connection-owned storage.
	small := wire.Frame{Kind: wire.KindRequest, Method: 0x0101, Payload: make([]byte, 128)}
	var buf []byte
	var ioErr error
	res := p.timed(200_000, func() {
		small.Seq++
		buf = wire.AppendFrame(buf[:0], &small)
		if err := c.WriteBytes(buf); err != nil {
			ioErr = err
		}
		if _, _, err := s.ReadFrameReused(); err != nil {
			ioErr = err
		}
	})
	if ioErr != nil {
		return ioErr
	}
	p.out["wire.frame_small_ns"], p.out["wire.frame_small_allocs"] = res.ns, res.allocs

	// 1 MiB frames: the vectored path of file reads and writes. The
	// pipe is smaller than a frame, so a second goroutine writes them
	// back to back, as fast as this one reads, until the pipe closes.
	body := make([]byte, core.MB)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for {
			f := wire.Frame{Kind: wire.KindResponse, PayloadVec: [][]byte{body}}
			if c.WriteFrame(&f) != nil {
				return
			}
		}
	}()
	res = p.timed(400, func() {
		f, err := s.ReadFrame()
		if err == nil && len(f.Payload) != len(body) {
			err = fmt.Errorf("read %d bytes of %d", len(f.Payload), len(body))
		}
		if err != nil {
			ioErr = err
		}
	})
	closeAll()
	<-writerDone
	p.out["wire.frame_1m_us"], p.out["wire.frame_1m_alloc_bytes"] = res.us(), res.bytes
	return ioErr
}

// echoServer starts an rpc server that answers every call with its
// own payload, dispatching small requests inline as the memory server
// does.
func echoServer(addr string) (*rpc.Server, string, error) {
	echo := func(_ context.Context, _ *rpc.ServerConn, _ uint16, payload []byte) (rpc.Response, error) {
		return rpc.Response{Payload: append(wire.GetBuf(), payload...)}, nil
	}
	srv := rpc.NewServer(echo, discardLog)
	srv.SetInlineHandler(echo, func(_ uint16, n int) bool { return n <= wire.InlineFrameThreshold })
	bound, err := srv.Listen(addr)
	return srv, bound, err
}

func (p *probes) rpc(ctx context.Context) error {
	payload := make([]byte, 128)
	for _, t := range []struct{ transport, addr string }{
		{"tcp", "127.0.0.1:0"}, {"mem", wire.MemPrefix + "bench-probe-rpc"},
	} {
		srv, addr, err := echoServer(t.addr)
		if err != nil {
			return err
		}
		cl, err := rpc.Dial(addr)
		if err != nil {
			srv.Close()
			return err
		}
		call := func() error {
			out, pooled, err := cl.CallBorrowedContext(ctx, 0x0101, payload)
			if pooled {
				wire.PutBuf(out)
			}
			return err
		}
		p50, tail, err := p.latency(20_000, call)
		if err == nil && t.transport == "mem" {
			var callErr error
			res := p.timed(20_000, func() {
				if err := call(); err != nil {
					callErr = err
				}
			})
			p.out["rpc.null_call_allocs"], err = res.allocs, callErr
		}
		cl.Close()
		srv.Close()
		if err != nil {
			return err
		}
		p.out["rpc.null_call_"+t.transport+"_us"] = p50
		if t.transport == "tcp" {
			p.out["rpc.null_call_tcp_p99_us"] = tail
		}
	}
	return nil
}

func (p *probes) ds(context.Context) error {
	const n = 64
	rec := make([]byte, shuffleRecord)
	ops := make([]ds.BatchOp, n)
	results := make([]ds.BatchResult, n)
	for i := range ops {
		ops[i] = ds.BatchOp{Op: core.OpFileAppend, Block: 7, Args: [][]byte{rec}}
		results[i] = ds.OKResult([][]byte{ds.U64(uint64(i * shuffleRecord))})
	}
	var req, resp []byte
	var codecErr error
	res := p.timed(20_000, func() {
		req = ds.AppendBatchRequest(req[:0], ops)
		got, err := ds.DecodeBatchRequest(req)
		if err != nil || len(got) != n {
			codecErr = fmt.Errorf("decoded %d batch ops: %v", len(got), err)
		}
		resp = ds.AppendBatchResults(resp[:0], results)
		back, err := ds.DecodeBatchResults(resp)
		if err != nil || len(back) != n {
			codecErr = fmt.Errorf("decoded %d batch results: %v", len(back), err)
		}
	})
	p.out["ds.batch_codec_ns_per_op"] = res.ns / n
	p.out["ds.batch_codec_allocs"] = res.allocs
	return codecErr
}

// heapAlloc is the live heap after a collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (p *probes) cuckoo(context.Context) error {
	n := p.iters(kvKeys)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%015d", i)
	}
	value := make([]byte, kvValueSize)
	before := heapAlloc()
	t := cuckoo.New(0)
	for _, k := range keys {
		// The table keeps the key and the value it is handed, as the
		// KV partition hands it a copy of each.
		t.Put(string(append([]byte(nil), k...)), append([]byte(nil), value...))
	}
	p.out["cuckoo.bytes_per_entry"] = float64(heapAlloc()-before) / float64(n)

	rng := stats.NewRand(1, 2)
	var missing int
	p.out["cuckoo.get_ns"] = p.timed(400_000, func() {
		if _, ok := t.Get(keys[rng.IntN(n)]); !ok {
			missing++
		}
	}).ns
	p.out["cuckoo.put_ns"] = p.timed(400_000, func() { t.Put(keys[rng.IntN(n)], value) }).ns
	if missing > 0 || t.Len() != n {
		return fmt.Errorf("table lost keys: %d lookups missed, %d of %d entries", missing, t.Len(), n)
	}
	return nil
}

// probeBlock installs a fresh partition in a store of its own.
func probeBlock(t core.DSType, capacity int) (*blockstore.Store, *blockstore.Block, error) {
	part, err := ds.New(t, capacity, core.DefaultNumHashSlots)
	if err != nil {
		return nil, nil, err
	}
	store := blockstore.NewStore(core.DefaultHighThreshold, core.DefaultLowThreshold, nil)
	b := &blockstore.Block{ID: 1, Path: "probe/b", Partition: part, Tenant: "probe"}
	return store, b, store.Create(b)
}

func (p *probes) blockstore(context.Context) error {
	var applyErr error
	note := func(_ [][]byte, err error) {
		if err != nil {
			applyErr = err
		}
	}

	// Small KV ops against one resident shard.
	store, b, err := probeBlock(core.DSKV, 4*core.MB)
	if err != nil {
		return err
	}
	const keys = 10_000
	ks := make([][]byte, keys)
	value := make([]byte, kvValueSize)
	for i := range ks {
		ks[i] = []byte(fmt.Sprintf("k%015d", i))
		note(store.ApplyOn(b, core.OpPut, [][]byte{ks[i], value}, true))
	}
	rng := stats.NewRand(1, 3)
	p.out["blockstore.apply_get_ns"] = p.timed(400_000, func() {
		note(store.ApplyOn(b, core.OpGet, [][]byte{ks[rng.IntN(keys)]}, true))
	}).ns
	p.out["blockstore.apply_put_ns"] = p.timed(400_000, func() {
		note(store.ApplyOn(b, core.OpPut, [][]byte{ks[rng.IntN(keys)], value}, true))
	}).ns

	// 1 MiB writes into a 4 MiB file chunk, as file-1m-chain3 issues.
	store, b, err = probeBlock(core.DSFile, 4*core.MB)
	if err != nil {
		return err
	}
	body := make([]byte, core.MB)
	span := 0
	res := p.timed(400, func() {
		note(store.ApplyOn(b, core.OpFileWrite, [][]byte{ds.U64(uint64(span % 4 * core.MB)), body}, true))
		span++
	})
	p.out["blockstore.apply_write1m_us"] = res.us()
	p.out["blockstore.apply_write1m_alloc_bytes"] = res.bytes

	// Batched record appends filling 256 KiB chunks, as
	// shuffle-batch-mem issues: thresholds are checked once per batch,
	// and a full chunk is replaced by a fresh one.
	rec := [][]byte{make([]byte, shuffleRecord)}
	perChunk := 256 * core.KB / shuffleRecord / shuffleBatchSize
	batch := perChunk
	res = p.timed(8_000, func() {
		if batch == perChunk {
			store, b, err = probeBlock(core.DSFile, 256*core.KB)
			if err != nil {
				applyErr = err
				return
			}
			batch = 0
		}
		for i := 0; i < shuffleBatchSize; i++ {
			note(store.ApplyOn(b, core.OpFileAppend, rec, false))
		}
		store.CheckThresholds(b)
		batch++
	})
	p.out["blockstore.apply_append_batch_ns_per_op"] = res.ns / shuffleBatchSize
	return applyErr
}

func (p *probes) qos(ctx context.Context) error {
	var admitErr error
	admit := func(g *qos.Gate) func() {
		return func() {
			release, err := g.Admit(ctx, "probe", 1, kvValueSize)
			if err != nil {
				admitErr = err
			}
			if release != nil {
				release()
			}
		}
	}
	// No quota registered: the gate every workload here passes through.
	p.out["qos.admit_inactive_ns"] = p.timed(2_000_000, admit(qos.NewGate(qos.Options{}))).ns
	// A quota far above the offered rate: the full path, never refusing.
	active := qos.NewGate(qos.Options{Concurrency: 64})
	active.SetQuota("probe", core.Quota{OpsPerSec: 1e12, BytesPerSec: 1e15})
	p.out["qos.admit_active_ns"] = p.timed(400_000, admit(active)).ns
	return admitErr
}

func (p *probes) hierarchy(context.Context) error {
	// A job of 1024 tasks: 32 stages of 32, each task consuming one task
	// of the stage before, so that renewing the first stage's parent
	// walks the whole DAG and the deepest path has 32 components.
	const stages, width = 32, 32
	now := time.Now()
	before := heapAlloc()
	h := hierarchy.New("probe", time.Second, now)
	prev := make([]core.Path, width)
	for i := range prev {
		prev[i] = "probe"
	}
	var deepest core.Path
	for s := 0; s < stages; s++ {
		for i := 0; i < width; i++ {
			path := prev[i].MustChild(fmt.Sprintf("s%dt%d", s, i))
			if _, err := h.Create(path, nil, core.DSNone, time.Second, now); err != nil {
				return err
			}
			prev[i], deepest = path, path
		}
	}
	p.out["hierarchy.metadata_bytes_per_node"] = float64(heapAlloc()-before) / float64(stages*width)

	var walkErr error
	p.out["hierarchy.renew_1k_ns"] = p.timed(400, func() {
		now = now.Add(time.Millisecond)
		if n, err := h.Renew("probe", now); err != nil || n != stages*width+1 {
			walkErr = fmt.Errorf("renewed %d nodes: %v", n, err)
		}
	}).ns
	p.out["hierarchy.resolve_ns"] = p.timed(100_000, func() {
		if _, err := h.Resolve(deepest); err != nil {
			walkErr = err
		}
	}).ns

	a := alloc.New()
	for _, srv := range []string{"s1", "s2"} {
		if _, err := a.RegisterServer(srv, 2048); err != nil {
			return err
		}
	}
	p.out["alloc.allocate_free_ns"] = p.timed(400_000, func() {
		blocks, err := a.Allocate(1)
		if err != nil {
			walkErr = err
		}
		a.Free(blocks)
	}).ns
	runtime.KeepAlive(h)
	return walkErr
}

func (p *probes) tier(context.Context) error {
	var tierErr error
	obj := tier.Object{Block: 7, Gen: 1, Type: core.DSFile, Capacity: 4 * core.MB, Snapshot: make([]byte, core.MB)}
	p.out["tier.codec_1m_us"] = p.timed(200, func() {
		if _, err := tier.Decode(tier.Encode(obj)); err != nil {
			tierErr = err
		}
	}).us()

	now := time.Now()
	resident := make([]tier.Candidate, 1000)
	for i := range resident {
		resident[i] = tier.Candidate{ID: core.BlockID(i), Bytes: core.MB,
			LastAccess: now.Add(-time.Duration(i*7919%1000) * time.Second), PromotedAt: now.Add(-time.Hour)}
	}
	policy := tier.Policy{WatermarkBytes: 500 * core.MB, Cooldown: time.Minute}
	p.out["tier.plan_1k_us"] = p.timed(2_000, func() {
		if got := len(policy.Plan(now, resident)); got != 500 {
			tierErr = fmt.Errorf("plan demotes %d blocks, want 500", got)
		}
	}).us()

	store := persist.NewMemStore()
	blob := make([]byte, 64*core.KB)
	p.out["persist.mem_put_get_64k_us"] = p.timed(20_000, func() {
		if err := store.Put("probe", blob); err != nil {
			tierErr = err
		}
		if got, err := store.Get("probe"); err != nil || len(got) != len(blob) {
			tierErr = fmt.Errorf("got %d bytes back: %v", len(got), err)
		}
	}).us()
	return tierErr
}

// probeCluster boots a quiet cluster for the probes that need one.
func probeCluster(ctx context.Context, opts jiffy.ClusterOptions, blockSize, chain int) (*env, error) {
	cfg := core.TestConfig()
	cfg.BlockSize = blockSize
	cfg.ChainLength = chain
	cfg.LeaseDuration = time.Hour
	opts.Config = cfg
	e := &env{}
	if err := e.boot(ctx, opts); err != nil {
		e.close()
		return nil, err
	}
	if err := e.client.RegisterJob(ctx, "probe"); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}
