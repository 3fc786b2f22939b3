package bench

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"jiffy"
	"jiffy/internal/core"
	"jiffy/internal/metrics"
	"jiffy/internal/proto"
	"jiffy/internal/trace"
)

// Fig11a reproduces the paper's Fig. 11(a): allocated vs. used memory
// over time for each built-in data structure (FIFO queue, file,
// KV-store) under a bursty write/consume workload with short leases —
// demonstrating lease-based reclamation tracking the data's useful
// life. The KV-store is driven with Zipf-distributed keys, which
// (as in the paper) causes skewed splits and transient
// over-allocation.
func Fig11a(w io.Writer, opts Options) error {
	window := 6 * time.Second
	if opts.Quick {
		window = 2 * time.Second
	}
	for _, structure := range []core.DSType{core.DSQueue, core.DSFile, core.DSKV} {
		used, allocated, err := runLifetimeTrace(structure, window, opts)
		if err != nil {
			return fmt.Errorf("fig11a %v: %w", structure, err)
		}
		fprintln(w, "== Fig. 11(a) %s: normalized storage over time ==", structure)
		peak := allocated.Max()
		printSeries(w, "allocated", allocated.Normalize(peak), 20)
		printSeries(w, "used (intermediate data)", used.Normalize(peak), 20)
		eff := 0.0
		if allocated.Integral() > 0 {
			eff = used.Integral() / allocated.Integral() * 100
		}
		fprintln(w, "%s: time-averaged used/allocated = %.1f%%", structure, eff)
		fprintln(w, "")
	}
	return nil
}

// runLifetimeTrace drives one data structure through write → consume →
// idle phases and samples used/allocated bytes.
func runLifetimeTrace(structure core.DSType, window time.Duration, opts Options) (used, allocated *metrics.Series, err error) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = 400 * time.Millisecond
	cfg.LeaseScanPeriod = 50 * time.Millisecond
	cluster, err := jiffy.StartCluster(jiffy.ClusterOptions{
		Config: cfg, Servers: 2, BlocksPerServer: 128,
	})
	if err != nil {
		return nil, nil, err
	}
	defer cluster.Close()
	c, err := cluster.Connect(context.Background())
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	if err := c.RegisterJob(context.Background(), "fig11a"); err != nil {
		return nil, nil, err
	}
	path := core.MustPath("fig11a", "ds")
	if _, _, err := c.CreatePrefix(context.Background(), path, nil, structure, 1, 0); err != nil {
		return nil, nil, err
	}
	renewer := c.StartRenewer(100*time.Millisecond, path)

	used = &metrics.Series{Name: "used"}
	allocated = &metrics.Series{Name: "allocated"}
	var mu sync.Mutex
	stop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		ticker := time.NewTicker(50 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				var u int
				for _, s := range cluster.Servers {
					_, ub := s.Store().Stats()
					u += ub
				}
				stats, err := c.ControllerStats(context.Background())
				if err != nil {
					continue
				}
				mu.Lock()
				now := time.Now()
				used.Add(now, float64(u))
				allocated.Add(now, float64(stats.AllocatedBlocks*cfg.BlockSize))
				mu.Unlock()
			}
		}
	}()

	// Phase 1 (first third): write a paced burst of data, sized well
	// inside the pool (2 servers × 128 × 64KB = 16MB) so scaling is
	// driven by the structure filling blocks, not pool exhaustion.
	phase := window / 3
	item := make([]byte, 2*core.KB)
	const totalWrites = 1500 // ~3MB
	pace := phase / totalWrites
	zipf := trace.ZipfKeys(opts.seed(), 1.2, 4096)
	q, f, kv, err := openHandles(c, path, structure)
	if err != nil {
		return nil, nil, err
	}
	writeUntil := time.Now().Add(phase)
	for writes := 0; writes < totalWrites && time.Now().Before(writeUntil); writes++ {
		switch structure {
		case core.DSQueue:
			err = q.Enqueue(context.Background(), item)
		case core.DSFile:
			_, err = f.AppendRecord(context.Background(), item)
		case core.DSKV:
			err = kv.Put(context.Background(), zipf(), item)
		}
		if err != nil {
			return nil, nil, err
		}
		if writes%8 == 0 {
			time.Sleep(8 * pace)
		}
	}
	// Phase 2 (second third): consume.
	consumeUntil := time.Now().Add(window / 3)
	for time.Now().Before(consumeUntil) {
		switch structure {
		case core.DSQueue:
			if _, err := q.Dequeue(context.Background()); err != nil {
				time.Sleep(5 * time.Millisecond)
			}
		case core.DSFile:
			f.ReadAt(context.Background(), 0, 64*core.KB)
			time.Sleep(time.Millisecond)
		case core.DSKV:
			kv.Get(context.Background(), zipf())
			time.Sleep(time.Millisecond)
		}
	}
	// Phase 3: stop renewing; the lease lapses and Jiffy reclaims.
	renewer.Stop()
	time.Sleep(window / 3)

	close(stop)
	samplerWG.Wait()
	mu.Lock()
	defer mu.Unlock()
	return used, allocated, nil
}

func openHandles(c *jiffy.Client, path core.Path, structure core.DSType) (*jiffy.Queue, *jiffy.File, *jiffy.KV, error) {
	switch structure {
	case core.DSQueue:
		q, err := c.OpenQueue(context.Background(), path)
		return q, nil, nil, err
	case core.DSFile:
		f, err := c.OpenFile(context.Background(), path)
		return nil, f, nil, err
	case core.DSKV:
		kv, err := c.OpenKV(context.Background(), path)
		return nil, nil, kv, err
	}
	return nil, nil, nil, fmt.Errorf("bench: unsupported structure %v", structure)
}

// Fig11b reproduces the paper's Fig. 11(b): the CDF of per-block data
// repartitioning latency for the three data structures (left), and the
// latency of KV gets before vs. during repartitioning (right),
// demonstrating that repartitioning barely perturbs foreground
// operations.
func Fig11b(w io.Writer, opts Options) error {
	splits := 30
	if opts.Quick {
		splits = 8
	}
	cfg := core.TestConfig()
	cfg.BlockSize = 256 * core.KB
	cfg.LeaseDuration = time.Minute
	cluster, err := jiffy.StartCluster(jiffy.ClusterOptions{
		Config: cfg, Servers: 2, BlocksPerServer: 256,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()
	c, err := cluster.Connect(context.Background())
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.RegisterJob(context.Background(), "fig11b"); err != nil {
		return err
	}

	// --- repartition latency per structure -----------------------------
	for _, structure := range []core.DSType{core.DSQueue, core.DSFile, core.DSKV} {
		h := metrics.NewHistogram()
		for i := 0; i < splits; i++ {
			d, err := measureScaleUp(c, cluster, structure, i)
			if err != nil {
				return fmt.Errorf("fig11b %v: %w", structure, err)
			}
			h.Record(d)
		}
		fprintln(w, "== Fig. 11(b) left: %s repartition latency ==", structure)
		for _, p := range h.CDF(11) {
			fprintln(w, "%.2f  %v", p.Fraction, p.Value)
		}
		fprintln(w, "summary: %s", h.Summary())
		fprintln(w, "")
	}

	// --- op latency before vs during KV repartitioning -----------------
	path := core.MustPath("fig11b", "live")
	if _, _, err := c.CreatePrefix(context.Background(), path, nil, core.DSKV, 1, 0); err != nil {
		return err
	}
	kv, err := c.OpenKV(context.Background(), path)
	if err != nil {
		return err
	}
	val := make([]byte, 8*core.KB)
	// Preload some keys to read.
	for i := 0; i < 16; i++ {
		if err := kv.Put(context.Background(), fmt.Sprintf("read-%d", i), val); err != nil {
			return err
		}
	}
	before := metrics.NewHistogram()
	for i := 0; i < 300; i++ {
		start := time.Now()
		if _, err := kv.Get(context.Background(), fmt.Sprintf("read-%d", i%16)); err != nil {
			return err
		}
		before.Record(time.Since(start))
	}
	// Background writer forces continuous splits while we read.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		writer, err := c.OpenKV(context.Background(), path)
		if err != nil {
			return
		}
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
				writer.Put(context.Background(), fmt.Sprintf("fill-%d", i), val)
				i++
			}
		}
	}()
	during := metrics.NewHistogram()
	for i := 0; i < 300; i++ {
		start := time.Now()
		if _, err := kv.Get(context.Background(), fmt.Sprintf("read-%d", i%16)); err != nil {
			return err
		}
		during.Record(time.Since(start))
	}
	close(stop)
	wg.Wait()

	fprintln(w, "== Fig. 11(b) right: get latency before vs during repartitioning ==")
	fprintln(w, "before:  %s", before.Summary())
	fprintln(w, "during:  %s", during.Summary())
	fprintln(w, "p50 ratio during/before = %.2fx (paper: nearly identical CDFs)",
		float64(during.Percentile(50))/float64(before.Percentile(50)))
	return nil
}

// measureScaleUp creates a structure, fills its first block to the
// brink, and times one controller-orchestrated scale-up — for KV this
// includes moving half the pairs to the new block (Fig. 8 end-to-end).
func measureScaleUp(c *jiffy.Client, cluster *jiffy.Cluster,
	structure core.DSType, i int) (time.Duration, error) {

	path := core.MustPath("fig11b", fmt.Sprintf("%s-%d", structure, i))
	m, _, err := c.CreatePrefix(context.Background(), path, nil, structure, 1, 0)
	if err != nil {
		return 0, err
	}
	blockSize := cluster.Controller.Config().BlockSize
	// Fill to ~90% so the split moves a realistic amount of data but
	// the proactive signal has not fired yet (threshold 95%).
	payload := make([]byte, core.KB)
	target := int(0.9 * float64(blockSize))
	switch structure {
	case core.DSQueue:
		q, err := c.OpenQueue(context.Background(), path)
		if err != nil {
			return 0, err
		}
		for written := 0; written < target; written += len(payload) {
			if err := q.Enqueue(context.Background(), payload); err != nil {
				return 0, err
			}
		}
	case core.DSFile:
		f, err := c.OpenFile(context.Background(), path)
		if err != nil {
			return 0, err
		}
		if err := f.WriteAt(context.Background(), 0, make([]byte, target)); err != nil {
			return 0, err
		}
	case core.DSKV:
		kv, err := c.OpenKV(context.Background(), path)
		if err != nil {
			return 0, err
		}
		for written, k := 0, 0; written < target; written, k = written+len(payload), k+1 {
			if err := kv.Put(context.Background(), fmt.Sprintf("fill-%d-%d", i, k), payload); err != nil {
				return 0, err
			}
		}
	}
	start := time.Now()
	if _, err := cluster.Controller.ScaleUp(proto.ScaleUpReq{
		Path: path, Block: m.Blocks[0].Info.ID,
	}); err != nil {
		return 0, err
	}
	d := time.Since(start)
	// Clean up so each measurement starts fresh.
	if err := c.RemovePrefix(context.Background(), path); err != nil {
		return 0, err
	}
	return d, nil
}
