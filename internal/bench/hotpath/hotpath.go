// Package hotpath holds the data-path micro-benchmarks: single-op vs
// batched KV puts/gets, file record appends and queue enqueues, and
// large file/KV transfers, over the mem:// transport. The bodies live
// here (not in a _test.go file) so both the repo-root `go test -bench`
// wrappers and the telemetry-overhead gate (MeasureOverhead, run by
// cmd/jiffy-regress -overhead) execute the same code.
package hotpath

import (
	"context"
	"fmt"
	"testing"
	"time"

	"jiffy"
	"jiffy/internal/core"
)

// BatchSize is the multi-op batch width measured against single ops.
const BatchSize = 64

// valSize is the payload size per op — small objects, the regime where
// per-request overhead dominates (§6.2).
const valSize = 128

// Bench is one runnable benchmark.
type Bench struct {
	Name string
	F    func(b *testing.B)
}

// smallParams sizes the cluster and working set of the small-op
// benchmarks; quick shrinks both for CI smoke runs — the measured
// ratios are the same, each benchmark just spends less time in setup.
func smallParams(quick bool) params {
	if quick {
		return params{servers: 1, blocksPerServer: 64, keys: 512}
	}
	return params{servers: 2, blocksPerServer: 128, keys: 4096}
}

// Benches returns the hot-path benchmark set.
func Benches(quick bool) []Bench {
	p := smallParams(quick)
	lp := largeParams(quick)
	return []Bench{
		{Name: "KVPutSingle", F: p.kvPutSingle},
		{Name: "KVPutBatch", F: p.kvPutBatch},
		{Name: "KVGetSingle", F: p.kvGetSingle},
		{Name: "KVGetBatch", F: p.kvGetBatch},
		{Name: "FileAppendSingle", F: p.fileAppendSingle},
		{Name: "FileAppendBatch", F: p.fileAppendBatch},
		{Name: "QueueEnqueueSingle", F: p.queueEnqueueSingle},
		{Name: "QueueEnqueueBatch", F: p.queueEnqueueBatch},
		{Name: "FileRead64K", F: lp.fileReadLarge(64 * core.KB)},
		{Name: "FileRead1M", F: lp.fileReadLarge(core.MB)},
		{Name: "FileWrite64K", F: lp.fileWriteLarge(64 * core.KB)},
		{Name: "FileWrite1M", F: lp.fileWriteLarge(core.MB)},
		{Name: "KVGet64K", F: lp.kvGetLarge(64 * core.KB)},
	}
}

type params struct {
	servers         int
	blocksPerServer int
	keys            int
	blockSize       int // 0 means core.MB
}

func (p params) client(b *testing.B) *jiffy.Client {
	b.Helper()
	cfg := core.TestConfig()
	cfg.BlockSize = core.MB
	if p.blockSize != 0 {
		cfg.BlockSize = p.blockSize
	}
	cfg.LeaseDuration = time.Hour
	cluster, err := jiffy.StartCluster(jiffy.ClusterOptions{
		Config: cfg, Servers: p.servers, BlocksPerServer: p.blocksPerServer,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cluster.Close() })
	c, err := cluster.Connect(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

func (p params) kv(b *testing.B) *jiffy.KV {
	b.Helper()
	c := p.client(b)
	c.RegisterJob(context.Background(), "bench")
	if _, _, err := c.CreatePrefix(context.Background(), "bench/kv", nil, jiffy.DSKV, 4, 0); err != nil {
		b.Fatal(err)
	}
	kv, err := c.OpenKV(context.Background(), "bench/kv")
	if err != nil {
		b.Fatal(err)
	}
	return kv
}

func keyPool(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
	}
	return keys
}

func (p params) kvPutSingle(b *testing.B) {
	kv := p.kv(b)
	keys := keyPool(p.keys)
	val := make([]byte, valSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kv.Put(context.Background(), keys[i%len(keys)], val); err != nil {
			b.Fatal(err)
		}
	}
}

func (p params) kvPutBatch(b *testing.B) {
	kv := p.kv(b)
	keys := keyPool(p.keys)
	val := make([]byte, valSize)
	pairs := make([]jiffy.KVPair, BatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += BatchSize {
		m := BatchSize
		if n+m > b.N {
			m = b.N - n
		}
		for j := 0; j < m; j++ {
			pairs[j] = jiffy.KVPair{Key: keys[(n+j)%len(keys)], Value: val}
		}
		if err := kv.MultiPut(context.Background(), pairs[:m]); err != nil {
			b.Fatal(err)
		}
	}
}

func (p params) kvPreloaded(b *testing.B) (*jiffy.KV, []string) {
	b.Helper()
	kv := p.kv(b)
	keys := keyPool(p.keys)
	val := make([]byte, valSize)
	pairs := make([]jiffy.KVPair, 0, BatchSize)
	for i := 0; i < len(keys); i += BatchSize {
		pairs = pairs[:0]
		for j := i; j < i+BatchSize && j < len(keys); j++ {
			pairs = append(pairs, jiffy.KVPair{Key: keys[j], Value: val})
		}
		if err := kv.MultiPut(context.Background(), pairs); err != nil {
			b.Fatal(err)
		}
	}
	return kv, keys
}

func (p params) kvGetSingle(b *testing.B) {
	kv, keys := p.kvPreloaded(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kv.Get(context.Background(), keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

func (p params) kvGetBatch(b *testing.B) {
	kv, keys := p.kvPreloaded(b)
	batch := make([]string, BatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += BatchSize {
		m := BatchSize
		if n+m > b.N {
			m = b.N - n
		}
		for j := 0; j < m; j++ {
			batch[j] = keys[(n+j)%len(keys)]
		}
		if _, err := kv.MultiGet(context.Background(), batch[:m]); err != nil {
			b.Fatal(err)
		}
	}
}

// rolloverBudget bounds how much append-only data accumulates in one
// prefix before the bench rolls to a fresh one. Files and queues never
// reclaim appended bytes, and b.N is unbounded, so without rollover a
// long run exhausts the cluster's block pool. Rollover happens with
// the timer stopped, so it never pollutes the measurement.
const rolloverBudget = 8 * core.MB

// session hands out a data-structure handle and recreates it (removing
// the previous prefix, reclaiming its blocks) every rolloverBudget
// appended bytes.
type session struct {
	b       *testing.B
	c       *jiffy.Client
	kind    core.DSType
	gen     int
	file    *jiffy.File
	queue   *jiffy.Queue
	written int
	budget  int
}

func (p params) session(b *testing.B, kind core.DSType) *session {
	b.Helper()
	c := p.client(b)
	c.RegisterJob(context.Background(), "bench")
	s := &session{b: b, c: c, kind: kind, gen: -1, budget: rolloverBudget}
	s.roll()
	return s
}

func (s *session) path(gen int) core.Path {
	return core.Path(fmt.Sprintf("bench/s%d", gen))
}

func (s *session) roll() {
	if s.gen >= 0 {
		if err := s.c.RemovePrefix(context.Background(), s.path(s.gen)); err != nil {
			s.b.Fatal(err)
		}
	}
	s.gen++
	if _, _, err := s.c.CreatePrefix(context.Background(), s.path(s.gen), nil, s.kind, 1, 0); err != nil {
		s.b.Fatal(err)
	}
	var err error
	switch s.kind {
	case jiffy.DSFile:
		s.file, err = s.c.OpenFile(context.Background(), s.path(s.gen))
	case jiffy.DSQueue:
		s.queue, err = s.c.OpenQueue(context.Background(), s.path(s.gen))
	}
	if err != nil {
		s.b.Fatal(err)
	}
	s.written = 0
}

// charge accounts n bytes about to be appended, rolling to a fresh
// prefix outside the timer when the budget is spent.
func (s *session) charge(n int) {
	if s.written+n > s.budget {
		s.b.StopTimer()
		s.roll()
		s.b.StartTimer()
	}
	s.written += n
}

func (p params) fileAppendSingle(b *testing.B) {
	s := p.session(b, jiffy.DSFile)
	rec := make([]byte, valSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.charge(valSize)
		if _, err := s.file.AppendRecord(context.Background(), rec); err != nil {
			b.Fatal(err)
		}
	}
}

func (p params) fileAppendBatch(b *testing.B) {
	s := p.session(b, jiffy.DSFile)
	rec := make([]byte, valSize)
	recs := make([][]byte, BatchSize)
	for i := range recs {
		recs[i] = rec
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += BatchSize {
		m := BatchSize
		if n+m > b.N {
			m = b.N - n
		}
		s.charge(m * valSize)
		if _, err := s.file.AppendBatch(context.Background(), recs[:m]); err != nil {
			b.Fatal(err)
		}
	}
}

func (p params) queueEnqueueSingle(b *testing.B) {
	s := p.session(b, jiffy.DSQueue)
	item := make([]byte, valSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.charge(valSize)
		if err := s.queue.Enqueue(context.Background(), item); err != nil {
			b.Fatal(err)
		}
	}
}

func (p params) queueEnqueueBatch(b *testing.B) {
	s := p.session(b, jiffy.DSQueue)
	item := make([]byte, valSize)
	items := make([][]byte, BatchSize)
	for i := range items {
		items[i] = item
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += BatchSize {
		m := BatchSize
		if n+m > b.N {
			m = b.N - n
		}
		s.charge(m * valSize)
		if err := s.queue.EnqueueBatch(context.Background(), items[:m]); err != nil {
			b.Fatal(err)
		}
	}
}
