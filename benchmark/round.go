package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"syscall"
	"time"

	"jiffy"
	"jiffy/benchmark/stats"
	"jiffy/internal/obs"
)

// opKind says which latency histogram a client call feeds.
type opKind uint8

const (
	kindRead  opKind = iota // feeds read_p50_us / read_p99_us
	kindWrite               // feeds write_p50_us / write_p99_us
	kindOther               // counted as work done, latency not reported
)

// callDef names one kind of call a workload makes into the client and
// says how it is accounted.
type callDef struct {
	name string
	kind opKind
}

// callCount is what the benchmark counts at the client boundary for
// one kind of call.
type callCount struct {
	Calls  uint64 `json:"calls"`
	Ops    uint64 `json:"ops"`
	Bytes  uint64 `json:"bytes"`
	Errors uint64 `json:"errors"`
}

// maxFailures ends a round early: a cluster that has started failing
// every call would otherwise spin for the rest of the round.
const maxFailures = 100

var errMismatch = errors.New("oracle mismatch")

// recorder accumulates what one load-generator goroutine observed. A
// workload with several generators forks one recorder per goroutine
// and joins them when the goroutines have stopped.
type recorder struct {
	defs        []callDef
	counts      []callCount
	read, write stats.Hist
	ops, failed uint64
	firstErr    error

	begin time.Time
	win   *stats.Windows // nil on forked recorders

	tr     *tracer // nil when tracing is off
	parent uint64  // the round's span
}

func newRecorder(defs []callDef, window time.Duration, tr *tracer, parent uint64) *recorder {
	return &recorder{
		defs: defs, counts: make([]callCount, len(defs)),
		win: stats.NewWindows(window), tr: tr, parent: parent,
	}
}

// fork returns an empty recorder for another goroutine of the same
// round.
func (r *recorder) fork() *recorder {
	return &recorder{defs: r.defs, counts: make([]callCount, len(r.defs)),
		begin: r.begin, tr: r.tr, parent: r.parent}
}

// join moves everything o recorded into r and empties o.
func (r *recorder) join(o *recorder) {
	for i := range o.counts {
		r.counts[i].Calls += o.counts[i].Calls
		r.counts[i].Ops += o.counts[i].Ops
		r.counts[i].Bytes += o.counts[i].Bytes
		r.counts[i].Errors += o.counts[i].Errors
		o.counts[i] = callCount{}
	}
	r.read.Merge(&o.read)
	r.write.Merge(&o.write)
	r.ops += o.ops
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	o.read, o.write = stats.Hist{}, stats.Hist{}
	o.ops, o.failed, o.firstErr = 0, 0, nil
}

// done accounts one finished client call that carried n operations
// and moved bytes payload bytes. t0 and t1 bracket the call alone:
// the caller checks the result against its oracle after taking t1 and
// passes errMismatch when the check fails, so verification is never
// inside a latency.
func (r *recorder) done(call int, t0, t1 time.Time, n, bytes int, err error) {
	c := &r.counts[call]
	c.Calls++
	c.Bytes += uint64(bytes)
	if err != nil {
		c.Errors++
		r.failed += uint64(n)
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s: %w", r.defs[call].name, err)
		}
		return
	}
	c.Ops += uint64(n)
	switch r.defs[call].kind {
	case kindRead:
		r.read.Record(int64(t1.Sub(t0)))
	case kindWrite:
		r.write.Record(int64(t1.Sub(t0)))
	}
	r.ops += uint64(n)
	if r.win != nil {
		r.win.Observe(t1.Sub(r.begin), r.ops)
	}
	if r.tr != nil && c.Calls%traceSample == 0 {
		r.tr.span(r.defs[call].name, r.parent, c.Calls, t0, t1)
	}
}

// tooManyFailures reports the error that should end the round.
func (r *recorder) tooManyFailures() error {
	if r.failed > maxFailures {
		return fmt.Errorf("more than %d operations failed, first: %w", maxFailures, r.firstErr)
	}
	return nil
}

// shape is the fixed description of a workload's cluster, printed in
// the run header.
type shape struct {
	Transport       string `json:"transport"`
	Controllers     int    `json:"controllers"`
	Servers         int    `json:"servers"`
	BlocksPerServer int    `json:"blocks_per_server"`
	ChainLength     int    `json:"chain_length"`
	BlockSize       int    `json:"block_size"`
	Generators      int    `json:"generator_goroutines"`
	// Procs is the GOMAXPROCS the rounds run with, before capping at
	// the machine's CPUs.
	Procs int `json:"gomaxprocs"`
}

// procs is the GOMAXPROCS a workload's rounds run with on this
// machine.
func (s shape) procs() int { return min(s.Procs, runtime.NumCPU()) }

// workload is one of the benchmark's four workloads. A round calls
// setup once, drive twice (warm-up, then measured), and then
// residentHeap and verify.
type workload interface {
	shape() shape
	calls() []callDef
	// setup boots the cluster, connects and preloads; everything it
	// does is charged to setup_s. smoke shrinks the preload for the
	// schema test.
	setup(ctx context.Context, seed uint64, smoke bool) error
	// hash identifies the inputs setup generated from the seed; setup
	// accumulates it in env.sum.
	hash() uint64
	// drive runs the closed-loop load for d and records into rec.
	drive(ctx context.Context, d time.Duration, rec *recorder) error
	// residentHeap calls measure while the workload's data set is
	// resident and returns the data set's size in user bytes, for
	// heap_bytes_per_user_byte.
	residentHeap(ctx context.Context, measure func()) (int64, error)
	// verify runs the end-of-round oracle checks.
	verify(ctx context.Context) error
	base() *env
}

// env is the cluster and client every workload drives.
type env struct {
	cluster *jiffy.Cluster
	client  *jiffy.Client
	// sum hashes the inputs set-up generated from the seed.
	sum stats.OpHash
}

func (e *env) base() *env   { return e }
func (e *env) hash() uint64 { return uint64(e.sum) }

// discardLog keeps component logging out of the measurement.
var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

func (e *env) boot(ctx context.Context, opts jiffy.ClusterOptions) error {
	opts.Logger = discardLog
	e.sum = stats.NewOpHash()
	cl, err := jiffy.StartCluster(opts)
	if err != nil {
		return fmt.Errorf("start cluster: %w", err)
	}
	e.cluster = cl
	if e.client, err = cl.Connect(ctx); err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	return nil
}

func (e *env) close() {
	if e.client != nil {
		e.client.Close()
	}
	if e.cluster != nil {
		e.cluster.Close()
	}
}

// counters are the program's own counts the benchmark reads at round
// boundaries.
type counters struct {
	scaleUps, retries, mapRefreshes int64
}

func scrape(r *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	return obs.ParsePrometheus(buf.Bytes())
}

func (e *env) counters() counters {
	ctrl := scrape(e.cluster.Controller.Obs())
	cli := scrape(e.client.Obs())
	return counters{
		scaleUps:     int64(ctrl["jiffy_ctrl_scale_ups_total"]),
		retries:      int64(cli[`jiffy_rpc_retries_total{role="client"}`]),
		mapRefreshes: int64(cli["jiffy_client_map_refreshes_total"]),
	}
}

// quiesce waits until the controller has stopped scaling, so that
// elastic growth started by the preload is charged to set-up and not
// to the measured phase.
func (e *env) quiesce() {
	last := e.counters().scaleUps
	for calm := 0; calm < 2; {
		time.Sleep(20 * time.Millisecond)
		if now := e.counters().scaleUps; now == last {
			calm++
		} else {
			last, calm = now, 0
		}
	}
}

// procSnap is the process-wide state the per-op costs are taken from.
type procSnap struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
}

func snapProc() procSnap {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
	}
}

// roundResult is everything one round measured.
type roundResult struct {
	Seed         uint64  `json:"seed"`
	WorkloadHash string  `json:"workload_hash"`
	MeasuredS    float64 `json:"measured_s"`
	Ops          uint64  `json:"ops"`
	Failed       uint64  `json:"failed"`
	Failure      string  `json:"failure,omitempty"`
	Windows      int     `json:"windows"`

	// EndToEnd holds the round's value of every end-to-end metric.
	EndToEnd map[string]float64 `json:"end_to_end"`

	// The tails: the quantile the sample supported and its value.
	ReadTailQ    float64 `json:"read_tail_quantile"`
	ReadTailUs   float64 `json:"read_tail_us"`
	ReadSamples  uint64  `json:"read_samples"`
	WriteTailQ   float64 `json:"write_tail_quantile"`
	WriteTailUs  float64 `json:"write_tail_us"`
	WriteSamples uint64  `json:"write_samples"`

	HeapInuse uint64 `json:"heap_inuse_bytes"`
	UserBytes int64  `json:"user_bytes"`

	// The program's own counters over the measured phase.
	ScaleUps     int64 `json:"scale_ups"`
	Retries      int64 `json:"client_retries"`
	MapRefreshes int64 `json:"client_map_refreshes"`

	// Calls holds what was counted at the client boundary, by kind of
	// call.
	Calls map[string]callCount `json:"calls"`
}

// roundOpts fixes one round's inputs and lengths.
type roundOpts struct {
	seed          uint64
	warm, measure time.Duration
	smoke         bool
	tr            *tracer
}

// window is the width of the throughput windows: one second, or less
// when the measured phase is too short to hold five of them.
func (o roundOpts) window() time.Duration {
	if w := o.measure / 5; w < time.Second {
		return w
	}
	return time.Second
}

// runRound runs one round of a workload on a fresh cluster: set-up,
// warm-up, a forced GC, the measured phase, then the heap measurement
// and the end-of-round checks.
func runRound(ctx context.Context, name string, o roundOpts) (res roundResult, err error) {
	w, err := newWorkload(name)
	if err != nil {
		return res, err
	}
	defer w.base().close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.shape().procs()))

	var parent uint64
	if o.tr != nil {
		begin := time.Now()
		parent = o.tr.open("round:"+name, 0, begin)
		defer func() { o.tr.close(parent, time.Now()) }()
	}

	t0 := time.Now()
	if err := w.setup(ctx, o.seed, o.smoke); err != nil {
		return res, fmt.Errorf("%s: set-up: %w", name, err)
	}
	setup := time.Since(t0)
	res.Seed = o.seed
	res.WorkloadHash = fmt.Sprintf("%016x", w.hash())

	warm := newRecorder(w.calls(), o.window(), nil, 0)
	warm.begin = time.Now()
	if err := w.drive(ctx, o.warm, warm); err != nil {
		return res, fmt.Errorf("%s: warm-up: %w", name, err)
	}

	runtime.GC()
	rec := newRecorder(w.calls(), o.window(), o.tr, parent)
	c0 := w.base().counters()
	p0 := snapProc()
	rec.begin = time.Now()
	driveErr := w.drive(ctx, o.measure, rec)
	elapsed := time.Since(rec.begin)
	p1 := snapProc()
	c1 := w.base().counters()
	if driveErr != nil {
		return res, fmt.Errorf("%s: %w", name, driveErr)
	}
	failed := rec.failed + warm.failed
	detail := rec.firstErr
	if detail == nil {
		detail = warm.firstErr
	}

	var ms runtime.MemStats
	userBytes, err := w.residentHeap(ctx, func() {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
	})
	if err != nil {
		return res, fmt.Errorf("%s: heap measurement: %w", name, err)
	}

	if verr := w.verify(ctx); verr != nil {
		failed++
		if detail == nil {
			detail = verr
		}
	}

	ops := float64(rec.ops)
	res.MeasuredS = elapsed.Seconds()
	res.Ops, res.Failed = rec.ops, failed
	if detail != nil {
		res.Failure = detail.Error()
	}
	res.Windows = rec.win.Len()
	rate := rec.win.Median()
	if res.Windows == 0 {
		rate = ops / elapsed.Seconds()
	}
	res.EndToEnd = map[string]float64{
		"setup_s":                  setup.Seconds(),
		"ops_per_s":                rate,
		"read_p50_us":              rec.read.Quantile(0.5) / 1e3,
		"write_p50_us":             rec.write.Quantile(0.5) / 1e3,
		"cpu_us_per_op":            float64(p1.cpu-p0.cpu) / 1e3 / ops,
		"alloc_bytes_per_op":       float64(p1.allocBytes-p0.allocBytes) / ops,
		"allocs_per_op":            float64(p1.mallocs-p0.mallocs) / ops,
		"heap_bytes_per_user_byte": float64(ms.HeapInuse) / float64(userBytes),
	}
	var tail float64
	res.ReadTailQ, tail = rec.read.TailQuantile(0.99, 10)
	res.ReadTailUs = tail / 1e3
	res.WriteTailQ, tail = rec.write.TailQuantile(0.99, 10)
	res.WriteTailUs = tail / 1e3
	res.ReadSamples, res.WriteSamples = rec.read.Count(), rec.write.Count()
	res.HeapInuse, res.UserBytes = ms.HeapInuse, userBytes
	res.ScaleUps = c1.scaleUps - c0.scaleUps
	res.Retries = c1.retries - c0.retries
	res.MapRefreshes = c1.mapRefreshes - c0.mapRefreshes
	res.Calls = make(map[string]callCount, len(rec.defs))
	for i, d := range rec.defs {
		res.Calls[d.name] = rec.counts[i]
	}
	return res, nil
}
