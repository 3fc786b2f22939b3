// Package trace synthesizes Snowflake-like analytics workloads. The
// paper's evaluation replays the public Snowflake dataset [Vuppalapati
// et al., NSDI '20]; that trace is not redistributable, so this package
// generates workloads matching its published statistics instead:
//
//   - multi-stage jobs (1–10 stages, tens of tasks per stage) arriving
//     per tenant as a Poisson process;
//   - per-stage intermediate data drawn from a heavy-tailed lognormal,
//     spanning multiple orders of magnitude within one job (the paper
//     cites TPC-DS stages ranging 0.8MB → 66GB);
//   - peak-to-average intermediate data ratios of 10–100× per tenant
//     over minutes (Fig. 1), which is what makes job-level provisioning
//     waste capacity.
//
// The generator is deterministic for a given seed.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"jiffy/internal/metrics"
)

// Stage is one stage of a job: Tasks parallel tasks running for
// Duration, producing Bytes of intermediate data consumed by the next
// stage.
type Stage struct {
	Index    int
	Tasks    int
	Duration time.Duration
	Bytes    int64
}

// Job is one analytics job.
type Job struct {
	ID      string
	Tenant  int
	Arrival time.Duration // offset from trace start
	Stages  []Stage
}

// Duration sums stage durations.
func (j *Job) Duration() time.Duration {
	var d time.Duration
	for _, s := range j.Stages {
		d += s.Duration
	}
	return d
}

// StageStart returns the stage's start offset within the job.
func (j *Job) StageStart(i int) time.Duration {
	var d time.Duration
	for s := 0; s < i; s++ {
		d += j.Stages[s].Duration
	}
	return d
}

// Trace is a complete workload.
type Trace struct {
	Tenants int
	Window  time.Duration
	Jobs    []Job
}

// Config parameterizes generation.
type Config struct {
	// Tenants is the number of independent tenants.
	Tenants int
	// Window is the trace duration.
	Window time.Duration
	// JobsPerTenant is the expected job count per tenant over the
	// window.
	JobsPerTenant int
	// MeanStageBytes is the lognormal median of per-stage intermediate
	// data.
	MeanStageBytes float64
	// MaxStageBytes truncates the lognormal tail (0 = 64×median). The
	// Snowflake aggregate is heavy-tailed but no single query dwarfs
	// the whole cluster; the cap keeps small synthetic traces from
	// being dominated by one degenerate mega-job.
	MaxStageBytes int64
	// SigmaLog is the lognormal sigma (in natural-log space); ~2.0
	// yields the multi-order-of-magnitude spread the paper reports.
	SigmaLog float64
	// MinStages/MaxStages bound job depth.
	MinStages, MaxStages int
	// MinTasks/MaxTasks bound per-stage task counts.
	MinTasks, MaxTasks int
	// MeanStageDuration is the mean per-stage compute duration.
	MeanStageDuration time.Duration
}

// DefaultConfig produces a laptop-scale workload with the paper's
// statistical shape.
func DefaultConfig() Config {
	return Config{
		Tenants:           4,
		Window:            time.Hour,
		JobsPerTenant:     120,
		MeanStageBytes:    4 * 1024 * 1024,
		SigmaLog:          2.0,
		MinStages:         1,
		MaxStages:         8,
		MinTasks:          2,
		MaxTasks:          40,
		MeanStageDuration: 20 * time.Second,
	}
}

// Generate builds a deterministic trace for the seed. Each tenant
// draws from its own RNG stream seeded from (seed, tenant), so a
// tenant's jobs depend only on the seed and its own index: adding
// tenants or changing one tenant's parameters never perturbs another
// tenant's stream, and replayers can regenerate a single tenant's
// workload independently.
func Generate(cfg Config, seed int64) *Trace {
	t := &Trace{Tenants: cfg.Tenants, Window: cfg.Window}
	for tenant := 0; tenant < cfg.Tenants; tenant++ {
		rng := rand.New(rand.NewSource(tenantSeed(seed, tenant)))
		// Poisson arrivals: exponential inter-arrival times.
		rate := float64(cfg.JobsPerTenant) / cfg.Window.Seconds()
		at := time.Duration(0)
		jobIdx := 0
		for {
			gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			at += gap
			if at >= cfg.Window {
				break
			}
			t.Jobs = append(t.Jobs, genJob(cfg, rng, tenant, jobIdx, at))
			jobIdx++
		}
	}
	return t
}

// tenantSeed derives an independent stream seed from the trace seed
// and a tenant index (SplitMix64 finalizer: distinct inputs map to
// well-separated seeds even when the trace seeds themselves are small
// consecutive integers).
func tenantSeed(seed int64, tenant int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(tenant+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func genJob(cfg Config, rng *rand.Rand, tenant, idx int, at time.Duration) Job {
	nStages := cfg.MinStages + rng.Intn(cfg.MaxStages-cfg.MinStages+1)
	job := Job{
		ID:      fmt.Sprintf("tenant%d-job%d", tenant, idx),
		Tenant:  tenant,
		Arrival: at,
	}
	// A job's stages are correlated in size (a big job is big
	// throughout) with per-stage variation on top; this mirrors the
	// TPC-DS observation that stage sizes within one query still span
	// orders of magnitude.
	jobScale := math.Exp(rng.NormFloat64() * cfg.SigmaLog)
	maxBytes := cfg.MaxStageBytes
	if maxBytes <= 0 {
		maxBytes = int64(64 * cfg.MeanStageBytes)
	}
	for s := 0; s < nStages; s++ {
		stageScale := math.Exp(rng.NormFloat64() * cfg.SigmaLog * 0.75)
		b := int64(cfg.MeanStageBytes * jobScale * stageScale)
		if b < 1024 {
			b = 1024
		}
		if b > maxBytes {
			b = maxBytes
		}
		dur := time.Duration((0.5 + rng.Float64()) * float64(cfg.MeanStageDuration))
		job.Stages = append(job.Stages, Stage{
			Index:    s,
			Tasks:    cfg.MinTasks + rng.Intn(cfg.MaxTasks-cfg.MinTasks+1),
			Duration: dur,
			Bytes:    b,
		})
	}
	return job
}

// AliveBytes reports the intermediate data alive for tenant at offset
// t: stage s data exists from the start of stage s until the end of
// stage s+1 (written while s runs, consumed by s+1, then reclaimed).
// The final stage's data lives until the job ends.
func (tr *Trace) AliveBytes(tenant int, t time.Duration) int64 {
	var total int64
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		if j.Tenant != tenant || t < j.Arrival || t >= j.Arrival+j.Duration() {
			continue
		}
		rel := t - j.Arrival
		for s := range j.Stages {
			start := j.StageStart(s)
			end := j.StageStart(s) + j.Stages[s].Duration
			if s+1 < len(j.Stages) {
				end = j.StageStart(s+1) + j.Stages[s+1].Duration
			}
			if rel >= start && rel < end {
				total += j.Stages[s].Bytes
			}
		}
	}
	return total
}

// Series samples AliveBytes for a tenant at the given step, producing
// the Fig. 1(a) time series.
func (tr *Trace) Series(tenant int, step time.Duration) *metrics.Series {
	s := &metrics.Series{Name: fmt.Sprintf("tenant%d", tenant)}
	epoch := time.Unix(0, 0)
	for t := time.Duration(0); t <= tr.Window; t += step {
		s.Add(epoch.Add(t), float64(tr.AliveBytes(tenant, t)))
	}
	return s
}

// TotalSeries samples aggregate alive bytes across all tenants.
func (tr *Trace) TotalSeries(step time.Duration) *metrics.Series {
	s := &metrics.Series{Name: "total"}
	epoch := time.Unix(0, 0)
	for t := time.Duration(0); t <= tr.Window; t += step {
		var sum int64
		for tenant := 0; tenant < tr.Tenants; tenant++ {
			sum += tr.AliveBytes(tenant, t)
		}
		s.Add(epoch.Add(t), float64(sum))
	}
	return s
}

// PeakToAverage computes the per-tenant peak/mean ratio of alive
// intermediate data — the Fig. 1 headline statistic.
func (tr *Trace) PeakToAverage(tenant int, step time.Duration) float64 {
	s := tr.Series(tenant, step)
	mean := s.Mean()
	if mean == 0 {
		return 0
	}
	return s.Max() / mean
}

// ZipfKeys returns a deterministic Zipf-distributed key sampler over
// the given keyspace size — the §6.3 KV-store access pattern ("the
// inserted keys were sampled from a Zipf distribution").
func ZipfKeys(seed int64, skew float64, keyspace uint64) func() string {
	rng := rand.New(rand.NewSource(seed))
	if skew <= 1 {
		skew = 1.01
	}
	z := rand.NewZipf(rng, skew, 1, keyspace-1)
	return func() string { return fmt.Sprintf("key-%d", z.Uint64()) }
}
