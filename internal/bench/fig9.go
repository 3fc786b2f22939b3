package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"jiffy/internal/baseline"
	"jiffy/internal/core"
	"jiffy/internal/metrics"
	"jiffy/internal/sim"
	"jiffy/internal/trace"
)

// Fig9 reproduces the paper's Fig. 9: job performance (a) and resource
// utilization (b) for ElastiCache, Pocket and Jiffy as the
// intermediate-store capacity shrinks from 100% to 20% of the
// workload's peak usage.
//
// The paper replays ~50,000 Snowflake jobs on EC2; here the same three
// allocation policies — static provisioning with S3 overflow
// (ElastiCache), job-lifetime peak reservations with SSD overflow
// (Pocket), and block-granular leased allocation (Jiffy) — run against
// a Snowflake-like synthetic trace in virtual time.
func Fig9(w io.Writer, opts Options) error {
	tr, peak, rows := fig9Sweep(opts)
	fprintln(w, "workload: %d tenants, %d jobs, peak alive intermediate data = %.1f GB",
		tr.Tenants, len(tr.Jobs), float64(peak)/float64(core.GB))

	slow := metrics.NewTable("Fig. 9(a): average job slowdown vs capacity",
		"capacity(%)", "ElastiCache", "Pocket", "Jiffy", "Pocket/Jiffy")
	util := metrics.NewTable("Fig. 9(b): average resource utilization (%) vs capacity",
		"capacity(%)", "ElastiCache", "Pocket", "Jiffy")
	spill := metrics.NewTable("spill fractions (bytes not in DRAM)",
		"capacity(%)", "EC→S3", "Pocket→SSD", "Jiffy→SSD")
	for _, r := range rows {
		ratio := 0.0
		if r.jiffy.AvgSlowdown > 0 {
			ratio = r.pocket.AvgSlowdown / r.jiffy.AvgSlowdown
		}
		slow.AddRow(r.capacity, r.ec.AvgSlowdown, r.pocket.AvgSlowdown, r.jiffy.AvgSlowdown, ratio)
		util.AddRow(r.capacity, r.ec.AvgUtilization, r.pocket.AvgUtilization, r.jiffy.AvgUtilization)
		spill.AddRow(r.capacity, r.ec.SpillFracS3, r.pocket.SpillFracSSD, r.jiffy.SpillFracSSD)
	}
	fprintln(w, "%s", slow.String())
	fprintln(w, "%s", util.String())
	fprintln(w, "%s", spill.String())
	verdict := "holds"
	if err := fig9Shape(rows); err != nil {
		verdict = "does not hold: " + err.Error()
	}
	fprintln(w, "shape: at every capacity Jiffy's slowdown ≤ Pocket's and ≤ ElastiCache's,")
	fprintln(w, "and Jiffy's utilization ≥ 3× Pocket's — %s.", verdict)
	return nil
}

// fig9Row is one capacity of Fig. 9: each policy's replay of the trace.
type fig9Row struct {
	capacity          int // % of the workload's peak
	ec, pocket, jiffy sim.Stats
}

// fig9Sweep replays the Fig. 9 trace against the three policies at
// every capacity. Fig9 prints the rows; TestFig9 checks their shape.
func fig9Sweep(opts Options) (tr *trace.Trace, peak int64, rows []fig9Row) {
	cfg := sim.Fig9TraceConfig()
	if opts.Quick {
		cfg.Tenants = 20
		cfg.JobsPerTenant = 10
	}
	tr = trace.Generate(cfg, opts.seed())
	peak = sim.PeakCapacity(tr, time.Second)
	blockSize := int64(128 * core.MB)
	for _, frac := range []float64{1.0, 0.8, 0.6, 0.4, 0.2} {
		capacity := int64(float64(peak) * frac)
		rows = append(rows, fig9Row{
			capacity: int(frac * 100),
			ec:       sim.Run(tr, baseline.NewElastiCachePolicy(capacity, cfg.Tenants), capacity, time.Second),
			pocket:   sim.Run(tr, baseline.NewPocketPolicy(capacity), capacity, time.Second),
			jiffy: sim.Run(tr, baseline.NewJiffyPolicy(capacity, blockSize,
				core.DefaultHighThreshold, core.DefaultLeaseDuration), capacity, time.Second),
		})
	}
	return tr, peak, rows
}

// fig9Shape is the paper's Fig. 9 claim as a predicate: at every
// capacity Jiffy slows jobs no more than Pocket or ElastiCache, and
// holds at least 3× Pocket's utilization. It returns every violation.
func fig9Shape(rows []fig9Row) error {
	var errs []error
	for _, r := range rows {
		if j, p := r.jiffy.AvgSlowdown, r.pocket.AvgSlowdown; j > p {
			errs = append(errs, fmt.Errorf("%d%%: Jiffy slowdown %.3f > Pocket's %.3f", r.capacity, j, p))
		}
		if j, e := r.jiffy.AvgSlowdown, r.ec.AvgSlowdown; j > e {
			errs = append(errs, fmt.Errorf("%d%%: Jiffy slowdown %.3f > ElastiCache's %.3f", r.capacity, j, e))
		}
		if j, p := r.jiffy.AvgUtilization, r.pocket.AvgUtilization; j < 3*p {
			errs = append(errs, fmt.Errorf("%d%%: Jiffy utilization %.1f%% < 3× Pocket's %.1f%%", r.capacity, j, p))
		}
	}
	return errors.Join(errs...)
}
