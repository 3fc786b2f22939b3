package trace

import (
	"testing"
	"time"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Window = 10 * time.Minute
	cfg.JobsPerTenant = 40
	return cfg
}

// totalBytes sums a job's intermediate data across its stages.
func totalBytes(j Job) int64 {
	var n int64
	for _, s := range j.Stages {
		n += s.Bytes
	}
	return n
}

// tenantJobs returns the jobs of one tenant, in trace order.
func tenantJobs(tr *Trace, tenant int) []Job {
	var out []Job
	for _, j := range tr.Jobs {
		if j.Tenant == tenant {
			out = append(out, j)
		}
	}
	return out
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig(), 42)
	b := Generate(smallConfig(), 42)
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		if a.Jobs[i].ID != b.Jobs[i].ID || totalBytes(a.Jobs[i]) != totalBytes(b.Jobs[i]) {
			t.Fatalf("job %d differs", i)
		}
	}
	c := Generate(smallConfig(), 43)
	if len(c.Jobs) == len(a.Jobs) && len(a.Jobs) > 0 &&
		totalBytes(c.Jobs[0]) == totalBytes(a.Jobs[0]) {
		t.Error("different seeds produced identical traces")
	}
}

// TestGenerateTenantStreamsIndependent checks that each tenant draws
// from its own seeded stream: growing the tenant count must not
// perturb the jobs of the tenants that were already there. (With a
// single shared RNG, tenant k's jobs depended on how many draws
// tenants 0..k-1 happened to consume.)
func TestGenerateTenantStreamsIndependent(t *testing.T) {
	small := smallConfig()
	small.Tenants = 2
	big := smallConfig()
	big.Tenants = 6
	a := Generate(small, 42)
	b := Generate(big, 42)
	for tenant := 0; tenant < small.Tenants; tenant++ {
		ja, jb := tenantJobs(a, tenant), tenantJobs(b, tenant)
		if len(ja) != len(jb) {
			t.Fatalf("tenant %d: %d jobs with 2 tenants, %d with 6", tenant, len(ja), len(jb))
		}
		for i := range ja {
			if ja[i].ID != jb[i].ID || ja[i].Arrival != jb[i].Arrival ||
				totalBytes(ja[i]) != totalBytes(jb[i]) {
				t.Fatalf("tenant %d job %d differs across tenant counts", tenant, i)
			}
		}
	}
	// And distinct tenants must not mirror each other's stream.
	j0, j1 := tenantJobs(b, 0), tenantJobs(b, 1)
	if len(j0) == len(j1) && len(j0) > 0 && j0[0].Arrival == j1[0].Arrival &&
		totalBytes(j0[0]) == totalBytes(j1[0]) {
		t.Error("tenants 0 and 1 generated identical streams")
	}
}

func TestJobShape(t *testing.T) {
	cfg := smallConfig()
	tr := Generate(cfg, 1)
	if len(tr.Jobs) == 0 {
		t.Fatal("no jobs generated")
	}
	for _, j := range tr.Jobs {
		if j.Tenant < 0 || j.Tenant >= cfg.Tenants {
			t.Fatalf("job %s tenant %d out of range", j.ID, j.Tenant)
		}
		if j.Arrival < 0 || j.Arrival >= cfg.Window {
			t.Fatalf("job %s arrival %v out of window", j.ID, j.Arrival)
		}
		if len(j.Stages) < cfg.MinStages || len(j.Stages) > cfg.MaxStages {
			t.Fatalf("job %s has %d stages", j.ID, len(j.Stages))
		}
		for _, s := range j.Stages {
			if s.Tasks < cfg.MinTasks || s.Tasks > cfg.MaxTasks {
				t.Fatalf("stage task count %d out of range", s.Tasks)
			}
			if s.Bytes < 1024 {
				t.Fatalf("stage bytes %d below floor", s.Bytes)
			}
			if s.Duration <= 0 {
				t.Fatalf("non-positive stage duration")
			}
		}
	}
}

func TestStageStart(t *testing.T) {
	j := Job{Stages: []Stage{
		{Duration: time.Second},
		{Duration: 2 * time.Second},
		{Duration: 3 * time.Second},
	}}
	if j.StageStart(0) != 0 || j.StageStart(1) != time.Second || j.StageStart(2) != 3*time.Second {
		t.Errorf("stage starts = %v, %v, %v", j.StageStart(0), j.StageStart(1), j.StageStart(2))
	}
	if j.Duration() != 6*time.Second {
		t.Errorf("duration = %v", j.Duration())
	}
}

// TestPeakToAverage checks the Fig. 1 reproduction target: tenants see
// peak/average ratios well above what uniform provisioning assumes.
func TestPeakToAverage(t *testing.T) {
	tr := Generate(DefaultConfig(), 7)
	highRatio := 0
	for tenant := 0; tenant < tr.Tenants; tenant++ {
		ratio := tr.PeakToAverage(tenant, 30*time.Second)
		if ratio > 5 {
			highRatio++
		}
		t.Logf("tenant %d peak/avg = %.1f", tenant, ratio)
	}
	if highRatio == 0 {
		t.Error("no tenant shows bursty (>5x peak/avg) intermediate data; generator lost the paper's shape")
	}
}

func TestAliveBytesWindow(t *testing.T) {
	// One job, two stages: stage0 data lives through stage1's end;
	// stage1 data lives from stage1 start to job end.
	tr := &Trace{
		Tenants: 1,
		Window:  time.Minute,
		Jobs: []Job{{
			ID: "j", Tenant: 0, Arrival: 10 * time.Second,
			Stages: []Stage{
				{Index: 0, Duration: 10 * time.Second, Bytes: 100},
				{Index: 1, Duration: 10 * time.Second, Bytes: 7},
			},
		}},
	}
	cases := []struct {
		at   time.Duration
		want int64
	}{
		{5 * time.Second, 0},    // before arrival
		{15 * time.Second, 100}, // stage0 running
		{25 * time.Second, 107}, // stage1 running; stage0 data still alive
		{30 * time.Second, 0},   // job done
		{45 * time.Second, 0},   // long after
	}
	for _, c := range cases {
		if got := tr.AliveBytes(0, c.at); got != c.want {
			t.Errorf("AliveBytes(%v) = %d, want %d", c.at, got, c.want)
		}
	}
}

func TestSeriesAndTotal(t *testing.T) {
	tr := Generate(smallConfig(), 5)
	s := tr.Series(0, 30*time.Second)
	if len(s.Points) == 0 {
		t.Fatal("empty series")
	}
	total := tr.TotalSeries(30 * time.Second)
	// The total at each sample is the sum of the tenants.
	for i := range total.Points {
		var sum float64
		for tenant := 0; tenant < tr.Tenants; tenant++ {
			ts := tr.Series(tenant, 30*time.Second)
			sum += ts.Points[i].V
		}
		if total.Points[i].V != sum {
			t.Fatalf("total[%d] = %v, want %v", i, total.Points[i].V, sum)
		}
	}
}

func TestTenantJobs(t *testing.T) {
	tr := Generate(smallConfig(), 5)
	count := 0
	for tenant := 0; tenant < tr.Tenants; tenant++ {
		jobs := tenantJobs(tr, tenant)
		count += len(jobs)
		for i := 1; i < len(jobs); i++ {
			if jobs[i].Arrival < jobs[i-1].Arrival {
				t.Fatal("jobs out of arrival order")
			}
		}
	}
	if count != len(tr.Jobs) {
		t.Errorf("tenant jobs sum to %d, trace has %d", count, len(tr.Jobs))
	}
}

func TestZipfKeysSkewed(t *testing.T) {
	next := ZipfKeys(1, 1.2, 1000)
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[next()]++
	}
	// Zipf: the most popular key should dominate.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 1000 {
		t.Errorf("hottest key only %d/10000 hits; not Zipf-skewed", max)
	}
	// Deterministic for same seed.
	a, b := ZipfKeys(9, 1.2, 100), ZipfKeys(9, 1.2, 100)
	for i := 0; i < 100; i++ {
		if a() != b() {
			t.Fatal("ZipfKeys not deterministic")
		}
	}
}
