package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON mirrors ../BENCHMARK.json, the contract the driver
// that judges this benchmark reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesCode checks that BENCHMARK.json and the lists the
// program reports from say the same thing.
func TestContractMatchesCode(t *testing.T) {
	c := loadContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid metric or workload name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("contract has %d workloads, program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in the contract, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(c.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("contract has %d end-to-end metrics, program %d (at most 16)", len(c.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range c.EndToEnd {
		unique(m.Name)
		want := endToEnd[i]
		better := "lower"
		if want.HigherIsBetter {
			better = "higher"
		}
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != better || m.Bound != want.Bound {
			t.Errorf("end-to-end metric %d is %+v in the contract, %+v in the program", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("contract has no setup_s metric in seconds, better lower")
	}

	if len(c.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("contract has %d per-layer metrics, program %d (at most 128)", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		unique(m.Name)
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != "lower" {
			t.Errorf("per-layer metric %d is %+v in the contract, %+v in the program", i, m, want)
		}
	}
}

// runSmoke runs one workload on its small data set and returns the
// result line.
func runSmoke(t *testing.T, name string, trace int) result {
	t.Helper()
	o := options{workload: name, seed: 7, seconds: 0.6, trace: trace, smoke: true,
		traceOut: filepath.Join(t.TempDir(), "trace.json")}
	var out bytes.Buffer
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	res, err := lastResult(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	if trace != 0 {
		var tf traceFile
		data, err := os.ReadFile(o.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatal(err)
		}
		ids := make(map[uint64]bool)
		for _, s := range tf.Spans {
			ids[s.ID] = true
		}
		for _, s := range tf.Spans {
			if s.Parent != 0 && !ids[s.Parent] {
				t.Errorf("%s: span %d (%s) names parent %d, which is not in the file", name, s.ID, s.Name, s.Parent)
			}
			if s.EndNs < s.StartNs {
				t.Errorf("%s: span %d (%s) ends before it starts", name, s.ID, s.Name)
			}
		}
		if len(tf.Spans) == 0 || len(tf.Counts) == 0 {
			t.Errorf("%s: trace file has %d spans and %d counts", name, len(tf.Spans), len(tf.Counts))
		}
	}
	return res
}

// checkMetrics checks that a result carries exactly the listed metrics
// with their units and finite values.
func checkMetrics(t *testing.T, name string, res result, want []metric, zeroOK map[string]bool) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, want %d", name, len(res.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", name, m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s is %v", name, m.Name, v.Value)
		case v.Value == 0 && !zeroOK[m.Name]:
			t.Errorf("%s: metric %s is zero", name, m.Name)
		}
	}
}

// TestWorkloadsReportTheSchema runs every workload on its small data
// set, with tracing off and on, and checks the reported names and
// units against the lists BENCHMARK.json repeats.
func TestWorkloadsReportTheSchema(t *testing.T) {
	// Counts that are zero when nothing goes wrong, allocation counts of
	// allocation-free paths, and differences that may cancel.
	zeroOK := map[string]bool{
		"client.retries": true, "client.map_refreshes": true, "controller.scale_ups": true,
		"wire.frame_small_allocs": true, "rpc.null_call_allocs": true, "trace.overhead_share": true,
	}
	for _, w := range workloads {
		name := w.name
		checkMetrics(t, name, runSmoke(t, name, 0), endToEnd, nil)
		checkMetrics(t, name+" traced", runSmoke(t, name, 1), perLayer, zeroOK)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns, since that is what the
// driver computes.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 2, 38, 23, 38, 23, 21, 5, 7, 16})
	if q1 != 6.5 || q3 != 26.75 {
		t.Errorf("quartiles %v, %v; python gives 6.5, 26.75", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles %v, %v; python gives 1.5, 4.5", q1, q3)
	}
}

// TestRecorderCountsFailures checks that a failed or mismatching call
// is counted as failed, never as work done, and that a round gives up
// once failures pile up.
func TestRecorderCountsFailures(t *testing.T) {
	defs := []callDef{{"read", kindRead}, {"write", kindWrite}}
	rec := newRecorder(defs, time.Second, nil, 0)
	rec.begin = time.Now()
	t0 := rec.begin
	rec.done(0, t0, t0.Add(time.Millisecond), 1, 10, nil)
	rec.done(1, t0, t0.Add(time.Millisecond), 64, 6400, errMismatch)
	if rec.ops != 1 || rec.failed != 64 || rec.read.Count() != 1 || rec.write.Count() != 0 {
		t.Errorf("ops=%d failed=%d reads=%d writes=%d", rec.ops, rec.failed, rec.read.Count(), rec.write.Count())
	}
	if rec.counts[1].Errors != 1 || rec.counts[1].Ops != 0 || !errors.Is(rec.firstErr, errMismatch) {
		t.Errorf("counts %+v, first error %v", rec.counts[1], rec.firstErr)
	}
	if err := rec.tooManyFailures(); err != nil {
		t.Errorf("gave up after %d failures: %v", rec.failed, err)
	}
	fork := rec.fork()
	fork.done(1, t0, t0.Add(time.Millisecond), 64, 6400, errMismatch)
	rec.join(fork)
	if rec.failed != 128 || fork.failed != 0 {
		t.Errorf("after join: failed=%d, fork keeps %d", rec.failed, fork.failed)
	}
	if rec.tooManyFailures() == nil {
		t.Error("128 failures did not end the round")
	}
}

// TestWorkloadHashFollowsSeed checks that the same seed generates the
// same inputs and another seed different ones.
func TestWorkloadHashFollowsSeed(t *testing.T) {
	hashOf := func(name string, seed uint64) uint64 {
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		defer w.base().close()
		if err := w.setup(context.Background(), seed, true); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return w.hash()
	}
	for _, w := range workloads {
		a, b, c := hashOf(w.name, 7), hashOf(w.name, 7), hashOf(w.name, 8)
		if a != b {
			t.Errorf("%s: seed 7 hashed to %x and %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 both hashed to %x", w.name, a)
		}
	}
}
