package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"

	"jiffy/benchmark/stats"
)

// quartiles returns the first and third quartile of vs as Python's
// statistics.quantiles(vs, n=4) does (the exclusive method), which is
// what the driver that judges this benchmark computes.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// selfcheck runs the whole benchmark k times, each run a fresh
// process with its own seed exactly as the driver runs it, and prints
// for every workload and end-to-end metric the median, the quartiles,
// their distance as a share of the median and (max-min)/median. It
// fails when a distance between quartiles exceeds the metric's bound:
// a benchmark whose own runs disagree by more than the bound cannot
// tell a regression of that size from noise.
func selfcheck(ctx context.Context, o options, names []string, out io.Writer) error {
	if o.selfcheck < 2 {
		return fmt.Errorf("-selfcheck needs at least 2 runs")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | (max-min)/median | bound | |\n")
	fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|---|---|\n")
	noisy := 0
	for _, name := range names {
		runs := make(map[string][]float64)
		for i := 0; i < o.selfcheck; i++ {
			args := []string{"-workload", name, "-seed", strconv.FormatUint(o.seed+uint64(100*i), 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i, err)
			}
			res, err := lastResult(stdout)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i, err)
			}
			for m, v := range res.Metrics {
				runs[m] = append(runs[m], v.Value)
			}
		}
		for _, m := range endToEnd {
			vs := runs[m.Name]
			med := stats.Median(vs)
			q1, q3 := quartiles(vs)
			lo, hi := vs[0], vs[0]
			for _, v := range vs {
				lo, hi = min(lo, v), max(hi, v)
			}
			iqr := (q3 - q1) / med
			verdict := "ok"
			// setup_s is judged by the driver on its median only.
			if iqr > m.Bound && m.Name != "setup_s" {
				verdict = "NOISY"
				noisy++
			}
			fmt.Fprintf(out, "| %s | %s | %s | %.5g | %.5g | %.5g | %.4f | %.4f | %.2f | %s |\n",
				name, m.Name, m.Unit, med, q1, q3, iqr, (hi-lo)/med, m.Bound, verdict)
		}
	}
	if noisy > 0 {
		return fmt.Errorf("%d end-to-end metrics spread wider than their bound", noisy)
	}
	return nil
}

// lastResult parses the last line of a run's standard output.
func lastResult(stdout []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("last output line is not a result: %w", err)
	}
	return res, nil
}
