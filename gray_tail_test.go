package jiffy_test

import (
	"testing"

	"jiffy/internal/bench/tailbench"
)

// TestChaosGrayFailureHedgedTailLatency is the gray-failure read bound,
// counted rather than timed: with the chain tail fail-slow, the backup
// request to a healthy chain member wins at least 95 % of the hedged
// client's gray-phase reads, while the unhedged client feels the full
// injected delay. tailbench.Measure is the body jiffy-regress -tail
// gates on wall-clock p99; it also checks the bytes of every read and
// that every write acked through the slow chain reads back.
func TestChaosGrayFailureHedgedTailLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("long chaos scenario")
	}
	res, err := tailbench.Measure(true, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Sanity(); err != nil {
		t.Fatal(err)
	}
	if share := res.HedgesWon / float64(res.HedgedReads); share < 0.95 {
		t.Errorf("the backup won %.0f of %d gray-phase hedged reads (%.1f %%), want >= 95 %%",
			res.HedgesWon, res.HedgedReads, 100*share)
	}
}
