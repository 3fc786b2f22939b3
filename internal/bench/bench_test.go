package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// quick runs a figure generator in Quick mode and returns its output.
func quick(t *testing.T, fn func(io.Writer, Options) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := fn(&buf, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestFig1(t *testing.T) {
	out := quick(t, Fig1)
	for _, want := range []string{"Fig. 1(a)", "Fig. 1(b)", "peak/avg", "average utilization"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

// TestFig9 checks Fig. 9's shape on the quick profile: at every
// capacity Jiffy's slowdown is at most Pocket's and ElastiCache's, and
// its utilization at least 3× Pocket's.
func TestFig9(t *testing.T) {
	_, _, rows := fig9Sweep(Options{Quick: true})
	if len(rows) != 5 {
		t.Fatalf("%d capacities, want 5", len(rows))
	}
	if err := fig9Shape(rows); err != nil {
		t.Error(err)
	}
}

func TestFig10(t *testing.T) {
	out := quick(t, Fig10)
	for _, want := range []string{"write latency", "read latency", "MB/s", "Jiffy", "DynamoDB"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
	// DynamoDB must reject the 512KB object.
	if !strings.Contains(out, "n/s") {
		t.Error("DynamoDB 128KB cap not exercised")
	}
}

func TestFig11a(t *testing.T) {
	out := quick(t, Fig11a)
	for _, want := range []string{"queue", "file", "kv", "allocated", "used"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestFig11b(t *testing.T) {
	out := quick(t, Fig11b)
	for _, want := range []string{"repartition latency", "before", "during"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestFig12a(t *testing.T) {
	out := quick(t, Fig12a)
	if !strings.Contains(out, "throughput(KOps)") {
		t.Errorf("output:\n%s", out)
	}
}

// TestFig12b checks the rows Fig. 12(b) prints on the quick profile:
// one per shard count, 1 and 4 shards, each with non-zero throughput.
func TestFig12b(t *testing.T) {
	rows, err := fig12bRows(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for i, want := range []int{1, 4} {
		if rows[i].Shards != want || rows[i].KOps <= 0 {
			t.Errorf("row %d = %+v, want %d shards and non-zero KOps", i, rows[i], want)
		}
	}
}

func TestFig13a(t *testing.T) {
	out := quick(t, Fig13a)
	for _, want := range []string{"latency CDF", "ElastiCache", "Jiffy", "medians"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestFig13b(t *testing.T) {
	out := quick(t, Fig13b)
	for _, want := range []string{"ExCamera", "rendezvous", "jiffy", "total wait"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

// TestFig14 checks each Fig. 14 sweep's shape on the quick profile:
// allocated/used never falls as the block size, the lease or the
// premature-allocation margin grows.
func TestFig14(t *testing.T) {
	for name, rows := range map[string][]fig14Row{
		"a": fig14aRows(Options{Quick: true}),
		"b": fig14bRows(Options{Quick: true}),
		"c": fig14cRows(Options{Quick: true}),
	} {
		if len(rows) != 5 {
			t.Errorf("fig14%s: %d points, want 5", name, len(rows))
		}
		if err := fig14Shape(rows); err != nil {
			t.Errorf("fig14%s: %v", name, err)
		}
	}
}

func TestOverhead(t *testing.T) {
	out := quick(t, Overhead)
	if !strings.Contains(out, "metadata") {
		t.Errorf("output:\n%s", out)
	}
}

func TestAblationLeases(t *testing.T) {
	out := quick(t, AblationLeases)
	if !strings.Contains(out, "propagation cuts") {
		t.Errorf("output:\n%s", out)
	}
}

func TestAblationProactive(t *testing.T) {
	out := quick(t, AblationProactive)
	if !strings.Contains(out, "proactive signal") {
		t.Errorf("output:\n%s", out)
	}
}

func TestAblationCuckoo(t *testing.T) {
	out := quick(t, AblationCuckoo)
	if !strings.Contains(out, "cuckoo") {
		t.Errorf("output:\n%s", out)
	}
}
