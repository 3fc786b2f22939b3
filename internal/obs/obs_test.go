package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// Each value must land in the bucket whose bound is the smallest
	// power of two >= value.
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {-5, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {1<<40 + 1, histBuckets - 1},
	}
	for _, tc := range cases {
		before := h.counts[tc.bucket].Load()
		h.Observe(tc.v)
		if got := h.counts[tc.bucket].Load(); got != before+1 {
			t.Errorf("Observe(%d): bucket %d count %d, want %d", tc.v, tc.bucket, got, before+1)
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(cases))
	}
}

func TestHistogramBoundsInvariant(t *testing.T) {
	// Cross-check the index computation against the rendered le bounds:
	// v must be <= the bound of its bucket, and > the previous bound.
	var h Histogram
	for v := int64(1); v < 1<<20; v = v*3 + 1 {
		h = Histogram{}
		h.Observe(v)
		for i := 0; i < histBuckets; i++ {
			if h.counts[i].Load() == 0 {
				continue
			}
			if b := bucketBound(i); b >= 0 && v > b {
				t.Fatalf("value %d landed in bucket le=%d", v, b)
			}
			if i > 0 {
				if prev := bucketBound(i - 1); v <= prev {
					t.Fatalf("value %d should fit earlier bucket le=%d", v, prev)
				}
			}
		}
	}
}

func TestRegistryPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jiffy_test_total", "A test counter.")
	var g Gauge
	r.GaugeFunc("jiffy_test_gauge", "A test gauge.", g.Value)
	r.GaugeFunc("jiffy_test_func", "A computed gauge.", func() int64 { return 7 })
	h := r.Histogram("jiffy_test_hist", "A test histogram.")
	c.Add(41)
	c.Inc()
	g.Set(-3)
	h.Observe(5)
	h.Observe(100)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	m := ParsePrometheus(buf.Bytes())
	if m["jiffy_test_total"] != 42 {
		t.Errorf("counter = %v, want 42", m["jiffy_test_total"])
	}
	if m["jiffy_test_gauge"] != -3 {
		t.Errorf("gauge = %v, want -3", m["jiffy_test_gauge"])
	}
	if m["jiffy_test_func"] != 7 {
		t.Errorf("gauge func = %v, want 7", m["jiffy_test_func"])
	}
	if m["jiffy_test_hist_count"] != 2 {
		t.Errorf("hist count = %v, want 2", m["jiffy_test_hist_count"])
	}
	if m["jiffy_test_hist_sum"] != 105 {
		t.Errorf("hist sum = %v, want 105", m["jiffy_test_hist_sum"])
	}
	if m[`jiffy_test_hist_bucket{le="+Inf"}`] != 2 {
		t.Errorf("+Inf bucket = %v, want 2", m[`jiffy_test_hist_bucket{le="+Inf"}`])
	}
	// Cumulative: the le=8 bucket holds the 5 but not the 100.
	if m[`jiffy_test_hist_bucket{le="8"}`] != 1 {
		t.Errorf(`le="8" bucket = %v, want 1`, m[`jiffy_test_hist_bucket{le="8"}`])
	}
}

func TestRPCMetricsRender(t *testing.T) {
	m := NewRPCMetrics("client")
	s := m.Method(0x0101)
	s.Requests.Add(3)
	s.BytesOut.Add(300)
	s.Latency.ObserveDuration(5 * time.Millisecond)
	if m.Method(0x0101) != s {
		t.Fatal("Method not stable")
	}
	if m.Method(0x0001) == s {
		t.Fatal("controller/server methods alias")
	}
	r := NewRegistry()
	m.Register(r, func(method uint16) string {
		if method == 0x0101 {
			return "DataOp"
		}
		return ""
	})
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	parsed := ParsePrometheus(buf.Bytes())
	key := `jiffy_rpc_requests_total{role="client",method="DataOp"}`
	if parsed[key] != 3 {
		t.Fatalf("%s = %v, want 3 (output:\n%s)", key, parsed[key], buf.String())
	}
	if parsed[`jiffy_rpc_latency_usec_count{role="client",method="DataOp"}`] != 1 {
		t.Fatal("latency histogram missing")
	}
	// Untouched methods must not be rendered.
	if strings.Contains(buf.String(), "0x0002") {
		t.Fatal("inactive method slot rendered")
	}
}

func TestSpanContextPropagation(t *testing.T) {
	ctx := context.Background()
	if _, ok := SpanFromContext(ctx); ok {
		t.Fatal("background ctx should carry no span")
	}
	sc := SpanContext{TraceID: NewID(), SpanID: NewID()}
	ctx = ContextWithSpan(ctx, sc)
	got, ok := SpanFromContext(ctx)
	if !ok || got != sc {
		t.Fatalf("got %+v ok=%v, want %+v", got, ok, sc)
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		id := NewID()
		if id == 0 || seen[id] {
			t.Fatalf("duplicate or zero id %x at %d", id, i)
		}
		seen[id] = true
	}
}

func TestTracerParentChild(t *testing.T) {
	ring := NewRingExporter(16)
	tr := NewTracer(ring, nil)
	ctx, root := tr.Begin(context.Background(), "root", "")
	_, child := tr.Begin(ctx, "child", "srv1")
	child.End(errors.New("boom"))
	root.End(nil)

	spans := ring.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	c, r := spans[0], spans[1]
	if c.TraceID != r.TraceID {
		t.Fatal("child not in root's trace")
	}
	if c.ParentID != r.SpanID {
		t.Fatal("child's parent is not root")
	}
	if c.Err != "boom" || r.Err != "" {
		t.Fatalf("err fields wrong: %q %q", c.Err, r.Err)
	}
	var nilTracer *Tracer
	nctx, sp := nilTracer.Begin(context.Background(), "x", "")
	sp.End(nil) // must not panic
	if _, ok := SpanFromContext(nctx); ok {
		t.Fatal("nil tracer must not install a span")
	}
}

func TestRingExporterEviction(t *testing.T) {
	ring := NewRingExporter(3)
	for i := 1; i <= 5; i++ {
		ring.ExportSpan(SpanEvent{SpanID: uint64(i)})
	}
	spans := ring.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("len = %d, want 3", len(spans))
	}
	for i, want := range []uint64{3, 4, 5} {
		if spans[i].SpanID != want {
			t.Fatalf("spans[%d] = %d, want %d (oldest first)", i, spans[i].SpanID, want)
		}
	}
	if ring.Total() != 5 {
		t.Fatalf("total = %d, want 5", ring.Total())
	}
}

func TestAdminEndpoint(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("jiffy_admin_test_total", "Admin test counter.")
	c.Add(9)
	ring := NewRingExporter(8)
	ring.ExportSpan(SpanEvent{TraceID: 1, SpanID: 2, Name: "op"})
	healthy := true
	srv, err := ServeAdmin("127.0.0.1:0", AdminOptions{
		Registry: reg,
		Spans:    ring,
		Health: func() error {
			if !healthy {
				return errors.New("degraded")
			}
			return nil
		},
		HealthDetail: func() any {
			return struct {
				Degraded []string `json:"degraded_servers"`
			}{Degraded: []string{"mem://s1"}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if m := ParsePrometheus(body); m["jiffy_admin_test_total"] != 9 {
		t.Fatalf("metrics body missing counter:\n%s", body)
	}

	code, body = get("/healthz")
	if code != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body = get("/healthz?detail=1")
	if code != 200 {
		t.Fatalf("/healthz?detail=1 status %d", code)
	}
	var detail struct {
		Status string `json:"status"`
		Detail struct {
			Degraded []string `json:"degraded_servers"`
		} `json:"detail"`
	}
	if err := json.Unmarshal(body, &detail); err != nil {
		t.Fatalf("/healthz?detail=1 not JSON: %v (%q)", err, body)
	}
	if detail.Status != "ok" || len(detail.Detail.Degraded) != 1 || detail.Detail.Degraded[0] != "mem://s1" {
		t.Fatalf("healthz detail wrong: %+v", detail)
	}
	healthy = false
	if code, _ = get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy /healthz status %d, want 503", code)
	}
	if code, body = get("/healthz?detail=1"); code != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "degraded") {
		t.Fatalf("unhealthy detail = %d %q, want 503 with status", code, body)
	}

	code, body = get("/spans")
	if code != 200 {
		t.Fatalf("/spans status %d", code)
	}
	var dump struct {
		Total int64       `json:"total"`
		Spans []SpanEvent `json:"spans"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("/spans not JSON: %v", err)
	}
	if dump.Total != 1 || len(dump.Spans) != 1 || dump.Spans[0].Name != "op" {
		t.Fatalf("spans dump wrong: %+v", dump)
	}

	if code, _ = get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

func TestParsePrometheusLabels(t *testing.T) {
	in := "# HELP x y\nx{a=\"b c\",d=\"e\"} 12\nplain 3\nbad\n"
	m := ParsePrometheus([]byte(in))
	if m[`x{a="b c",d="e"}`] != 12 || m["plain"] != 3 {
		t.Fatalf("parse wrong: %v", m)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 0xffff))
	}
}

func BenchmarkMethodStatsHotPath(b *testing.B) {
	// The full per-call instrumentation sequence the rpc client runs.
	m := NewRPCMetrics("client")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := m.Method(0x0101)
		s.Requests.Inc()
		s.BytesOut.Add(128)
		s.InFlight.Inc()
		s.Latency.Observe(12)
		s.InFlight.Dec()
	}
}
