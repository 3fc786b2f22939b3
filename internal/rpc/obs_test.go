package rpc

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/obs"
	"jiffy/internal/proto"
)

// TestSpanPropagation proves the acceptance criterion that span IDs
// propagate client→server over both transports: the server-side span
// must share the client span's trace ID and name the client span as
// its parent.
func TestSpanPropagation(t *testing.T) {
	for _, addr := range []string{"mem://spanprop", "127.0.0.1:0"} {
		t.Run(addr, func(t *testing.T) {
			srvRing := obs.NewRingExporter(64)
			srv := NewServer(BytesHandler(func(_ context.Context, _ *ServerConn, method uint16, payload []byte) ([]byte, error) {
				return append([]byte(nil), payload...), nil
			}), nil)
			srv.SetObserver(obs.NewRPCMetrics("server"), obs.NewTracer(srvRing, nil))
			bound, err := srv.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			cliRing := obs.NewRingExporter(64)
			c, err := Dial(bound)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetInstrumentation(obs.NewRPCMetrics("client"), obs.NewTracer(cliRing, nil), bound)

			out, err := c.CallContext(context.Background(), proto.MethodDataOp, []byte("ping"))
			if err != nil || !bytes.Equal(out, []byte("ping")) {
				t.Fatalf("call: %q, %v", out, err)
			}

			cliSpans := cliRing.Snapshot()
			if len(cliSpans) != 1 {
				t.Fatalf("client spans = %d, want 1", len(cliSpans))
			}
			// The server records asynchronously after writing the response;
			// wait briefly for the export.
			var srvSpans []obs.SpanEvent
			for i := 0; i < 100; i++ {
				if srvSpans = srvRing.Snapshot(); len(srvSpans) == 1 {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if len(srvSpans) != 1 {
				t.Fatalf("server spans = %d, want 1", len(srvSpans))
			}
			cs, ss := cliSpans[0], srvSpans[0]
			if cs.TraceID == 0 || cs.TraceID != ss.TraceID {
				t.Fatalf("trace IDs do not match: client %x server %x", cs.TraceID, ss.TraceID)
			}
			if ss.ParentID != cs.SpanID {
				t.Fatalf("server span parent %x, want client span %x", ss.ParentID, cs.SpanID)
			}
			if cs.Name != "rpc:DataOp" || ss.Name != "srv:DataOp" {
				t.Fatalf("span names: %q / %q", cs.Name, ss.Name)
			}
		})
	}
}

// TestSpanPropagationUntracedServer: a traced client talking to a
// server without an observer must work unchanged — the trace extension
// is optional and ignored.
func TestSpanPropagationUntracedServer(t *testing.T) {
	srv := NewServer(BytesHandler(func(_ context.Context, _ *ServerConn, _ uint16, payload []byte) ([]byte, error) {
		return append([]byte(nil), payload...), nil
	}), nil)
	bound, err := srv.Listen("mem://spanprop-untraced")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetInstrumentation(nil, obs.NewTracer(obs.NewRingExporter(8), nil), bound)
	for i := 0; i < 3; i++ {
		if _, err := c.CallContext(context.Background(), proto.MethodDataOp, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPerMethodMetrics: the client- and server-side tables must agree
// on request counts per method, and the latency histogram count must
// equal the request counter (the no-lost-samples invariant).
func TestPerMethodMetrics(t *testing.T) {
	serverMetrics := obs.NewRPCMetrics("server")
	srv := NewServer(BytesHandler(func(_ context.Context, _ *ServerConn, method uint16, payload []byte) ([]byte, error) {
		if method == proto.CreateBlock.ID {
			return nil, core.ErrExists
		}
		return append([]byte(nil), payload...), nil
	}), nil)
	srv.SetObserver(serverMetrics, nil)
	bound, err := srv.Listen("mem://permethod")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clientMetrics := obs.NewRPCMetrics("client")
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetInstrumentation(clientMetrics, nil, bound)

	for i := 0; i < 5; i++ {
		if _, err := c.CallContext(context.Background(), proto.MethodDataOp, []byte("abc")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CallContext(context.Background(), proto.CreateBlock.ID, nil); !errors.Is(err, core.ErrExists) {
		t.Fatalf("want ErrExists, got %v", err)
	}

	// Server-side stats are recorded after the response frame is
	// written, so the last call can still be in flight on the server's
	// bookkeeping when CallContext returns; wait for the quiesce.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if serverMetrics.Method(proto.MethodDataOp).Latency.Count() == 5 &&
			serverMetrics.Method(proto.CreateBlock.ID).Latency.Count() == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	for _, tc := range []struct {
		m      *obs.RPCMetrics
		method uint16
		reqs   int64
		errs   int64
	}{
		{clientMetrics, proto.MethodDataOp, 5, 0},
		{clientMetrics, proto.CreateBlock.ID, 1, 1},
		{serverMetrics, proto.MethodDataOp, 5, 0},
		{serverMetrics, proto.CreateBlock.ID, 1, 1},
	} {
		s := tc.m.Method(tc.method)
		if got := s.Requests.Value(); got != tc.reqs {
			t.Errorf("%s %s requests = %d, want %d", tc.m.Role, proto.MethodName(tc.method), got, tc.reqs)
		}
		if got := s.Errors.Value(); got != tc.errs {
			t.Errorf("%s %s errors = %d, want %d", tc.m.Role, proto.MethodName(tc.method), got, tc.errs)
		}
		if s.Latency.Count() != s.Requests.Value() {
			t.Errorf("%s %s histogram count %d != requests %d",
				tc.m.Role, proto.MethodName(tc.method), s.Latency.Count(), s.Requests.Value())
		}
		if got := s.InFlight.Value(); got != 0 {
			t.Errorf("%s %s in-flight = %d after quiesce", tc.m.Role, proto.MethodName(tc.method), got)
		}
	}
	if got := clientMetrics.Method(proto.MethodDataOp).BytesOut.Value(); got != 15 {
		t.Errorf("client bytes out = %d, want 15", got)
	}
}

// TestCallContextCancellation: a canceled context must fail the call
// with context.Canceled; an expired ctx deadline must map onto the
// typed ErrTimeout while still unwrapping to DeadlineExceeded, and it
// must take precedence over the session default timeout.
func TestCallContextCancellation(t *testing.T) {
	block := make(chan struct{})
	srv := NewServer(BytesHandler(func(_ context.Context, _ *ServerConn, _ uint16, _ []byte) ([]byte, error) {
		<-block
		return nil, nil
	}), nil)
	bound, err := srv.Listen("mem://cancel")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Unblock handlers before srv.Close (defers run LIFO); Close waits
	// for in-flight handlers to drain.
	defer close(block)

	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(time.Hour) // ctx deadline must win over this

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.CallContext(ctx, proto.MethodDataOp, nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not fail the pending call")
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	start := time.Now()
	_, err = c.CallContext(dctx, proto.MethodDataOp, nil)
	if !errors.Is(err, core.ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrTimeout wrapping DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not take precedence over session timeout (%v)", elapsed)
	}
}
