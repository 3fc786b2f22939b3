package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/obs"
	"jiffy/internal/wire"
)

// TestCallShapes drives every request shape the client writes — small
// contiguous (one encoded buffer), large contiguous and scatter-gather
// (one framed write), each with and without a trace extension riding
// ahead of the request — through both response modes, over both
// transports. Every echo must equal its request; a borrowed response
// arrives pooled exactly when it is small and is returned once (under
// -tags jiffydebug a second return panics); every traced call must
// produce a server span parented by the client span.
func TestCallShapes(t *testing.T) {
	pattern := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i*31)
		}
		return b
	}
	shapes := []struct {
		name    string
		payload []byte
		vec     [][]byte
	}{
		{name: "128B", payload: pattern(128, 1)},
		{name: "64KiB", payload: pattern(64*core.KB, 2)},
		{name: "vec3", vec: [][]byte{pattern(16*core.KB, 3), pattern(32*core.KB, 4), pattern(24*core.KB, 5)}},
	}
	for _, addr := range []string{"mem://call-shapes", "127.0.0.1:0"} {
		t.Run(addr, func(t *testing.T) {
			srvRing := obs.NewRingExporter(64)
			srv := NewServer(BytesHandler(func(_ context.Context, _ *ServerConn, _ uint16, payload []byte) ([]byte, error) {
				return append([]byte(nil), payload...), nil
			}), nil)
			srv.SetObserver(obs.NewRPCMetrics("server"), obs.NewTracer(srvRing, nil))
			bound, err := srv.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			plain, err := Dial(bound)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			traced, err := Dial(bound)
			if err != nil {
				t.Fatal(err)
			}
			defer traced.Close()
			cliRing := obs.NewRingExporter(64)
			traced.SetInstrumentation(nil, obs.NewTracer(cliRing, nil), bound)

			for _, c := range []*Client{plain, traced} {
				for _, sh := range shapes {
					for _, borrow := range []bool{false, true} {
						name := fmt.Sprintf("traced=%v/%s/borrow=%v", c == traced, sh.name, borrow)
						want := append(append([]byte(nil), sh.payload...), bytes.Join(sh.vec, nil)...)
						ctx := context.Background()
						var out []byte
						var pooled bool
						switch {
						case sh.vec == nil && borrow:
							out, pooled, err = c.CallBorrowedContext(ctx, methodEcho, sh.payload)
						case sh.vec == nil:
							out, err = c.CallContext(ctx, methodEcho, sh.payload)
						case borrow:
							// No exported borrowed vectored call; drive the core.
							out, pooled, err = c.callInstrumented(ctx, methodEcho, nil, sh.vec, true)
						default:
							out, err = c.CallVecContext(ctx, methodEcho, sh.vec)
						}
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !bytes.Equal(out, want) {
							t.Fatalf("%s: echo of %d bytes differs from the %d-byte request", name, len(out), len(want))
						}
						if wantPooled := borrow && len(want) <= wire.InlineFrameThreshold; pooled != wantPooled {
							t.Fatalf("%s: pooled = %v, want %v", name, pooled, wantPooled)
						}
						if pooled {
							wire.PutBuf(out)
						}
						if c == traced {
							spans := cliRing.Snapshot()
							waitServerChild(t, name, srvRing, spans[len(spans)-1])
						}
					}
				}
			}
		})
	}
}

// waitServerChild waits for the server span recorded under the client
// span cs; the server records after writing the response.
func waitServerChild(t *testing.T, name string, srvRing *obs.RingExporter, cs obs.SpanEvent) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, ss := range srvRing.Snapshot() {
			if ss.TraceID == cs.TraceID && ss.ParentID == cs.SpanID {
				return
			}
		}
	}
	t.Fatalf("%s: no server span parented by client span %x (trace %x)", name, cs.SpanID, cs.TraceID)
}

// TestInlineDispatch runs requests through an inline handler that
// answers some itself, punts some to the regular handler with
// ErrDispatchAsync and panics on one. Every call gets its own answer,
// the panic fails only its call and leaves the session usable, and the
// server's per-method stats count every call exactly once, punts
// included, with nothing left in flight.
func TestInlineDispatch(t *testing.T) {
	metrics := obs.NewRPCMetrics("server")
	srv := NewServer(BytesHandler(func(_ context.Context, _ *ServerConn, _ uint16, payload []byte) ([]byte, error) {
		return append([]byte("async:"), payload...), nil
	}), nil)
	srv.SetInlineHandler(func(_ context.Context, _ *ServerConn, _ uint16, payload []byte) (Response, error) {
		switch payload[0] {
		case 'p':
			return Response{}, ErrDispatchAsync
		case 'x':
			panic("inline boom")
		}
		return Response{Payload: append(append(wire.GetBuf(), "inline:"...), payload...)}, nil
	}, func(method uint16, _ int) bool { return method == methodEcho })
	srv.SetObserver(metrics, nil)
	addr, err := srv.Listen("mem://inline-dispatch")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// req counts what the server's stats must count for each request.
	var calls, bytesIn int64
	req := func(payload string) []byte {
		calls++
		bytesIn += int64(len(payload))
		return []byte(payload)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for i := 0; i < 40; i++ {
		kind, answer := "a", "inline:"
		if i%2 == 1 {
			kind, answer = "p", "async:"
		}
		payload := req(fmt.Sprintf("%s-%d", kind, i))
		want := answer + string(payload)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if out, err := c.Call(methodEcho, payload); err != nil || string(out) != want {
				errs <- fmt.Errorf("call %q = %q, %v; want %q", payload, out, err, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := c.Call(methodEcho, req("x-panic")); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("panicking inline call = %v, want ErrClosed", err)
	}
	if out, err := c.Call(methodEcho, req("a-after")); err != nil || string(out) != "inline:a-after" {
		t.Fatalf("call after the panic = %q, %v", out, err)
	}
	if out, err := c.Call(methodEcho, req("p-after")); err != nil || string(out) != "async:p-after" {
		t.Fatalf("punt after the panic = %q, %v", out, err)
	}

	// Stats close after the response is written; wait for the last one.
	s := metrics.Method(methodEcho)
	for deadline := time.Now().Add(5 * time.Second); s.Latency.Count() < calls && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := s.Requests.Value(); got != calls {
		t.Errorf("Requests = %d, want %d", got, calls)
	}
	if got := s.BytesIn.Value(); got != bytesIn {
		t.Errorf("BytesIn = %d, want %d", got, bytesIn)
	}
	if got := s.Latency.Count(); got != calls {
		t.Errorf("Latency.Count() = %d, want %d", got, calls)
	}
	if got := s.InFlight.Value(); got != 0 {
		t.Errorf("InFlight = %d after quiesce, want 0", got)
	}
	if got := s.Errors.Value(); got != 1 {
		t.Errorf("Errors = %d, want 1 (the panic)", got)
	}
}
