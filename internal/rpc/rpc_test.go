package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/proto"
	"jiffy/internal/wire"
)

const (
	methodEcho uint16 = iota + 1
	methodFail
	methodNotFound
	methodSlow
	methodSubscribe
	methodPanic
)

func newTestServer(t *testing.T) (addr string, srv *Server) {
	t.Helper()
	var subConns sync.Map
	handler := func(_ context.Context, conn *ServerConn, method uint16, payload []byte) ([]byte, error) {
		switch method {
		case methodEcho:
			return append([]byte(nil), payload...), nil // a response may not alias the request
		case methodFail:
			return nil, errors.New("custom failure")
		case methodNotFound:
			return nil, fmt.Errorf("key %q: %w", payload, core.ErrNotFound)
		case methodSlow:
			time.Sleep(50 * time.Millisecond)
			return []byte("slow"), nil
		case methodSubscribe:
			subConns.Store(conn, struct{}{})
			go func() {
				time.Sleep(10 * time.Millisecond)
				conn.Push(77, []byte("notification"))
			}()
			return nil, nil
		case methodPanic:
			panic("boom")
		}
		return nil, fmt.Errorf("unknown method %d", method)
	}
	srv = NewServer(BytesHandler(handler), nil)
	addr, err := srv.Listen(fmt.Sprintf("mem://rpc-test-%p", srv))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

func TestCallEcho(t *testing.T) {
	addr, _ := newTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(methodEcho, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ping" {
		t.Errorf("resp = %q", resp)
	}
}

func TestInvoke(t *testing.T) {
	addr, _ := newTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type msg struct {
		A int
		B string
	}
	echo := proto.Method[msg, msg]{Info: proto.Info{ID: methodEcho, Name: "Echo"}}
	out, err := Invoke(context.Background(), c, echo, msg{A: 42, B: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if out.A != 42 || out.B != "x" {
		t.Errorf("out = %+v", out)
	}
}

func TestCallSentinelError(t *testing.T) {
	addr, _ := newTestServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	_, err := c.Call(methodNotFound, []byte("k"))
	if !errors.Is(err, core.ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestCallOtherErrorMessage(t *testing.T) {
	addr, _ := newTestServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	_, err := c.Call(methodFail, nil)
	if err == nil || err.Error() != "custom failure" {
		t.Errorf("err = %v", err)
	}
}

func TestCallUnknownMethod(t *testing.T) {
	addr, _ := newTestServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	if _, err := c.Call(999, nil); err == nil {
		t.Error("unknown method should fail")
	}
}

func TestConcurrentCalls(t *testing.T) {
	addr, _ := newTestServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("msg-%d", i)
			resp, err := c.Call(methodEcho, []byte(want))
			if err != nil {
				errs <- err
				return
			}
			if string(resp) != want {
				errs <- fmt.Errorf("cross-wired response: got %q want %q", resp, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSlowCallDoesNotBlockFastCall(t *testing.T) {
	addr, _ := newTestServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	slowDone := make(chan struct{})
	go func() {
		c.Call(methodSlow, nil)
		close(slowDone)
	}()
	time.Sleep(5 * time.Millisecond) // let the slow call start
	start := time.Now()
	if _, err := c.Call(methodEcho, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 40*time.Millisecond {
		t.Errorf("fast call took %v; head-of-line blocked?", d)
	}
	<-slowDone
}

func TestCallContextCancel(t *testing.T) {
	addr, _ := newTestServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := c.CallContext(ctx, methodSlow, nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestPush(t *testing.T) {
	addr, _ := newTestServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	got := make(chan string, 1)
	c.OnPush(func(subID uint64, payload []byte) {
		if subID == 77 {
			got <- string(payload)
		}
	})
	if _, err := c.Call(methodSubscribe, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if msg != "notification" {
			t.Errorf("push = %q", msg)
		}
	case <-time.After(time.Second):
		t.Fatal("push never arrived")
	}
}

func TestHandlerPanicIsolated(t *testing.T) {
	addr, _ := newTestServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	if _, err := c.Call(methodPanic, nil); err == nil {
		t.Error("panicking handler should return an error")
	}
	// The connection is still usable after a handler panic.
	resp, err := c.Call(methodEcho, []byte("still alive"))
	if err != nil || string(resp) != "still alive" {
		t.Errorf("post-panic call = %q, %v", resp, err)
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	addr, _ := newTestServer(t)
	c, _ := Dial(addr)
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(methodSlow, nil)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	c.Close()
	if err := <-done; err == nil {
		t.Error("pending call should fail on close")
	}
	if _, err := c.Call(methodEcho, nil); !errors.Is(err, core.ErrClosed) {
		t.Errorf("call after close = %v, want ErrClosed", err)
	}
}

func TestServerCloseDisconnectsClients(t *testing.T) {
	addr, srv := newTestServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	if _, err := c.Call(methodEcho, []byte("x")); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := c.Call(methodEcho, []byte("x")); err == nil {
		t.Error("call after server close should fail")
	}
}

// writeClosedConn is a connection whose peer has gone but whose read
// side has not noticed yet: every write fails, reads block until Close.
type writeClosedConn struct{ net.Conn }

func (writeClosedConn) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestWriteFailureIsSessionError: a call whose request cannot be written
// fails as a dead session (ErrClosed), not with the raw transport error,
// even before the read pump has seen the peer go — otherwise a leader
// that just closed looks like an answer and the group caller does not
// move on.
func TestWriteFailureIsSessionError(t *testing.T) {
	nc, peer := net.Pipe()
	defer peer.Close()
	c := NewClient(wire.NewConn(writeClosedConn{nc}))
	defer c.Close()
	for _, payload := range [][]byte{[]byte("small"), make([]byte, 64*core.KB)} {
		_, err := c.Call(methodEcho, payload)
		var serr *SessionError
		if !errors.Is(err, core.ErrClosed) || !errors.As(err, &serr) || !errors.Is(serr.Cause, io.ErrClosedPipe) {
			t.Errorf("%d-byte call on a write-closed session = %v, want a SessionError caused by the closed pipe", len(payload), err)
		}
	}
}

func TestOnDisconnectFires(t *testing.T) {
	addr, srv := newTestServer(t)
	var fired atomic.Int32
	srv.OnDisconnect = func(*ServerConn) { fired.Add(1) }
	c, _ := Dial(addr)
	if _, err := c.Call(methodEcho, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	deadline := time.Now().Add(time.Second)
	for fired.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fired.Load() == 0 {
		t.Error("OnDisconnect never fired")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	type payload struct {
		Path   core.Path
		Blocks []core.BlockInfo
	}
	in := payload{
		Path:   core.MustPath("job", "T1"),
		Blocks: []core.BlockInfo{{ID: 1, Server: "a"}, {ID: 2, Server: "b"}},
	}
	data, err := codec.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := codec.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Path != in.Path || len(out.Blocks) != 2 || out.Blocks[1].ID != 2 {
		t.Errorf("round trip = %+v", out)
	}
}

func TestPoolReusesConnections(t *testing.T) {
	addr, _ := newTestServer(t)
	dials := 0
	pool := NewPool(func(a string) (*Client, error) {
		dials++
		return Dial(a)
	})
	defer pool.Close()
	c1, err := pool.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := pool.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 || dials != 1 {
		t.Errorf("pool dialed %d times, conns equal=%v", dials, c1 == c2)
	}
}

func TestPoolDropForcesRedial(t *testing.T) {
	addr, _ := newTestServer(t)
	dials := 0
	pool := NewPool(func(a string) (*Client, error) {
		dials++
		return Dial(a)
	})
	defer pool.Close()
	c1, _ := pool.Get(addr)
	pool.Drop(addr)
	// The dropped client is closed.
	if _, err := c1.Call(methodEcho, nil); err == nil {
		t.Error("dropped connection still usable")
	}
	c2, err := pool.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if dials != 2 {
		t.Errorf("dials = %d, want 2", dials)
	}
	if _, err := c2.Call(methodEcho, []byte("x")); err != nil {
		t.Errorf("redialed conn broken: %v", err)
	}
}

func TestPoolClosedRejects(t *testing.T) {
	addr, _ := newTestServer(t)
	pool := NewPool(nil)
	pool.Close()
	if _, err := pool.Get(addr); err == nil {
		t.Error("closed pool handed out a connection")
	}
}

// TestOversizedResponseAnswersTooLarge: a response over
// wire.MaxFrameSize is refused before a byte is written, so the server
// answers the call with ErrTooLarge at once instead of leaving it to
// its deadline, and the session keeps serving. The body is 257 segments
// aliasing one 1 MiB buffer, so nothing near the bound is allocated.
func TestOversizedResponseAnswersTooLarge(t *testing.T) {
	const methodHuge uint16 = 100
	seg := make([]byte, core.MB)
	var released atomic.Int32
	srv := NewServer(func(_ context.Context, _ *ServerConn, method uint16, payload []byte) (Response, error) {
		if method != methodHuge {
			return Response{Payload: append(wire.GetBuf(), payload...)}, nil
		}
		vec := make([][]byte, wire.MaxFrameSize/core.MB+1)
		for i := range vec {
			vec[i] = seg
		}
		return Response{Vec: vec, Release: func() { released.Add(1) }}, nil
	}, nil)
	addr, err := srv.Listen(fmt.Sprintf("mem://rpc-test-%p", srv))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(3 * time.Second)

	start := time.Now()
	_, err = c.Call(methodHuge, nil)
	if took := time.Since(start); !errors.Is(err, core.ErrTooLarge) || took > time.Second {
		t.Errorf("oversized response = %v after %v, want ErrTooLarge in under 1s", err, took)
	}
	if n := released.Load(); n != 1 {
		t.Errorf("response released %d times, want once", n)
	}
	if resp, err := c.Call(methodEcho, []byte("ping")); err != nil || string(resp) != "ping" {
		t.Errorf("next call on the session = %q, %v", resp, err)
	}
}
