package rpc

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Methods of the worker tests' server, beyond the shared ones.
const methodBlock uint16 = 100

// startWorkerServer serves echo, panic and a method that blocks until
// release is closed, with no inline handler, so every request takes the
// goroutine path. The caller closes the server.
func startWorkerServer(t *testing.T, release <-chan struct{}) (*Server, *Client) {
	t.Helper()
	srv := NewServer(BytesHandler(func(_ context.Context, _ *ServerConn, method uint16, payload []byte) ([]byte, error) {
		switch method {
		case methodEcho:
			return append([]byte(nil), payload...), nil
		case methodPanic:
			panic("boom")
		case methodBlock:
			<-release
			return []byte("released"), nil
		}
		return nil, fmt.Errorf("unknown method %d", method)
	}), nil)
	addr, err := srv.Listen(fmt.Sprintf("mem://rpc-worker-%p", srv))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return srv, c
}

// awaitParked waits until the server's one connection has a parked
// worker.
func awaitParked(t *testing.T, srv *Server) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		parked := false
		for sc := range srv.conns {
			parked = parked || sc.parked.Load()
		}
		srv.mu.Unlock()
		if parked {
			return
		}
	}
	t.Fatal("no worker parked on the connection")
}

// TestParkedWorkerAllocs: a serial stream of goroutine-path calls on
// one session runs on the connection's parked worker, so a call spawns
// no goroutine and allocates no closure for one. Such a call measures
// 2 objects (client and server together: the echo's answer and the
// caller's copy of it); 5 when the payload pool kept the echo's
// few-byte answer, which cost a box to hold and a regrown buffer for the
// next request's copy, and 7 with a new goroutine per request. The
// ceiling of 3 leaves room for the odd request that arrives before the
// worker is back in its place.
func TestParkedWorkerAllocs(t *testing.T) {
	if poolsInstrumented {
		t.Skip("the race detector or the jiffydebug build instruments the pools")
	}
	release := make(chan struct{})
	srv, c := startWorkerServer(t, release)
	defer srv.Close()
	defer c.Close()
	payload := []byte("ping")
	call := func() {
		if _, err := c.CallContext(context.Background(), methodEcho, payload); err != nil {
			t.Fatal(err)
		}
	}
	call()
	awaitParked(t, srv)
	allocs := testing.AllocsPerRun(2000, call)
	if allocs > 3 {
		t.Fatalf("a goroutine-path call allocates %.2f objects, want <= 3", allocs)
	}
}

// TestParkedWorkerNoHeadOfLineBlocking: while the parked worker runs a
// blocked request, the next request on the same connection gets a new
// goroutine and is answered.
func TestParkedWorkerNoHeadOfLineBlocking(t *testing.T) {
	release := make(chan struct{})
	srv, c := startWorkerServer(t, release)
	defer srv.Close()
	defer c.Close()
	if _, err := c.CallContext(context.Background(), methodEcho, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	awaitParked(t, srv)
	blocked := make(chan error, 1)
	go func() {
		_, err := c.CallContext(context.Background(), methodBlock, nil)
		blocked <- err
	}()
	resp, err := c.CallContext(context.Background(), methodEcho, []byte("second"))
	if err != nil || string(resp) != "second" {
		t.Fatalf("second call = %q, %v", resp, err)
	}
	select {
	case err := <-blocked:
		t.Fatalf("the blocked call returned early: %v", err)
	default:
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("blocked call: %v", err)
	}
}

// TestParkedWorkerPanicIsolated: a handler panic on the parked worker
// fails only its own call; the worker parks again and the connection
// keeps serving.
func TestParkedWorkerPanicIsolated(t *testing.T) {
	srv, c := startWorkerServer(t, nil)
	defer srv.Close()
	defer c.Close()
	if _, err := c.CallContext(context.Background(), methodEcho, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	awaitParked(t, srv)
	if _, err := c.CallContext(context.Background(), methodPanic, nil); err == nil {
		t.Fatal("a panicking handler answered without an error")
	}
	awaitParked(t, srv)
	resp, err := c.CallContext(context.Background(), methodEcho, []byte("still alive"))
	if err != nil || string(resp) != "still alive" {
		t.Fatalf("call after the panic = %q, %v", resp, err)
	}
}

// TestParkedWorkerExitsOnClose: once Server.Close returns, no worker
// of any connection is left running.
func TestParkedWorkerExitsOnClose(t *testing.T) {
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	close(release)
	srv, c := startWorkerServer(t, release)
	errs := make(chan error, 8)
	for i := 0; i < cap(errs); i++ {
		go func() {
			_, err := c.CallContext(context.Background(), methodBlock, nil)
			errs <- err
		}()
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	awaitParked(t, srv)
	c.Close()
	srv.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestHeldRequestKeepsItsPayload: a goroutine-path request runs on a
// pooled copy of the connection's read storage, which goes back to the
// pool only when that request is over. A handler held while the read
// loop takes, answers and recycles many more small requests still reads
// its own payload byte for byte; under -tags jiffydebug a copy returned
// early would also read as the pool's poison.
func TestHeldRequestKeepsItsPayload(t *testing.T) {
	held := bytes.Repeat([]byte{0xA5}, 3000)
	entered, release := make(chan struct{}), make(chan struct{})
	srv := NewServer(BytesHandler(func(_ context.Context, _ *ServerConn, method uint16, payload []byte) ([]byte, error) {
		if method != methodBlock {
			return append([]byte(nil), payload...), nil
		}
		close(entered)
		<-release
		if !bytes.Equal(payload, held) {
			return nil, fmt.Errorf("held payload changed under its handler: %x", payload[:16])
		}
		return []byte("intact"), nil
	}), nil)
	addr, err := srv.Listen(fmt.Sprintf("mem://rpc-held-%p", srv))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Runs first on every exit: Close waits for the held handler.
	releaseHeld := sync.OnceFunc(func() { close(release) })
	defer releaseHeld()

	heldDone := make(chan error, 1)
	go func() {
		out, err := c.CallContext(context.Background(), methodBlock, held)
		if err == nil && string(out) != "intact" {
			err = fmt.Errorf("held call answered %q", out)
		}
		heldDone <- err
	}()
	<-entered
	for i := 0; i < 256; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 1+i*37%4000)
		out, err := c.CallContext(context.Background(), methodEcho, p)
		if err != nil || !bytes.Equal(out, p) {
			t.Fatalf("echo %d: %d bytes back, want %d; %v", i, len(out), len(p), err)
		}
	}
	releaseHeld()
	if err := <-heldDone; err != nil {
		t.Fatal(err)
	}
}
