package rpc

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"jiffy/internal/wire"
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
			parked = parked || sc.parked.Load() > 0
		}
		srv.mu.Unlock()
		if parked {
			return
		}
	}
	t.Fatal("no worker parked on the connection")
}

// TestParkedWorkerAllocs: a serial stream of goroutine-path calls on
// one session runs on the connection's parked workers, so a call spawns
// no goroutine and allocates no closure for one. Such a call measures
// 2 objects (client and server together: the echo's answer and the
// caller's copy of it); 5 when the payload pool kept the echo's
// few-byte answer, which cost a box to hold and a regrown buffer for the
// next request's copy, and 7 with a new goroutine per request. The
// ceiling is the 2 it measures: the second parked worker takes the
// request that arrives before the first is back in its place, which
// with one place cost a goroutine now and then. It borrows only from
// free lists, so it runs under -race too.
func TestParkedWorkerAllocs(t *testing.T) {
	if wire.Checked {
		t.Skip("the jiffydebug build tracks every free list's items")
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
	if allocs > 2 {
		t.Fatalf("a goroutine-path call allocates %.2f objects, want <= 2", allocs)
	}
}

// TestParkedWorkerAllocsTCP1M is the same stream over tcp with 1 MiB
// requests, answered with their length in a
// wire.GetBuf buffer, with a collection every tenth call: the request
// arrives in a large-class buffer and the answer is a few bytes, so
// what is left is the caller's copy of the answer (1 object) and what
// the call borrows — its waiter, the connection's frame buffers, a
// parked worker — none of which a collection takes. It measures
// 1.5–1.6 objects a call, the rest being the large class's refill after
// each collection; 2.5–2.7 while waiters and frame buffers were
// sync.Pools, which every collection emptied. The ceiling is 2. Its
// requests wait on the large class, a sync.Pool, which drops puts under
// -race, so it skips there.
func TestParkedWorkerAllocsTCP1M(t *testing.T) {
	if poolsInstrumented {
		t.Skip("the race detector or the jiffydebug build instruments the large class")
	}
	big := NewServer(BytesHandler(func(_ context.Context, _ *ServerConn, _ uint16, payload []byte) ([]byte, error) {
		return strconv.AppendInt(wire.GetBuf(), int64(len(payload)), 10), nil
	}), nil)
	addr, err := big.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	bc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	body := [][]byte{bytes.Repeat([]byte{0x5a}, 1<<20)}
	want := strconv.Itoa(len(body[0]))
	send := func() {
		if out, err := bc.CallVecContext(context.Background(), methodEcho, body); err != nil || string(out) != want {
			t.Fatalf("1 MiB call answered %q, %v", out, err)
		}
	}
	for i := 0; i < 8; i++ {
		send()
	}
	awaitParked(t, big)
	var before, after runtime.MemStats
	const calls = 200
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if i%10 == 0 {
			runtime.GC()
		}
		send()
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / calls
	t.Logf("%.3f objects per serial 1 MiB tcp call, %d collections", objects, after.NumGC-before.NumGC)
	if objects > 2 {
		t.Fatalf("a serial 1 MiB tcp call allocates %.3f objects, want <= 2", objects)
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
