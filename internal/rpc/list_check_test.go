//go:build jiffydebug

package rpc

import (
	"context"
	"testing"
)

// What a request borrows from its connection comes from lists the
// jiffydebug build arms (wire.FreeList, wire.BufList): a second put of
// the same item, or a write through it after its put, panics. One test
// per list a connection owns.

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != want {
			t.Fatalf("panic = %v, want %q", r, want)
		}
	}()
	fn()
}

const (
	itemDoublePut = "wire: double Put of the same FreeList item"
	itemUseAfter  = "wire: FreeList item written after Put (use after put)"
	bufDoublePut  = "wire: double PutBuf of the same buffer"
	bufUseAfter   = "wire: buffer written after PutBuf (use after put)"
)

// listConns dials a test server and returns the session and the
// server's side of its connection, after one call has warmed both.
func listConns(t *testing.T) (*Client, *ServerConn) {
	t.Helper()
	addr, srv := newTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.CallContext(context.Background(), methodEcho, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for sc := range srv.conns {
		return c, sc
	}
	t.Fatal("the server has no connection")
	return nil, nil
}

func TestClientWaiterListPoisons(t *testing.T) {
	c, _ := listConns(t)
	w, ok := c.waiters.Get()
	if !ok {
		t.Fatal("the session kept no waiter after a call")
	}
	c.releaseWaiter(w)
	mustPanic(t, itemDoublePut, func() { c.waiters.Put(w) })
	w.expiry = 7 // the bug: a caller still writing to its waiter
	mustPanic(t, itemUseAfter, func() { c.waiters.Get() })
}

func TestClientBufListPoisons(t *testing.T) {
	c, _ := listConns(t)
	b := append(c.GetBuf(), "req"...)
	c.PutBuf(b)
	mustPanic(t, bufDoublePut, func() { c.PutBuf(b) })
	b[0] = 'x'
	mustPanic(t, bufUseAfter, func() { c.GetBuf() })
}

func TestServerConnBufListPoisons(t *testing.T) {
	_, sc := listConns(t)
	b := append(sc.bufs.Get(), "payload"...)
	sc.bufs.Put(b)
	mustPanic(t, bufDoublePut, func() { sc.bufs.Put(b) })
	b[0] = 'x'
	mustPanic(t, bufUseAfter, func() { sc.bufs.Get() })
}

func TestServerConnScratchListPoisons(t *testing.T) {
	_, sc := listConns(t)
	type scratch struct{ n int }
	v := &scratch{}
	sc.PutScratch(v)
	mustPanic(t, itemDoublePut, func() { sc.PutScratch(v) })
	v.n = 1
	mustPanic(t, itemUseAfter, func() { sc.Scratch() })
}
