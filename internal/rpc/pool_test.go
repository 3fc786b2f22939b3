package rpc

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// newEchoServer starts an echo-only RPC server on a fixed address so
// tests can kill it and bring a replacement up at the same endpoint.
func newEchoServer(t *testing.T, addr string) *Server {
	t.Helper()
	srv := NewServer(BytesHandler(func(_ context.Context, conn *ServerConn, method uint16, payload []byte) ([]byte, error) {
		if method == methodEcho {
			return append([]byte(nil), payload...), nil // a response may not alias the request
		}
		return nil, fmt.Errorf("unknown method %d", method)
	}), nil)
	if _, err := srv.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// waitClosed blocks until the client's read pump has observed the peer
// going away, which is what Pool.Get keys its eviction on.
func waitClosed(t *testing.T, c *Client) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !c.IsClosed() {
		if time.Now().After(deadline) {
			t.Fatal("client never noticed the dead session")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolSessionLifecycle is the table-driven session-cache contract:
// a healthy session is reused across Gets, and a dead one — whether the
// client closed it or the server died under it — is evicted and
// replaced by a fresh dial instead of being handed back.
func TestPoolSessionLifecycle(t *testing.T) {
	cases := []struct {
		name string
		// disrupt breaks the first session (nil = leave it healthy) and
		// returns once the pool is expected to notice on the next Get.
		disrupt   func(t *testing.T, c *Client, srv *Server, addr string)
		wantDials int
		wantSame  bool
	}{
		{
			name:      "healthy session reused",
			disrupt:   nil,
			wantDials: 1,
			wantSame:  true,
		},
		{
			name: "client-closed session evicted",
			disrupt: func(t *testing.T, c *Client, srv *Server, addr string) {
				c.Close()
			},
			wantDials: 2,
		},
		{
			name: "server-killed session evicted",
			disrupt: func(t *testing.T, c *Client, srv *Server, addr string) {
				srv.Close()
				waitClosed(t, c)
				newEchoServer(t, addr) // replacement at the same endpoint
			},
			wantDials: 2,
		},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := fmt.Sprintf("mem://pool-lifecycle-%d", i)
			srv := newEchoServer(t, addr)
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
			if tc.disrupt != nil {
				tc.disrupt(t, c1, srv, addr)
			}
			c2, err := pool.Get(addr)
			if err != nil {
				t.Fatal(err)
			}
			if dials != tc.wantDials {
				t.Errorf("dials = %d, want %d", dials, tc.wantDials)
			}
			if same := c1 == c2; same != tc.wantSame {
				t.Errorf("same session = %v, want %v", same, tc.wantSame)
			}
			if resp, err := c2.CallContext(context.Background(), methodEcho, []byte("alive")); err != nil || string(resp) != "alive" {
				t.Errorf("call on returned session = %q, %v", resp, err)
			}
		})
	}
}

// TestPoolPipelinedCallsShareOneSession issues many concurrent calls
// that all route through pool.Get: every caller must share the single
// cached session (one dial total) and, with writes going through the
// coalesced-flush path, every response must still land on its caller.
func TestPoolPipelinedCallsShareOneSession(t *testing.T) {
	addr := "mem://pool-pipelined"
	newEchoServer(t, addr)
	dials := 0
	pool := NewPool(func(a string) (*Client, error) {
		dials++
		return Dial(a)
	})
	defer pool.Close()
	// Get resolves racing first dials by closing the losers, so "one
	// dial" only holds once the session is cached: dial it before the
	// callers start.
	if _, err := pool.Get(addr); err != nil {
		t.Fatal(err)
	}

	const callers, perCaller = 32, 16
	var wg sync.WaitGroup
	errs := make(chan error, callers*perCaller)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				c, err := pool.Get(addr)
				if err != nil {
					errs <- err
					return
				}
				want := fmt.Sprintf("caller-%d-call-%d", g, i)
				resp, err := c.CallContext(context.Background(), methodEcho, []byte(want))
				if err != nil {
					errs <- err
					return
				}
				if string(resp) != want {
					errs <- fmt.Errorf("cross-wired response: got %q want %q", resp, want)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if dials != 1 {
		t.Errorf("dials = %d, want 1 (pipelined calls must share a session)", dials)
	}
}
