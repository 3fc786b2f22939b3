package rpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/wire"
)

// The coarse-deadline watchdog (one sweep per 100ms) and hedge-read
// cancellation both claim pending calls out from under the caller: the
// watchdog delivers ErrTimeout into the waiter channel after removing
// the entry, and a canceled hedge arm abandons its waiter, collecting
// any in-flight result so the pooled buffer is returned. Both paths
// recycle the same sync.Pool waiters over the same session, so a
// double-release in either would hand one waiter to two concurrent
// calls — visible as cross-wired responses, stuck receives, or a
// double-put pooled buffer. This churn test drives both mechanisms at
// once on one session and then proves the session still pairs every
// response with its own request.

const (
	churnEcho  uint16 = 1
	churnStall uint16 = 2
)

// churnStallSleep is how long the stalled handler holds a call: past
// the watchdog expiry for a 1s-timeout call (~1.1s), so the watchdog
// always claims the waiter first and the real response later arrives
// for an unknown seq and must be dropped and freed by the read pump.
const churnStallSleep = 1500 * time.Millisecond

func TestWatchdogHedgeCancellationChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("~2s of real-clock watchdog sweeps")
	}
	handler := func(_ context.Context, _ *ServerConn, method uint16, payload []byte) ([]byte, error) {
		switch method {
		case churnEcho:
			return append([]byte(nil), payload...), nil // a response may not alias the request
		case churnStall:
			time.Sleep(churnStallSleep)
			return []byte("late"), nil
		}
		return nil, fmt.Errorf("unknown method %d", method)
	}
	srv := NewServer(BytesHandler(handler), nil)
	addr, err := srv.Listen(fmt.Sprintf("mem://rpc-churn-%p", srv))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// At the watchdog threshold: deadline-less calls ride the coarse
	// sweep; cancellable calls keep the precise select path.
	c.SetTimeout(watchdogMinTimeout)

	// Arm 1: deadline-less stalled calls whose timeouts only the
	// watchdog can deliver.
	const stalls = 3
	var wg sync.WaitGroup
	var watchdogTimeouts atomic.Int32
	for i := 0; i < stalls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.CallContext(context.Background(), churnStall, nil)
			if errors.Is(err, core.ErrTimeout) {
				watchdogTimeouts.Add(1)
			} else {
				t.Errorf("stalled call returned %v, want ErrTimeout from the watchdog", err)
			}
		}()
	}

	// Arm 2: hedge-style churn on the same session — borrowed-buffer
	// reads whose contexts are canceled at random points around the
	// response's arrival, racing abandon() against the read pump. The
	// seed is fixed: a failure reproduces.
	rng := rand.New(rand.NewSource(1304))
	const churn = 600
	for i := 0; i < churn; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		want := fmt.Sprintf("churn-%03d", i)
		if i%2 == 0 {
			delay := time.Duration(rng.Intn(150)) * time.Microsecond
			go func() {
				time.Sleep(delay)
				cancel()
			}()
		}
		out, pooled, err := c.CallBorrowedContext(ctx, churnEcho, []byte(want))
		switch {
		case err == nil:
			if string(out) != want {
				t.Fatalf("cross-wired response: got %q want %q", out, want)
			}
			if pooled {
				wire.PutBuf(out)
			}
		case errors.Is(err, context.Canceled):
			// Abandoned mid-flight; the waiter collected any in-flight
			// pooled result itself.
		default:
			t.Fatalf("churn call %d: %v", i, err)
		}
		cancel()
	}

	// The watchdog must have claimed every stalled waiter...
	wg.Wait()
	if n := watchdogTimeouts.Load(); n != stalls {
		t.Fatalf("watchdog delivered %d timeouts, want %d", n, stalls)
	}
	// ...and the late real responses then arrive for unknown seqs; give
	// them time to hit the read pump's drop path before probing health.
	time.Sleep(churnStallSleep - watchdogMinTimeout + 200*time.Millisecond)

	// The session survives: a concurrent batch still pairs every
	// response with its own request (a leaked or double-released waiter
	// would cross-wire or hang here).
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("after-%d", i)
			out, err := c.CallContext(context.Background(), churnEcho, []byte(want))
			if err != nil {
				errs <- err
			} else if string(out) != want {
				errs <- fmt.Errorf("post-churn cross-wire: got %q want %q", out, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
