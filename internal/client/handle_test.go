package client

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/rpc"
)

// TestBackoffDelayBounded pins the retry backoff contract: linear
// growth from 200µs, capped at 5ms, never decreasing — so a full retry
// budget cannot stall a caller for more than retries × 5ms.
func TestBackoffDelayBounded(t *testing.T) {
	cases := []struct {
		attempt int
		want    time.Duration
	}{
		{0, 200 * time.Microsecond},
		{1, 400 * time.Microsecond},
		{4, time.Millisecond},
		{24, 5 * time.Millisecond},
		{25, 5 * time.Millisecond}, // capped
		{1000, 5 * time.Millisecond},
	}
	limit := DefaultRetryPolicy().MaxBackoff
	for _, c := range cases {
		if got := backoffDelay(c.attempt, limit); got != c.want {
			t.Errorf("backoffDelay(%d) = %v, want %v", c.attempt, got, c.want)
		}
	}
	prev := time.Duration(0)
	for i := 0; i < 64; i++ {
		d := backoffDelay(i, limit)
		if d < prev {
			t.Fatalf("backoffDelay not monotonic at attempt %d: %v < %v", i, d, prev)
		}
		if d > 5*time.Millisecond {
			t.Fatalf("backoffDelay(%d) = %v exceeds the 5ms cap", i, d)
		}
		prev = d
	}
	// A custom cap is honored, and a zero/negative cap falls back to the
	// default so a zero-valued RetryPolicy cannot produce unbounded waits.
	if got := backoffDelay(1000, time.Millisecond); got != time.Millisecond {
		t.Errorf("backoffDelay custom cap = %v, want 1ms", got)
	}
	if got := backoffDelay(1000, 0); got != 5*time.Millisecond {
		t.Errorf("backoffDelay zero cap = %v, want 5ms fallback", got)
	}
}

// TestErrRetriesExhaustedWrapsCause: after the retry budget is spent,
// the returned error still exposes the final cause through errors.Is,
// so callers can distinguish "gave up on a dead server" from "gave up
// on stale metadata".
func TestErrRetriesExhaustedWrapsCause(t *testing.T) {
	causes := []error{
		core.ErrTimeout,
		core.ErrStaleEpoch,
		&rpc.SessionError{Cause: errors.New("conn reset")},
		fmt.Errorf("wrapped: %w", core.ErrClosed),
	}
	for _, cause := range causes {
		err := errRetriesExhausted("kv get", cause)
		if !errors.Is(err, cause) {
			t.Errorf("errRetriesExhausted lost cause %v", cause)
		}
	}
	// The session-error cause also still unwraps to ErrClosed.
	err := errRetriesExhausted("enqueue", &rpc.SessionError{Cause: errors.New("x")})
	if !errors.Is(err, core.ErrClosed) {
		t.Error("session-error cause no longer unwraps to ErrClosed")
	}
}

// TestIsConnErr classifies which failures are worth a re-dial retry.
func TestIsConnErr(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{core.ErrClosed, true},
		{core.ErrTimeout, true},
		{&rpc.SessionError{Cause: errors.New("eof")}, true},
		{fmt.Errorf("call 3 timed out: %w", core.ErrTimeout), true},
		{core.ErrNotFound, false},
		{core.ErrStaleEpoch, false},
		{nil, false},
	}
	for _, c := range cases {
		if got := isConnErr(c.err); got != c.want {
			t.Errorf("isConnErr(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestLeaderHintRoundTrip verifies the NotLeader redirect survives the
// wire format: the typed error's message re-parses into the same
// leader hint on the client side (core.ErrOf reconstructs it from the
// frame payload), and errors.Is sees the sentinel through the wrap.
func TestLeaderHintRoundTrip(t *testing.T) {
	nl := &core.NotLeaderError{Leader: "ctrl-2:9090", Gen: 7}
	if !errors.Is(nl, core.ErrNotLeader) {
		t.Fatal("NotLeaderError does not unwrap to ErrNotLeader")
	}
	rebuilt := core.ErrOf(core.CodeNotLeader, []byte(nl.Error()))
	if !errors.Is(rebuilt, core.ErrNotLeader) {
		t.Fatal("reconstructed error lost the ErrNotLeader sentinel")
	}
	leader, gen := core.LeaderHintOf(rebuilt)
	if leader != "ctrl-2:9090" || gen != 7 {
		t.Fatalf("LeaderHintOf = (%q, %d), want (ctrl-2:9090, 7)", leader, gen)
	}
	// A bare sentinel (no hint payload) must not crash the parser.
	leader, gen = core.LeaderHintOf(core.ErrNotLeader)
	if leader != "" || gen != 0 {
		t.Fatalf("LeaderHintOf(bare) = (%q, %d), want empty", leader, gen)
	}
}
