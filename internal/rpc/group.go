package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"jiffy/internal/core"
	"jiffy/internal/obs"
	"jiffy/internal/wire"
)

// Group calls a replicated controller group (§4.2.1): one leader serves
// every control operation, standbys answer with a NotLeader redirect.
// It remembers which member last led and is the one place that follows
// leadership — clients and memory servers send their control calls
// through it (rpc.Invoke takes it as the Caller).
type Group struct {
	pool     *Pool
	addrs    []string
	attempts int
	wait     func(ctx context.Context, attempt int) error

	// leader indexes addrs at the member last observed to lead.
	leader atomic.Int32
	// Rehomes counts moves to another member after a redirect or a
	// connection failure.
	Rehomes obs.Counter
}

// NewGroup builds the caller for the members at addrs (the same order
// on every participant), reached through pool. One call makes at most
// attempts tries. wait, when non-nil, runs between tries except after a
// fresh redirect hint — a client backs off there so a failover in
// flight can finish; a worker with its own retry cadence passes nil.
func NewGroup(pool *Pool, addrs []string, attempts int, wait func(ctx context.Context, attempt int) error) *Group {
	return &Group{pool: pool, addrs: addrs, attempts: attempts, wait: wait}
}

// indexOf maps a member address to its index, -1 when it is empty or
// names nobody in the group.
func (g *Group) indexOf(addr string) int {
	for i, a := range g.addrs {
		if a == addr && addr != "" {
			return i
		}
	}
	return -1
}

// Lead records addr as the leader (a CtrlRole answer, an operator's
// promotion); an address outside the group is ignored.
func (g *Group) Lead(addr string) {
	if i := g.indexOf(addr); i >= 0 {
		g.leader.Store(int32(i))
	}
}

// CallBorrowedContext sends one call to the leader, re-homing until a
// member answers it. A redirect drops the standby's session and moves
// to the hinted leader at once (to the next member when the hint is
// missing, unknown, or names the standby itself); a dead or timed-out session is
// dropped and the next member tried. Timeouts burn a full deadline
// each, so they get exactly one pass over the group before the error
// surfaces. Any other error is the leader's answer to the operation and
// is returned as is, as is the caller's own cancellation.
//
// The answer comes back in borrowed memory, as Client.CallBorrowedContext:
// when pooled is true the caller returns it with wire.PutBuf. A failed
// attempt's borrowed body goes back to the pool before the next try (a
// redirect's hint was copied into the error); the answer that ends the
// call comes back with its body, an error answer's text included.
func (g *Group) CallBorrowedContext(ctx context.Context, method uint16, payload []byte) ([]byte, bool, error) {
	n := len(g.addrs)
	if n == 0 {
		return nil, false, errors.New("rpc: no controller address configured")
	}
	idx := int(g.leader.Load()) % n
	var lastErr error
	timeouts := 0
	for attempt := 0; attempt < g.attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, false, fmt.Errorf("rpc: control call: %w", err)
		}
		addr := g.addrs[idx]
		var out []byte
		var pooled bool
		conn, err := g.pool.Get(addr)
		if err == nil {
			out, pooled, err = conn.CallBorrowedContext(ctx, method, payload)
		}
		if err == nil {
			g.leader.Store(int32(idx))
			return out, pooled, nil
		}
		retry := errors.Is(err, core.ErrNotLeader) || errors.Is(err, core.ErrClosed) || errors.Is(err, core.ErrTimeout)
		if !retry || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The leader answered the operation, or the caller gave up:
			// the call ends with the answer, whose text Invoke keeps.
			return out, pooled, err
		}
		if pooled {
			wire.PutBuf(out)
		}
		lastErr = err
		next, hinted := (idx+1)%n, false
		switch {
		case errors.Is(err, core.ErrNotLeader):
			if hint, _ := core.LeaderHintOf(err); hint != addr {
				if j := g.indexOf(hint); j >= 0 {
					next, hinted = j, true
				}
			}
		case errors.Is(err, core.ErrClosed):
			// Dead or undialable: nothing to decide, try the next member.
		case errors.Is(err, core.ErrTimeout):
			if timeouts++; timeouts >= n {
				g.pool.Drop(addr)
				return nil, false, err
			}
		}
		g.Rehomes.Inc()
		g.pool.Drop(addr)
		idx = next
		if !hinted && g.wait != nil {
			if err := g.wait(ctx, attempt); err != nil {
				return nil, false, fmt.Errorf("rpc: control call: %w", err)
			}
		}
	}
	return nil, false, fmt.Errorf("rpc: control call: retries exhausted: %w", lastErr)
}
