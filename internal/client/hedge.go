package client

import (
	"context"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/obs"
)

// Hedged reads: when WithHedgedReads is set, the pipeline's idempotent
// reads (KV gets, file reads, queue peeks, custom non-mutations) that
// linger past the primary server's p95 launch a backup request against
// another member of the block's replica chain; the first response wins
// and the loser is canceled. What a non-tail member may answer, and
// what that does not yet guarantee, is stated once, at the pipeline's
// read-fallback stage (recovery.target). Mutations are never hedged: a
// duplicated mutation is a correctness bug, not a latency
// optimization.

// doRead dispatches one idempotent read to info, hedging it when the
// client is configured for it and chain offers an alternate.
// Everything the hedge path allocates (contexts, goroutines, channel,
// the arms' own result vectors) is confined to doHedged, so clients
// without WithHedgedReads keep the allocation-free hot path through
// do(), which decodes into res.
func (h *handle) doRead(ctx context.Context, info core.BlockInfo, chain core.ReplicaChain, op core.OpType, args, res [][]byte) ([][]byte, error) {
	if !h.c.hedgeOn {
		return h.do(ctx, info, op, args, res, nil)
	}
	delay, ok := h.c.health.hedgeDelay(info.Server)
	if !ok {
		return h.do(ctx, info, op, args, res, nil)
	}
	alt, ok := h.altFor(info, chain)
	if !ok {
		return h.do(ctx, info, op, args, res, nil)
	}
	return h.doHedged(ctx, info, alt, delay, op, args)
}

// altFor finds another member of the chain info belongs to, to hedge
// against: not on the primary's server and not probated; among those,
// the lowest observed EWMA latency wins.
func (h *handle) altFor(info core.BlockInfo, chain core.ReplicaChain) (best core.BlockInfo, found bool) {
	bestEwma := 0.0
	for _, member := range chain {
		if member.Server == info.Server || !h.c.health.usable(member.Server) {
			continue
		}
		if ew := h.c.health.ewmaOf(member.Server); !found || ew < bestEwma {
			best, bestEwma, found = member, ew, true
		}
	}
	return best, found
}

// cloneArgs copies args, vector and bytes, in two allocations.
func cloneArgs(args [][]byte) [][]byte {
	n := 0
	for _, a := range args {
		n += len(a)
	}
	out, buf := make([][]byte, len(args)), make([]byte, 0, n)
	for i, a := range args {
		buf = append(buf, a...)
		out[i] = buf[len(buf)-len(a) : len(buf) : len(buf)]
	}
	return out
}

// hedgeResult carries one arm's outcome.
type hedgeResult struct {
	vals   [][]byte
	err    error
	backup bool
}

// doHedged races the primary against a delayed backup. Both arms run
// h.do under cancellable children of ctx, so each is bounded only by
// what bounds every call — the caller's context and the session's
// RPCTimeout — and an arm's clock starts when it is launched, never
// when the read began. The results channel is buffered for both, so a
// canceled loser never blocks: its goroutine finishes its
// (already-canceled) call, deposits the result, and exits. Values
// returned by do() are heap copies (the pooled response buffers are
// recycled inside do), so abandoning the loser's result leaks nothing.
func (h *handle) doHedged(ctx context.Context, primary, alt core.BlockInfo, delay time.Duration,
	op core.OpType, callerArgs [][]byte) ([][]byte, error) {
	// The arms outlive this frame's view of the arguments, and the
	// caller reuses their bytes once the read returns (a file read's
	// pooled integers): give them a vector and bytes of their own, so
	// the caller's stay off the heap on every unhedged path through the
	// pipeline.
	args := cloneArgs(callerArgs)
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	bctx, bcancel := context.WithCancel(ctx)
	defer bcancel()

	results := make(chan hedgeResult, 2)
	go func() {
		vals, err := h.do(pctx, primary, op, args, nil, nil)
		results <- hedgeResult{vals, err, false}
	}()

	timer := time.NewTimer(delay)
	defer timer.Stop()
	timerC := timer.C
	outstanding := 1
	fired := false
	var firstErr error
	for {
		select {
		case <-timerC:
			timerC = nil
			fired = true
			outstanding++
			if obs.On() {
				h.c.hedgesFired.Inc()
			}
			go func() {
				vals, err := h.do(bctx, alt, op, args, nil, nil)
				results <- hedgeResult{vals, err, true}
			}()
		case r := <-results:
			outstanding--
			if r.err == nil {
				if fired && outstanding > 0 {
					// Cancel the loser; its deposit into the buffered
					// channel is dropped on the floor.
					if r.backup {
						pcancel()
						if obs.On() {
							h.c.hedgesWon.Inc()
						}
					} else {
						bcancel()
					}
					if obs.On() {
						h.c.hedgesCanceled.Inc()
					}
				} else if fired && r.backup && obs.On() {
					h.c.hedgesWon.Inc()
				}
				return r.vals, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if !fired {
				// The primary failed before the hedge deadline: no backup
				// was launched, so surface the failure to the pipeline
				// (which will fall back along the chain itself).
				return nil, r.err
			}
			if outstanding == 0 {
				return nil, firstErr
			}
		}
	}
}
