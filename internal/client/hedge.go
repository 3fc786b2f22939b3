package client

import (
	"context"
	"fmt"
	"slices"
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
		return h.do(ctx, info, op, args, res)
	}
	delay, ok := h.c.health.hedgeDelay(info.Server)
	if !ok {
		return h.do(ctx, info, op, args, res)
	}
	alt, ok := h.altFor(info, chain)
	if !ok {
		return h.do(ctx, info, op, args, res)
	}
	return h.doHedged(ctx, info, alt, delay, op, args)
}

// altFor finds another member of the chain info belongs to, to hedge
// against: not on the primary's server, not probated, not behind an
// open breaker; ties go to the lowest observed EWMA latency.
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

// hedgeResult carries one arm's outcome.
type hedgeResult struct {
	vals   [][]byte
	err    error
	backup bool
}

// hedgeErr strips attempt-context expiry out of a hedge arm's error:
// the adaptive per-attempt deadline is not the caller's deadline, so
// its expiry must classify as a retryable timeout (the pipeline stops
// outright on caller-context errors).
func hedgeErr(ctx context.Context, err error) error {
	if err == nil || ctx.Err() != nil || ctxErr(err) == nil {
		return err
	}
	return fmt.Errorf("client: hedged read attempt: %w", core.ErrTimeout)
}

// doHedged races the primary against a delayed backup. Both arms run
// h.do under cancellable child contexts — the per-server adaptive
// timeout bounds each arm when the tracker has evidence — and the
// results channel is buffered for both, so a canceled loser never
// blocks: its goroutine finishes its (already-canceled) call, deposits
// the result, and exits. Values returned by do() are heap copies (the
// pooled response buffers are recycled inside do), so abandoning the
// loser's result leaks nothing.
func (h *handle) doHedged(ctx context.Context, primary, alt core.BlockInfo, delay time.Duration,
	op core.OpType, callerArgs [][]byte) ([][]byte, error) {
	// The arms outlive this frame's view of the arguments: give them a
	// vector of their own, so the caller's stays off the heap on every
	// unhedged path through the pipeline.
	args := slices.Clone(callerArgs)
	attemptCtx := func(server string) (context.Context, context.CancelFunc) {
		if d, ok := h.c.health.adaptiveTimeout(server, h.c.rpcTimeout); ok {
			return context.WithTimeout(ctx, d)
		}
		return context.WithCancel(ctx)
	}
	pctx, pcancel := attemptCtx(primary.Server)
	defer pcancel()
	bctx, bcancel := attemptCtx(alt.Server)
	defer bcancel()

	results := make(chan hedgeResult, 2)
	go func() {
		vals, err := h.do(pctx, primary, op, args, nil)
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
				vals, err := h.do(bctx, alt, op, args, nil)
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
				return nil, hedgeErr(ctx, r.err)
			}
			if outstanding == 0 {
				return nil, hedgeErr(ctx, firstErr)
			}
		}
	}
}
