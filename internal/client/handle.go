package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/obs"
	"jiffy/internal/proto"
	"jiffy/internal/wire"
)

// handle is the shared machinery under every data-structure handle:
// the cached partition map, staleness-driven refresh, and data-plane
// dispatch.
type handle struct {
	c    *Client
	path core.Path
	// s is the typed handle built on this one: the pipeline's routing
	// hooks (pipeline.go). Set once, before the handle is returned.
	s structure

	mu   sync.RWMutex
	pmap ds.PartitionMap
}

// newHandle opens a prefix and validates its data-structure type.
func (c *Client) newHandle(ctx context.Context, path core.Path, want core.DSType) (*handle, error) {
	m, _, err := c.open(ctx, path)
	if err != nil {
		return nil, err
	}
	if m.Type != want {
		return nil, fmt.Errorf("client: prefix %q holds a %v, not a %v: %w",
			path, m.Type, want, core.ErrWrongType)
	}
	return &handle{c: c, path: path, pmap: m}, nil
}

// snapshot returns the cached partition map.
func (h *handle) snapshot() ds.PartitionMap {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.pmap
}

// refresh re-fetches the partition map from the controller. It only
// installs maps with a newer epoch, so concurrent refreshes can't
// regress the cache.
func (h *handle) refresh(ctx context.Context) error {
	if obs.On() {
		h.c.mapRefreshes.Inc()
	}
	m, _, err := h.c.open(ctx, h.path)
	if err != nil {
		return err
	}
	h.install(m)
	return nil
}

// install adopts a map if it is newer than the cached one.
func (h *handle) install(m ds.PartitionMap) {
	h.mu.Lock()
	if m.Epoch >= h.pmap.Epoch {
		h.pmap = m
	}
	h.mu.Unlock()
}

// requestScale asks the controller to grow the structure at block and
// installs the refreshed map from the response.
func (h *handle) requestScale(ctx context.Context, block core.BlockID) error {
	m, err := h.c.requestScale(ctx, h.path, block)
	if err != nil {
		return err
	}
	h.install(m)
	return nil
}

// do executes one data-plane op against a block: the pipeline's
// dispatch stage. Connection-level failures evict the pooled session so
// the next attempt re-dials. Every call feeds the per-server health
// tracker (latency EWMA + windowed quantile — allocation-free, so the
// small-op hot path keeps its ceilings). The values are decoded into
// res, the caller's vector, and copied out of a borrowed response —
// unless read is set: it then reads the encoded values in place, before
// the buffer is recycled, and do returns none.
func (h *handle) do(ctx context.Context, info core.BlockInfo, op core.OpType, args, res [][]byte, read func([]byte) error) ([][]byte, error) {
	conn, err := h.c.dataConn(info.Server)
	if err != nil {
		// An unreachable server is a connection failure like any other:
		// classify it so retries avoid the server and reads fall back
		// along the replica chain.
		return nil, fmt.Errorf("client: dial %s: %v: %w", info.Server, err, core.ErrClosed)
	}
	// Encode into a buffer of the session's own: Call stages the frame
	// into the session's write buffer before returning, so the request
	// bytes can be recycled immediately after. Requests carrying a large
	// body (writes, puts) skip the encode copy entirely: the header and
	// length prefixes go into that buffer and the caller's arg
	// slices ride to the socket as scatter-gather segments. Many small
	// args — a run of appends — are one contiguous copy, not a segment
	// each.
	var payload []byte
	var pooled bool
	start := time.Now()
	if largestArg(args) >= vecRequestThreshold {
		vec, buf := ds.AppendRequestVec(nil, conn.GetBuf(), op, info.ID, args)
		payload, err = conn.CallVecContext(ctx, proto.MethodDataOp, vec)
		conn.PutBuf(buf)
	} else {
		// Small ops borrow the response: the session hands back a pooled
		// buffer instead of a per-call heap copy, and do() returns it to
		// the pool once the values are decoded (and copied) out.
		req := ds.AppendRequest(conn.GetBuf(), op, info.ID, args)
		payload, pooled, err = conn.CallBorrowedContext(ctx, proto.MethodDataOp, req)
		conn.PutBuf(req)
	}
	// Anything the server actually answered (including op-level errors)
	// is a latency sample; a dead session or caller-context expiry is
	// not.
	dead := err != nil && isConnErr(err)
	if !dead && ctxErr(err) == nil {
		h.c.health.record(info.Server, time.Since(start))
	}
	if dead {
		h.c.dropData(info.Server)
		return nil, err
	}
	if err != nil {
		// withRedirect copies the named block out of the payload, so the
		// borrowed buffer can be recycled right after.
		err = withRedirect(err, payload)
		if pooled {
			wire.PutBuf(payload)
		}
		return nil, err
	}
	if read != nil {
		err = read(payload)
		if pooled {
			wire.PutBuf(payload)
		}
		return nil, err
	}
	vals, derr := ds.DecodeValsInto(res, payload)
	if pooled {
		// Vals alias the borrowed buffer: copy them out (exact-size
		// allocations) before recycling it.
		for i, v := range vals {
			vals[i] = append([]byte(nil), v...)
		}
		wire.PutBuf(payload)
	}
	return vals, derr
}

// vecRequestThreshold is the argument size from which do() sends an
// argument as its own scatter-gather segment. Below it, one contiguous
// copy into a pooled buffer is cheaper than the extra segment
// bookkeeping.
const vecRequestThreshold = 4 * core.KB

// largestArg is the size of an op's largest argument.
func largestArg(args [][]byte) int {
	n := 0
	for _, a := range args {
		n = max(n, len(a))
	}
	return n
}

// doBatch ships a group of ops bound for one server as a single
// MethodDataOpBatch frame and returns the per-op results. A returned
// error means the whole call failed (encode, connection, or decode);
// op-level failures live inside the results. Connection-level failures
// evict the pooled session like the single-op path.
func (h *handle) doBatch(ctx context.Context, server string, ops []ds.BatchOp, dst []ds.BatchResult) ([]ds.BatchResult, error) {
	if obs.On() {
		h.c.batchSizes.Observe(int64(len(ops)))
	}
	conn, err := h.c.dataConn(server)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %v: %w", server, err, core.ErrClosed)
	}
	req := ds.AppendBatchRequest(conn.GetBuf(), ops)
	start := time.Now()
	payload, err := conn.CallContext(ctx, proto.MethodDataOpBatch, req)
	conn.PutBuf(req)
	dead := err != nil && isConnErr(err)
	if !dead && ctxErr(err) == nil {
		h.c.health.record(server, time.Since(start))
	}
	if dead {
		h.c.dropData(server)
	}
	if err != nil {
		return nil, err
	}
	return ds.DecodeBatchResultsInto(dst, payload)
}

// redirect is the client-side form of a redirection: a queue end or a
// full file chunk handing the op over to its successor.
type redirect struct{ next core.BlockInfo }

func (r *redirect) Error() string { return core.ErrRedirect.Error() }
func (r *redirect) Unwrap() error { return core.ErrRedirect }

// withRedirect gives a server's redirect answer its typed form, with
// the block the payload names; any other error passes through.
func withRedirect(err error, payload []byte) error {
	if classify(err) != actRedirect {
		return err
	}
	return redirectTo(payload)
}

// redirectTo is the typed redirect to the block payload names.
func redirectTo(payload []byte) error {
	next, err := ds.ParseRedirect(payload)
	if err != nil {
		return err
	}
	return &redirect{next: next}
}

// isConnErr reports whether err means the session (not the operation)
// failed: the connection died mid-call or the call timed out. Both are
// retryable after the pooled session is evicted and re-dialed — unless
// the caller's context is what expired, which ctxErr distinguishes.
func isConnErr(err error) bool {
	return errors.Is(err, core.ErrClosed) || errors.Is(err, core.ErrTimeout)
}

// ctxErr extracts the caller's context error from err, if any. A call
// that failed because the caller's deadline expired or the caller
// canceled must not be retried: the rpc layer wraps those failures so
// both the typed sentinel and the context error are visible.
func ctxErr(err error) error {
	if errors.Is(err, context.Canceled) {
		return context.Canceled
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return context.DeadlineExceeded
	}
	return nil
}

// backoffDelay computes the retry delay for a zero-based attempt:
// linear growth capped at limit, so a full retry budget stays bounded.
func backoffDelay(attempt int, limit time.Duration) time.Duration {
	d := time.Duration(attempt+1) * 200 * time.Microsecond
	if limit <= 0 {
		limit = 5 * time.Millisecond
	}
	if d > limit {
		d = limit
	}
	return d
}

// errRetriesExhausted wraps the final error after the retry budget is
// spent.
func errRetriesExhausted(op string, err error) error {
	return fmt.Errorf("client: %s: retries exhausted: %w", op, err)
}
