package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/obs"
)

// The client op pipeline. Repartitioning, queue-segment hand-over and
// chain repair happen inside the storage system (§3.3, §5.2, §4.2.2);
// what the client sees of them is an op that must be re-routed and
// sent again. Every data-plane op, single or batched, on any
// structure, goes through the same stages in the same order:
//
//	route → pick chain member → (hedge) → dispatch → classify → note →
//	settle (grow, relearn, throttle wait | backoff)
//
// classify maps an error to one action, note records what that action
// needs, settle does it once per attempt. run drives one op through
// the stages, runBatch a group of ops; nothing else in this package
// retries. DESIGN.md "Client op pipeline" holds the class → action
// table; pipeline_test.go pins it.

// action is what one attempt's outcome asks of the pipeline.
type action uint8

const (
	actDone     action = iota // the op succeeded
	actFatal                  // the error is the op's answer
	actRelearn                // the cached map is stale: fetch it again
	actRedirect               // the server named the block to go to instead: follow the link
	actGrow                   // the block is full: ask the controller to scale
	actThrottle               // admission control refused: wait the hint out
	actAvoid                  // the server is dead: route around it
)

// classify is the only place an error's class is tested. The caller's
// own context ending is checked first: rpc wraps a context deadline in
// ErrTimeout, which would otherwise read as a dead server.
func classify(err error) action {
	switch {
	case err == nil:
		return actDone
	case ctxErr(err) != nil:
		return actFatal
	case errors.Is(err, core.ErrStaleEpoch):
		return actRelearn
	case errors.Is(err, core.ErrRedirect):
		return actRedirect
	case errors.Is(err, core.ErrBlockFull):
		return actGrow
	case errors.Is(err, core.ErrQuotaExceeded):
		return actThrottle
	case isConnErr(err):
		return actAvoid
	default:
		// ErrBlockLost, ErrNotFound, ErrEmpty, ErrTooLarge, ...: an answer.
		return actFatal
	}
}

// structure is what a data-structure handle supplies to the pipeline:
// the steps of an op that differ between KV, File, Queue and Custom.
type structure interface {
	// route resolves what an op addresses — a key's slot, a chunk, a
	// queue end — to a map entry. An error goes through classify like a
	// server's: ErrStaleEpoch relearns, ErrBlockFull grows from the
	// returned entry (a write to a chunk that does not exist yet).
	route(op core.OpType, key string, chunk int) (ds.PartitionEntry, error)
	// forget drops routing state derived from a map that was replaced.
	forget()
	// redirected records that the block of chunk (or queue segment)
	// from, which op was sent to, handed it over to next.
	redirected(op core.OpType, from int, next core.BlockInfo)
}

// mapRouted is embedded by the structures that route from the cached
// map alone: nothing to forget, and their servers never redirect.
type mapRouted struct{}

func (mapRouted) forget()                                     {}
func (mapRouted) redirected(core.OpType, int, core.BlockInfo) {}

// errBoundedFull is backpressure from a structure at its MaxBlocks
// bound (maxQueueLength, §5.2): the block is full and cannot grow.
var errBoundedFull = fmt.Errorf("client: bounded structure full: %w", core.ErrBlockFull)

// recovery is one call's pipeline state: what note has learned from
// the failures so far and what settle still has to do about them.
type recovery struct {
	h *handle

	// avoid holds the servers that failed at the connection level
	// during this call.
	avoid map[string]bool
	// atMax holds blocks found full while the structure was at its
	// bound; an op that routes to one again has met backpressure.
	atMax     []core.BlockID
	throttles int

	// Noted during the attempt in progress; settle acts and clears.
	full    []core.BlockID // blocks to grow from
	stale   bool           // the map must be fetched again
	avoided bool           // a server joined avoid: fetch the map if the controller answers
	pause   bool           // back off before the next attempt
	refusal error          // the throttle refusal with the longest hint
}

// locate routes an op. retry is meaningful when err is not nil: true
// means the failure was noted and the op goes again after settle.
func (r *recovery) locate(op core.OpType, key string, chunk int) (e ds.PartitionEntry, retry bool, err error) {
	e, err = r.h.s.route(op, key, chunk)
	switch {
	case e.Info.Server != "" && slices.Contains(r.atMax, e.Info.ID):
		// The op lands on, or wants to grow from, a block that could not.
		return e, false, errBoundedFull
	case err != nil:
		return e, r.note(op, e.Info, e.Chunk, err), err
	case e.Lost:
		// Every replica died with no flushed copy: retrying brings nothing back.
		return e, false, fmt.Errorf("client: block %d: %w", e.Info.ID, core.ErrBlockLost)
	}
	return e, false, nil
}

// target picks the chain member an op is sent to. Mutations enter at
// the head. A read takes the tail, or — when the tail is in avoid —
// the closest upstream member that is not; with every member avoided
// it stays on the tail, which is then re-dialed.
//
// This is the read-fallback stage, shared with the hedged read's
// backup arm (altFor). Reading a non-tail member is safe for
// acknowledged writes: chain propagation is synchronous, so every
// member holds all of them. The hole (ROADMAP item 1): a non-tail
// member also holds writes the tail has not acknowledged, and if the
// head then dies and repair resyncs from the tail-most survivor, the
// client has read a value that never was committed. A clean-read rule
// (answer only for sequence numbers known acknowledged, else defer to
// the tail) lands here and nowhere else.
func (r *recovery) target(e *ds.PartitionEntry, op core.OpType) core.BlockInfo {
	if op.IsMutation() {
		return e.WriteTarget()
	}
	rt := e.ReadTarget()
	if r.avoid[rt.Server] {
		for i := len(e.Chain) - 1; i >= 0; i-- {
			if !r.avoid[e.Chain[i].Server] {
				return e.Chain[i]
			}
		}
	}
	return rt
}

// note classifies the failure of an op sent (or routed) to at, the
// block of chunk, and records what recovering from it takes. It
// reports whether the op is to be tried again after settle; false means
// err is its answer.
func (r *recovery) note(op core.OpType, at core.BlockInfo, chunk int, err error) bool {
	switch classify(err) {
	case actRelearn:
		r.stale = true
	case actRedirect:
		// The data calls give a redirect its typed form (redirectTo).
		rd, ok := err.(*redirect)
		if !ok {
			return false
		}
		if obs.On() {
			r.h.c.rpcm.Redirects.Inc()
		}
		r.h.s.redirected(op, chunk, rd.next)
		return true // the link is in hand: no pause
	case actGrow:
		// Custom structures grow when the application says so (Grow).
		if m := r.h.snapshot(); m.Type >= ds.CustomBase {
			return false
		}
		if !slices.Contains(r.full, at.ID) {
			r.full = append(r.full, at.ID)
		}
		return true // settle pauses only if the grow moved nothing
	case actThrottle:
		// Past ThrottleLimit waits the typed refusal surfaces, hint intact.
		if r.throttles >= r.h.c.policy.ThrottleLimit {
			return false
		}
		if r.refusal == nil || core.RetryAfterOf(err) > core.RetryAfterOf(r.refusal) {
			r.refusal = err
		}
		return true
	case actAvoid:
		if r.avoid == nil {
			r.avoid = make(map[string]bool)
		}
		r.avoid[at.Server] = true
		r.avoided = true
	default:
		return false
	}
	r.pause = true
	return true
}

// settle does what the attempt's failures asked for, once, in this
// order: grow, relearn, then wait — a throttle's retry-after if there
// was one, else the backoff step. A grow that moved the map needs no
// wait: the op goes again at once, along the new map. It returns an
// error when recovery itself failed or ctx ended.
func (r *recovery) settle(ctx context.Context, attempt int) error {
	h, p := r.h, &r.h.c.policy
	for _, b := range r.full {
		// The controller answers with the map it ends up with, grown or
		// not (a stale request, no free block, a bounded structure).
		before := h.snapshot().Epoch
		if err := h.requestScale(ctx, b); err != nil && !errors.Is(err, core.ErrNoCapacity) {
			return err
		}
		h.s.forget()
		if m := h.snapshot(); m.Epoch == before {
			r.pause = true
			if m.AtMaxBlocks() {
				r.atMax = append(r.atMax, b) // nothing changed and nothing can
			}
		}
	}
	if r.stale || r.avoided {
		// After a dead server the old map may still be right and the
		// controller may be unreachable too: only a stale map must be
		// replaced.
		if err := h.refresh(ctx); err == nil {
			h.s.forget()
		} else if r.stale || classify(err) != actAvoid {
			return err
		}
	}
	d := backoffDelay(attempt, p.MaxBackoff)
	switch {
	case r.refusal != nil:
		r.throttles++
		if obs.On() {
			h.c.throttleWaits.Inc()
		}
		if hint := core.RetryAfterOf(r.refusal); hint > 0 {
			d = hint
		}
		if p.MaxThrottleWait > 0 && d > p.MaxThrottleWait {
			d = p.MaxThrottleWait
		}
	case r.pause:
		if obs.On() {
			h.c.rpcm.Retries.Inc()
		}
	default:
		d = 0
	}
	r.full, r.stale, r.avoided, r.pause, r.refusal = r.full[:0], false, false, false, nil
	if d == 0 {
		return ctx.Err()
	}
	return sleepCtx(ctx, d)
}

// exhausted is the error of an op whose retry budget ran out.
func (h *handle) exhausted(op core.OpType, key string, last error) error {
	return errRetriesExhausted(fmt.Sprintf("%s %v %q", h.path, op, key), last)
}

// run drives one op to completion. key addresses a KV slot, chunk a
// file or custom chunk; a structure ignores the one it does not route
// by. It returns the op's values, decoded into res (the caller's vector,
// so a one-value answer costs the caller only its value), and the chunk
// of the entry that served it. read, when set, reads a mutation's
// encoded values in place instead (do), and run returns none; its error
// is the op's answer.
func (h *handle) run(ctx context.Context, op core.OpType, key string, chunk int, args, res [][]byte,
	read func([]byte) error) ([][]byte, int, error) {
	rec := recovery{h: h}
	var last error
	for attempt := 0; attempt < h.c.policy.Limit; attempt++ {
		e, retry, err := rec.locate(op, key, chunk)
		if err == nil {
			at := rec.target(&e, op)
			var vals [][]byte
			if op.IsMutation() {
				vals, err = h.do(ctx, at, op, args, res, read)
			} else {
				// What is not a mutation is an idempotent read: it may
				// hedge against another member of the chain.
				vals, err = h.doRead(ctx, at, e.Chain, op, args, res)
			}
			if err == nil {
				return vals, e.Chunk, nil
			}
			retry = rec.note(op, at, e.Chunk, err)
		}
		if !retry {
			return nil, 0, err
		}
		last = err
		if err := rec.settle(ctx, attempt); err != nil {
			return nil, 0, err
		}
	}
	return nil, 0, h.exhausted(op, key, last)
}

// one unwraps the result of an op that answers with exactly one value.
func one(vals [][]byte, _ int, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return vals[0], nil
}

// batchGroup is the part of a batch bound for one server.
type batchGroup struct {
	server string
	chunk  int   // of the first op's entry; keyless batches share one route
	n      int   // ops routed to it
	idxs   []int // positions in the caller's batch
	ops    []ds.BatchOp
}

// runBatch drives a batch of same-op operations to completion, one
// MethodDataOpBatch frame per destination server and attempt, cut at
// ds.MaxBatchOps ops. Op i addresses keys[i] and carries vals[i]; with
// keys nil every op addresses the structure's one route (a queue end),
// with vals nil the key is the only argument. landed, when set,
// receives each successful op's values; they alias the response, but
// the vector holding them is reused for the next op, so landed keeps
// elements, never res itself. The result is nil or a *MultiError
// indexed like the batch: ops fail and are retried independently, and
// every pending op shares each attempt's one settle. The groups' vectors
// are windows of a pooled scratch's vectors, reused by every attempt,
// and the per-op errors are only allocated once an op fails.
func (h *handle) runBatch(ctx context.Context, op core.OpType, keys []string, vals [][]byte,
	landed func(i int, res [][]byte) error) error {
	n := max(len(keys), len(vals))
	if n == 0 {
		return nil
	}
	argv, width := batchArgv(keys, vals)
	var errs []error
	setErr := func(i int, err error) {
		if err != nil && errs == nil {
			errs = make([]error, n)
		}
		if errs != nil {
			errs[i] = err
		}
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer sc.release()
	sc.ints = slices.Grow(sc.ints[:0], 3*n)[:3*n]
	// Positions: the pending ops, the routed ops' tags, and the ops to
	// retry, which become the next attempt's pending ops (at most n).
	pending, idxBuf, spare := sc.ints[:n:n], sc.ints[n:n:2*n], sc.ints[2*n:2*n]
	for i := range pending {
		pending[i] = i
	}
	sc.ops = slices.Grow(sc.ops[:0], n)
	opBuf := sc.ops
	keyOf := func(i int) string {
		if keys == nil {
			return ""
		}
		return keys[i]
	}
	rec := recovery{h: h}
	var oneGroup [1]batchGroup // most batches reach one server
	groups := oneGroup[:0]
	res := sc.vals[:0] // one result's values, reused across the call

	for attempt := 0; attempt < h.c.policy.Limit; attempt++ {
		// Route: every pending op's destination under the current map,
		// each op tagged with its group as gi*n + i.
		next := spare[:0]
		groups = groups[:0]
		idxs, ops := idxBuf[:0], opBuf[:0]
		var e ds.PartitionEntry
		var retry bool
		var rerr error
		for j, i := range pending {
			if keys != nil || j == 0 {
				e, retry, rerr = rec.locate(op, keyOf(i), 0)
			}
			if rerr != nil {
				setErr(i, rerr)
				if retry {
					next = append(next, i)
				}
				continue
			}
			at := rec.target(&e, op)
			gi := 0
			for gi < len(groups) && (groups[gi].server != at.Server || groups[gi].n == ds.MaxBatchOps) {
				gi++
			}
			if gi == len(groups) {
				groups = append(groups, batchGroup{server: at.Server, chunk: e.Chunk})
			}
			groups[gi].n++
			idxs = append(idxs, gi*n+i)
			ops = append(ops, ds.BatchOp{Op: op, Block: at.ID, Args: argv[i*width : (i+1)*width : (i+1)*width]})
		}
		// Cut each group's window: sorted by tag, a group's ops are
		// contiguous and stay in batch order.
		if len(groups) > 1 {
			sort.Sort(byTag{idxs, ops})
		}
		for gi, k := range groups {
			g := &groups[gi]
			g.idxs, g.ops = idxs[:k.n:k.n], ops[:k.n:k.n]
			idxs, ops = idxs[k.n:], ops[k.n:]
			for j := range g.idxs {
				g.idxs[j] -= gi * n
			}
		}

		// Dispatch each group; classify per call, then per op.
		for gi := range groups {
			g := &groups[gi]
			rs, cerr := h.doBatch(ctx, g.server, g.ops, sc.results[:0])
			if cerr == nil && len(rs) != len(g.idxs) {
				cerr = fmt.Errorf("client: batch: %d results for %d ops", len(rs), len(g.idxs))
			}
			if cerr != nil {
				// The whole call failed: no op in it got an answer.
				for _, i := range g.idxs {
					setErr(i, cerr)
				}
				if rec.note(op, core.BlockInfo{Server: g.server}, g.chunk, cerr) {
					next = append(next, g.idxs...)
				}
				continue
			}
			sc.results = rs
			// A failed result equal to the one before it — the redirected
			// or refused suffix of a sealed queue segment — shares its
			// parsed error and its note: one parse per run, not per op.
			var last ds.BatchResult
			var lastBlock core.BlockID
			var lastErr error
			var lastRetry bool
			for j, r := range rs {
				i, at := g.idxs[j], core.BlockInfo{ID: g.ops[j].Block, Server: g.server}
				var oerr error
				retry := false
				switch {
				case r.Code == core.CodeOK:
					res, oerr = ds.DecodeValsInto(res[:0], r.Blob)
					sc.vals = res
					if oerr == nil && landed != nil {
						oerr = landed(i, res)
					}
					if oerr != nil {
						retry = rec.note(op, at, g.chunk, oerr)
					}
				case lastErr != nil && at.ID == lastBlock && r.Code == last.Code && bytes.Equal(r.Blob, last.Blob):
					oerr, retry = lastErr, lastRetry
				default:
					if r.Code == core.CodeRedirect {
						oerr = redirectTo(r.Blob)
					} else {
						oerr = r.Err()
					}
					retry = rec.note(op, at, g.chunk, oerr)
					last, lastBlock, lastErr, lastRetry = r, at.ID, oerr, retry
				}
				setErr(i, oerr)
				if retry {
					next = append(next, i)
				}
			}
		}

		pending, spare = next, pending[:0]
		if len(pending) == 0 {
			return multiErr(errs)
		}
		// Program order within the batch survives regrouping.
		slices.Sort(pending)
		if (rec.stale || rec.avoided) && obs.On() {
			h.c.staleRegroups.Inc()
		}
		if serr := rec.settle(ctx, attempt); serr != nil {
			for _, i := range pending {
				setErr(i, serr)
			}
			return multiErr(errs)
		}
	}
	for _, i := range pending {
		setErr(i, h.exhausted(op, keyOf(i), errs[i]))
	}
	return multiErr(errs)
}

// batchScratch is the vectors one runBatch call works in: positions
// (pending, tagged and retried ops), routed ops, one group's results
// and one result's values. Pooled, a steady-state call allocates none
// of them.
type batchScratch struct {
	ints    []int
	ops     []ds.BatchOp
	results []ds.BatchResult
	vals    [][]byte
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// batchScratchMax bounds the batches whose scratch is kept: release
// clears every pooled element, so one huge batch must not tax the calls
// after it. No vector outgrows the batch, so bounding the op vector
// bounds them all.
const batchScratchMax = 1 << 12

// release drops what the vectors point at — the caller's values, the
// response — and pools them, unless a batch grew them past
// batchScratchMax.
func (sc *batchScratch) release() {
	if cap(sc.ops) > batchScratchMax {
		return
	}
	clear(sc.ops[:cap(sc.ops)])
	clear(sc.results[:cap(sc.results)])
	clear(sc.vals[:cap(sc.vals)])
	batchScratchPool.Put(sc)
}

// byTag sorts a batch's routed ops by their group tags (gi*n + i).
type byTag struct {
	tags []int
	ops  []ds.BatchOp
}

func (b byTag) Len() int           { return len(b.tags) }
func (b byTag) Less(i, j int) bool { return b.tags[i] < b.tags[j] }
func (b byTag) Swap(i, j int) {
	b.tags[i], b.tags[j] = b.tags[j], b.tags[i]
	b.ops[i], b.ops[j] = b.ops[j], b.ops[i]
}

// batchArgv builds every op's argument vector up front, for the whole
// call: op i's args are argv[i*width : (i+1)*width], and the keys'
// bytes share one buffer. A value-only batch aliases the caller's
// slice instead.
func batchArgv(keys []string, vals [][]byte) (argv [][]byte, width int) {
	if keys == nil {
		return vals, 1
	}
	width, size := 1, 0
	if vals != nil {
		width = 2
	}
	for _, k := range keys {
		size += len(k)
	}
	kb := make([]byte, 0, size)
	argv = make([][]byte, 0, width*len(keys))
	for i, k := range keys {
		kb = append(kb, k...)
		argv = append(argv, kb[len(kb)-len(k):len(kb):len(kb)])
		if vals != nil {
			argv = append(argv, vals[i])
		}
	}
	return argv, width
}
