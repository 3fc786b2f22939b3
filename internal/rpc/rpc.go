// Package rpc provides the request/response layer on top of the framed
// wire protocol: multiplexed in-flight calls with sequence matching on
// the client, per-connection dispatch with bounded concurrency on the
// server, and server-push frames for the notification interface.
//
// This mirrors the role of the paper's optimized Thrift layer (§4.2.2):
// asynchronous framed IO multiplexing many sessions so requests across
// sessions proceed non-blockingly.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/obs"
	"jiffy/internal/proto"
	"jiffy/internal/wire"
)

// SessionError reports that an RPC session died with calls in flight:
// the read pump hit a connection error (peer crash, reset, network
// partition) and every pending request was failed fast rather than
// left hanging, or a request could not be written. It unwraps to
// core.ErrClosed so existing errors.Is checks keep working; Cause
// carries the underlying transport error.
type SessionError struct {
	// Cause is the transport error that killed the session.
	Cause error
}

// Error implements error.
func (e *SessionError) Error() string {
	return fmt.Sprintf("rpc: session closed: %v", e.Cause)
}

// Unwrap maps the session failure onto the ErrClosed sentinel.
func (e *SessionError) Unwrap() error { return core.ErrClosed }

// pendingShards divides the in-flight call table; must be a power of
// two. Sequence numbers are assigned atomically and map onto shards
// round-robin, so concurrent callers contend on a shard mutex held for
// one map operation instead of a client-wide lock held across seq
// assignment, registration, and completion.
const pendingShards = 16

// pendingShard is one stripe of the in-flight call table.
type pendingShard struct {
	mu sync.Mutex
	m  map[uint64]*waiter
	// pad out to a cache line so shards don't false-share.
	_ [40]byte
}

// callResult is what the read pump (or failAll) hands a waiter. At most
// one result is ever delivered per registration: the sender first
// removes the waiter from the pending table, so the 1-buffered channel
// never blocks and never carries a stale value across reuses.
type callResult struct {
	payload []byte
	code    core.ErrorCode
	// pooled marks payload as wire.GetBuf memory now owned by the
	// receiver (borrowed-call responses).
	pooled bool
	// err is the session failure injected by failAll; nil otherwise.
	err error
}

// waiter is the pooled per-call state: a reusable 1-buffered response
// channel plus a reusable timeout timer. Waiters recycle through
// waiterPool, so the steady-state cost of a call is zero allocations
// for channel, timer, and pending-table plumbing.
type waiter struct {
	ch chan callResult
	// borrow asks the read pump for a pooled payload copy instead of a
	// heap-owned one; set before registration, read under the shard lock.
	borrow bool
	// method labels watchdog timeout errors; set before registration.
	method uint16
	// expiry, when non-zero, is the watchdog tick at which this call
	// times out (coarse-deadline fast path). Written before registration,
	// read by the watchdog under the shard lock.
	expiry uint64
	// timer is the lazily created, reused per-call timeout timer.
	timer *time.Timer
	// traceExt holds a traced call's trace-extension payload until the
	// request is written, so the extension costs no allocation.
	traceExt [32]byte
}

var waiterPool = sync.Pool{
	New: func() interface{} { return &waiter{ch: make(chan callResult, 1)} },
}

// Client is one session with an RPC server: one framed connection, one
// read pump matching responses to callers by sequence number, and
// wall-time timeouts (a pooled per-call timer, or the coarse watchdog
// for long deadlines). It is safe for concurrent use: calls from many
// goroutines are multiplexed over the connection, and their request
// writes group-commit into shared flushes. Calls are synchronous
// request/response, so operations issued by one goroutine keep their
// program order; operations from different goroutines have none. The
// session is the unit of failure: when the connection dies every
// pending call fails fast and Done closes.
type Client struct {
	conn *wire.Conn

	nextSeq atomic.Uint64
	pending [pendingShards]pendingShard
	// closed flips once, before failAll sweeps the pending table; a
	// caller that registers and then observes closed un-registers itself
	// (or collects failAll's result), so no waiter is ever stranded.
	closed atomic.Bool

	// tick counts watchdog sweeps; waiters on the coarse-deadline fast
	// path record the tick at which they expire instead of arming a
	// per-call timer. watchdogOnce starts the sweeper lazily the first
	// time a call qualifies, so clients that never take the fast path
	// never run the goroutine.
	tick         atomic.Uint64
	watchdogOnce sync.Once

	mu sync.Mutex
	// sessionErr records why the session died; returned to callers whose
	// pending requests were failed by failAll. Guarded by mu.
	sessionErr error

	// timeout bounds every Call without an explicit context deadline;
	// zero disables the bound. Guarded by mu.
	timeout time.Duration

	// onPush, if set, receives push frames (subscription notifications).
	onPush func(subID uint64, payload []byte)

	// instr carries the optional telemetry attachment (per-method
	// metrics, tracer, peer label). Atomic so instrumentation can be
	// installed by dial wrappers without racing in-flight calls.
	instr atomic.Pointer[instrumentation]

	readerDone chan struct{}
}

// instrumentation bundles a session's telemetry sinks.
type instrumentation struct {
	metrics *obs.RPCMetrics
	tracer  *obs.Tracer
	peer    string
}

// Dial connects to an RPC server at addr (TCP or mem://).
func Dial(addr string) (*Client, error) {
	nc, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	return NewClient(wire.NewConn(nc)), nil
}

// NewClient builds a client over an established framed connection and
// starts its read pump.
func NewClient(conn *wire.Conn) *Client {
	c := &Client{conn: conn, readerDone: make(chan struct{})}
	for i := range c.pending {
		c.pending[i].m = make(map[uint64]*waiter)
	}
	go c.readLoop()
	return c
}

// SetTimeout installs the default per-call deadline; zero disables it.
// Calls already in flight are unaffected.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// IsClosed reports whether the session has terminated (read pump gone).
func (c *Client) IsClosed() bool {
	select {
	case <-c.readerDone:
		return true
	default:
		return false
	}
}

// Done is closed when the session terminates; connection caches watch
// it to evict dead sessions.
func (c *Client) Done() <-chan struct{} { return c.readerDone }

// SetInstrumentation attaches per-method metrics and a tracer to the
// session; peer labels outbound span events (usually the dialed
// address). Any argument may be nil.
func (c *Client) SetInstrumentation(m *obs.RPCMetrics, tr *obs.Tracer, peer string) {
	c.instr.Store(&instrumentation{metrics: m, tracer: tr, peer: peer})
}

// WithInstrumentation wraps a dial function so every session it
// produces reports into m and tr (either may be nil).
func WithInstrumentation(dial func(addr string) (*Client, error), m *obs.RPCMetrics, tr *obs.Tracer) func(addr string) (*Client, error) {
	if dial == nil {
		dial = Dial
	}
	if m == nil && tr == nil {
		return dial
	}
	return func(addr string) (*Client, error) {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		c.SetInstrumentation(m, tr, addr)
		return c, nil
	}
}

// methodLabel names a method for spans and error text.
func methodLabel(method uint16) string {
	if n := proto.MethodName(method); n != "" {
		return n
	}
	return "0x" + strconv.FormatUint(uint64(method), 16)
}

// WithTimeout wraps a dial function so every client it produces carries
// the default per-call deadline d.
func WithTimeout(dial func(addr string) (*Client, error), d time.Duration) func(addr string) (*Client, error) {
	if dial == nil {
		dial = Dial
	}
	if d <= 0 {
		return dial
	}
	return func(addr string) (*Client, error) {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		c.SetTimeout(d)
		return c, nil
	}
}

// OnPush installs the handler invoked (from the read pump goroutine)
// for every push frame. Must be set before the first subscription is
// created. The payload is only valid for the duration of the callback
// — it may alias connection-owned read storage reused by the next
// frame — so handlers must decode or copy before returning.
func (c *Client) OnPush(fn func(subID uint64, payload []byte)) {
	c.mu.Lock()
	c.onPush = fn
	c.mu.Unlock()
}

// shard returns the pending-table stripe owning seq.
func (c *Client) shard(seq uint64) *pendingShard {
	return &c.pending[seq&(pendingShards-1)]
}

func (c *Client) readLoop() {
	for {
		// Small frames decode into connection-owned storage; whatever
		// must outlive this iteration is copied below. Large frames come
		// back freshly allocated and transfer ownership as before.
		f, reused, err := c.conn.ReadFrameReused()
		if err != nil {
			c.failAll(err)
			return
		}
		switch f.Kind {
		case wire.KindResponse:
			sh := c.shard(f.Seq)
			sh.mu.Lock()
			w, ok := sh.m[f.Seq]
			if ok {
				delete(sh.m, f.Seq)
			}
			sh.mu.Unlock()
			if !ok {
				break // abandoned by timeout/cancel; drop the late response
			}
			r := callResult{code: f.Code}
			switch {
			case len(f.Payload) == 0:
			case !reused:
				r.payload = f.Payload
			case w.borrow:
				r.payload = append(wire.GetBuf(), f.Payload...)
				r.pooled = true
			default:
				r.payload = append([]byte(nil), f.Payload...)
			}
			// Delivery cannot block: the channel holds one slot and the
			// waiter was just removed from the table, making us the only
			// sender for this registration.
			w.ch <- r
		case wire.KindPush:
			c.mu.Lock()
			fn := c.onPush
			c.mu.Unlock()
			if fn != nil {
				fn(f.Seq, f.Payload)
			}
		}
	}
}

// failAll is the read pump's exit: it marks the session dead, fails
// every pending call fast with a SessionError carrying cause — callers
// never hang on a peer that stopped responding — and closes readerDone.
// The error is recorded before closed flips, so any caller that
// observes closed reads a non-nil cause.
func (c *Client) failAll(cause error) {
	serr := &SessionError{Cause: cause}
	c.mu.Lock()
	c.sessionErr = serr
	c.mu.Unlock()
	c.closed.Store(true)
	c.conn.Close()
	for i := range c.pending {
		sh := &c.pending[i]
		sh.mu.Lock()
		for seq, w := range sh.m {
			delete(sh.m, seq)
			w.ch <- callResult{err: serr}
		}
		sh.mu.Unlock()
	}
	close(c.readerDone)
}

// closureErr reports why the session is closed.
func (c *Client) closureErr() error {
	c.mu.Lock()
	err := c.sessionErr
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return core.ErrClosed
}

// Call performs a synchronous RPC: sends payload for method and waits
// for the matching response. The returned payload is the server's
// response body; a non-OK wire code becomes the corresponding sentinel
// error from internal/core.
func (c *Client) Call(method uint16, payload []byte) ([]byte, error) {
	return c.CallContext(context.Background(), method, payload)
}

// CallContext is Call with cancellation. A canceled context abandons
// the response (the pending entry is removed; a late response frame is
// dropped by the read pump) and the call fails with the context's
// error: context.Canceled, or ErrTimeout wrapping
// context.DeadlineExceeded when the ctx deadline expires. A ctx
// deadline takes precedence over the session's default timeout, which
// only arms when ctx carries no deadline of its own — a peer that
// stops reading still cannot hang the caller forever.
//
// When instrumentation is attached the call updates the per-method
// stats (requests, bytes, in-flight, latency histogram) and, when a
// tracer or an inbound span rides ctx, propagates the span to the
// peer via a trace-extension frame written in the same flush as the
// request.
func (c *Client) CallContext(ctx context.Context, method uint16, payload []byte) ([]byte, error) {
	out, _, err := c.callInstrumented(ctx, method, payload, nil, false)
	return out, err
}

// CallBorrowedContext is CallContext for callers prepared to receive
// the response in borrowed memory: when pooled is true the returned
// payload is backed by a wire.GetBuf buffer that the caller MUST
// return with wire.PutBuf once done with it — on error paths too,
// since some errors (redirects) carry meaningful payloads. Small
// responses travel alloc-free this way; large ones come back heap-owned
// with pooled false.
func (c *Client) CallBorrowedContext(ctx context.Context, method uint16, payload []byte) (out []byte, pooled bool, err error) {
	return c.callInstrumented(ctx, method, payload, nil, true)
}

// CallVecContext is CallContext for requests whose body is assembled
// from scatter-gather segments (see ds.AppendRequestVec): the segments
// concatenate on the wire without an intermediate copy. They are fully
// consumed before the call blocks on the response, so the caller may
// reuse or release the underlying memory as soon as CallVecContext
// returns.
func (c *Client) CallVecContext(ctx context.Context, method uint16, vec [][]byte) ([]byte, error) {
	out, _, err := c.callInstrumented(ctx, method, nil, vec, false)
	return out, err
}

func (c *Client) callInstrumented(ctx context.Context, method uint16, payload []byte, vec [][]byte, borrow bool) ([]byte, bool, error) {
	in := c.instr.Load()
	if in == nil || !obs.On() {
		// No telemetry attached (or globally disabled): skip straight to
		// the wire. This keeps the uninstrumented path free of method
		// label lookups, span plumbing, and stat loads.
		return c.call(ctx, method, payload, vec, borrow)
	}
	tracer := in.tracer
	var stats *obs.MethodStats
	var start time.Time
	if in.metrics != nil {
		stats = in.metrics.Method(method)
		stats.Requests.Inc()
		n := len(payload)
		for _, seg := range vec {
			n += len(seg)
		}
		stats.BytesOut.Add(int64(n))
		stats.InFlight.Inc()
		start = time.Now()
	}
	var span obs.Span
	if tracer != nil {
		ctx, span = tracer.Begin(ctx, "rpc:"+methodLabel(method), in.peer)
	}
	out, pooled, err := c.call(ctx, method, payload, vec, borrow)
	span.End(err)
	if stats != nil {
		stats.InFlight.Dec()
		stats.Latency.ObserveDuration(time.Since(start))
		stats.BytesIn.Add(int64(len(out)))
		if err != nil {
			stats.Errors.Inc()
		}
	}
	return out, pooled, err
}

// call is the uninstrumented request/response core. vec, when non-nil,
// carries scatter-gather body segments written after payload. borrow
// opts into pooled response memory (see CallBorrowedContext).
func (c *Client) call(ctx context.Context, method uint16, payload []byte, vec [][]byte, borrow bool) ([]byte, bool, error) {
	if c.closed.Load() {
		return nil, false, c.closureErr()
	}

	c.mu.Lock()
	timeout := c.timeout
	c.mu.Unlock()

	w := waiterPool.Get().(*waiter)
	w.borrow = borrow
	w.method = method
	// Coarse-deadline fast path: a deadline-less context doesn't arm a
	// per-call timer at all. The waiter records the watchdog tick at
	// which it expires and the caller parks in a bare channel receive —
	// no timer lock traffic, no multi-way select. The price is timeout
	// granularity of one sweep interval, which is why short timeouts keep
	// the precise timer.
	if timeout >= watchdogMinTimeout && ctx.Done() == nil {
		c.watchdogOnce.Do(c.startWatchdog)
		w.expiry = c.tick.Load() + watchdogTicks(timeout)
	}
	seq := c.nextSeq.Add(1)
	sh := c.shard(seq)
	sh.mu.Lock()
	sh.m[seq] = w
	sh.mu.Unlock()
	// Re-check after registering: failAll flips closed before sweeping,
	// so a session death racing this call either left our entry for the
	// sweep (collect its result below) or we remove it ourselves here.
	if c.closed.Load() {
		return nil, false, c.abandon(seq, w, nil, c.closureErr())
	}

	// The request, preceded by its trace extension when a span rides
	// ctx: the extension travels under the same seq and in the same
	// flush, and old peers skip non-request frames, so this stays
	// wire-compatible. A small contiguous request is encoded into one
	// pooled buffer and handed over as a single contiguous write (the
	// frames stay on the stack); anything else is one framed write.
	// Either way the group-commit flush treats the write like any other
	// convoy member.
	var ext wire.Frame
	req := wire.Frame{Kind: wire.KindRequest, Seq: seq, Method: method,
		Payload: payload, PayloadVec: vec}
	frames := [2]*wire.Frame{&ext, &req}
	fs := frames[1:]
	if sc, traced := obs.SpanFromContext(ctx); traced && sc.Valid() {
		n := copy(w.traceExt[:], wire.EncodeTraceExt(sc.TraceID, sc.SpanID))
		ext = wire.Frame{Kind: wire.KindTraceExt, Seq: seq, Payload: w.traceExt[:n]}
		fs = frames[:]
	}
	var err error
	if vec == nil && len(payload) <= wire.InlineFrameThreshold {
		buf := wire.GetBuf()
		for _, f := range fs {
			buf = wire.AppendFrame(buf, f)
		}
		err = c.conn.WriteBytes(buf)
		wire.PutBuf(buf)
	} else {
		err = c.conn.WriteFrames(fs...)
	}
	if err != nil {
		// A request the transport refused means the session is dead (the
		// peer closed, or the write broke mid-frame), even if the read
		// pump has not seen it yet: fail the call as the pump's exit
		// would, so callers re-dial or re-home. Only an oversized frame,
		// refused before a byte is written, is the caller's own error.
		if !errors.Is(err, core.ErrTooLarge) {
			err = &SessionError{Cause: err}
		}
		return nil, false, c.abandon(seq, w, nil, err)
	}

	// Timeout timer: the waiter's own timer is reused across calls
	// (time.After allocates a timer plus channel per call). Calls on the
	// coarse-deadline fast path already carry a watchdog expiry.
	var timerC <-chan time.Time
	var tm *time.Timer
	if timeout > 0 && w.expiry == 0 {
		if _, hasDeadline := ctx.Deadline(); !hasDeadline {
			if tm = w.timer; tm == nil {
				tm = time.NewTimer(timeout)
				w.timer = tm
			} else {
				tm.Reset(timeout)
			}
			timerC = tm.C
		}
	}

	var r callResult
	if w.expiry != 0 {
		// Bare receive: delivery comes from the read pump, failAll, or
		// the watchdog (as a callResult carrying ErrTimeout) — all of
		// which claim the pending entry first, so exactly one arrives.
		r = <-w.ch
	} else {
		select {
		case r = <-w.ch:
		case <-timerC:
			tm = nil // fired and drained; nothing to stop
			return nil, false, c.abandon(seq, w, tm,
				fmt.Errorf("rpc: call %d timed out after %v: %w", method, timeout, core.ErrTimeout))
		case <-ctx.Done():
			cerr := ctx.Err()
			if errors.Is(cerr, context.DeadlineExceeded) {
				// Map context deadlines onto the typed timeout error so the
				// retry/failover classification built around ErrTimeout keeps
				// working; errors.Is still sees context.DeadlineExceeded.
				cerr = fmt.Errorf("rpc: call %s: %w: %w", methodLabel(method), core.ErrTimeout, cerr)
			} else {
				cerr = fmt.Errorf("rpc: call %s: %w", methodLabel(method), cerr)
			}
			return nil, false, c.abandon(seq, w, tm, cerr)
		}
	}
	stopTimer(tm)
	releaseWaiter(w)
	if r.err != nil {
		return nil, false, r.err
	}
	if r.code != core.CodeOK {
		// Error payloads still transfer to the caller: redirects carry
		// their target in the body.
		return r.payload, r.pooled, core.ErrOf(r.code, string(r.payload))
	}
	return r.payload, r.pooled, nil
}

// abandon gives up on a registered call: it removes the pending entry,
// or — when the read pump (or failAll) already claimed it — collects
// the in-flight result so pooled memory is returned and the waiter's
// channel is empty for reuse. It stops tm, recycles w, and returns err.
func (c *Client) abandon(seq uint64, w *waiter, tm *time.Timer, err error) error {
	sh := c.shard(seq)
	sh.mu.Lock()
	_, mine := sh.m[seq]
	if mine {
		delete(sh.m, seq)
	}
	sh.mu.Unlock()
	if !mine {
		// The sender removed the entry first, which means a result is
		// already in the channel or about to be: the send happens
		// immediately after the removal and cannot block. Collect it so
		// the waiter recycles clean.
		r := <-w.ch
		if r.pooled {
			wire.PutBuf(r.payload)
		}
	}
	stopTimer(tm)
	releaseWaiter(w)
	return err
}

// stopTimer quiesces a reused waiter timer: stopped with its channel
// drained, ready for the next Reset.
func stopTimer(tm *time.Timer) {
	if tm != nil && !tm.Stop() {
		select {
		case <-tm.C:
		default:
		}
	}
}

// releaseWaiter recycles per-call state. The caller guarantees the
// channel is empty and any timer is stopped and drained.
func releaseWaiter(w *waiter) {
	w.borrow = false
	w.expiry = 0
	waiterPool.Put(w)
}

// watchdogInterval is the sweep period of the coarse timeout watchdog;
// watchdogMinTimeout is the smallest default timeout it serves. Calls
// with shorter timeouts or cancellable contexts keep the precise
// per-call timer, so the coarse path only ever stretches a multi-second
// deadline by at most one sweep.
const (
	watchdogInterval   = 100 * time.Millisecond
	watchdogMinTimeout = time.Second
)

// watchdogTicks converts a timeout into a sweep count, rounding up and
// adding one so a call never expires early when it registers just
// before a sweep.
func watchdogTicks(d time.Duration) uint64 {
	return uint64((d+watchdogInterval-1)/watchdogInterval) + 1
}

// startWatchdog launches the coarse timeout sweeper; it runs until the
// session dies and claims expired waiters exactly like the read pump:
// remove from the pending table first, then deliver.
func (c *Client) startWatchdog() {
	go func() {
		t := time.NewTicker(watchdogInterval)
		defer t.Stop()
		for {
			select {
			case <-c.readerDone:
				return
			case <-t.C:
			}
			now := c.tick.Add(1)
			for i := range c.pending {
				sh := &c.pending[i]
				sh.mu.Lock()
				for seq, w := range sh.m {
					if w.expiry != 0 && now >= w.expiry {
						delete(sh.m, seq)
						w.ch <- callResult{err: fmt.Errorf(
							"rpc: call %s timed out: %w", methodLabel(w.method), core.ErrTimeout)}
					}
				}
				sh.mu.Unlock()
			}
		}
	}()
}

// Close tears down the session's connection and waits for the read
// pump to exit; in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.readerDone
	return err
}
