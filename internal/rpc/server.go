package rpc

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/obs"
	"jiffy/internal/wire"
)

// Response is a handler's reply.
//
// Ownership contract: Payload passes to the rpc layer, which recycles
// it into the wire buffer pool once the response frame is written —
// so it must be freshly encoded (a Table's handlers, ds codec helpers) or
// taken from wire.GetBuf, never a slice aliasing long-lived state.
// Vec segments are the opposite: they MAY alias long-lived block
// memory (that is the zero-copy read path's whole point), and the rpc
// layer only reads them. Release tells the handler when that reading
// is over.
type Response struct {
	// Payload is the contiguous response body, written first.
	Payload []byte
	// Vec is an optional scatter-gather body written after Payload;
	// on the wire the two concatenate into one response payload.
	Vec [][]byte
	// Release, if non-nil, runs exactly once when the connection is
	// done with the frame's bytes — staged into the session write
	// buffer or handed to the socket, on success and error alike. It is
	// the point where memory aliased by Vec may be unpinned (e.g. a
	// file chunk's read lease dropped). It rides on the response frame
	// as it is, so a handler that passes a pointer it already holds (the
	// memory server passes its op's pooled scratch) pays no closure.
	Release wire.Releaser
}

// BytesResponse wraps a contiguous body in a Response.
func BytesResponse(b []byte) Response { return Response{Payload: b} }

// Handler processes one request. ctx carries cancellation and the
// propagated span context when the client attached a trace-extension
// frame (handlers thread it into any onward RPCs so traces span
// hops); conn identifies the client connection (used by the
// notification machinery to push frames back); method is the method
// identifier; payload the request body. payload is only valid until the
// handler returns and must not be aliased by the Response: small
// requests sit in connection-owned storage the next read overwrites,
// large ones in a pooled buffer recycled once the response is written.
// A handler keeps what it needs by copying. The returned Response
// becomes the response body (see its ownership contract); a returned
// error maps onto a wire error code (sentinels from internal/core
// travel losslessly).
type Handler func(ctx context.Context, conn *ServerConn, method uint16, payload []byte) (Response, error)

// BytesHandler adapts a contiguous-payload handler function to the
// Handler contract — the natural shape for control planes whose
// replies are always freshly encoded (Table.Dispatch has it).
func BytesHandler(fn func(ctx context.Context, conn *ServerConn, method uint16, payload []byte) ([]byte, error)) Handler {
	return func(ctx context.Context, conn *ServerConn, method uint16, payload []byte) (Response, error) {
		b, err := fn(ctx, conn, method, payload)
		return Response{Payload: b}, err
	}
}

// Server accepts framed connections and dispatches requests to a
// Handler. Each connection gets a read pump; each request runs on the
// connection's parked worker or a new goroutine, so slow handlers don't
// head-of-line-block a session — matching the paper's asynchronous
// framed IO design. A goroutine that finishes a request parks as its
// connection's worker when that place is free (at most one per
// connection, exiting with it), so a serial stream of requests reuses
// one goroutine and its grown stack instead of regrowing a fresh one
// per call. A request the inline predicate clears runs on the read
// pump instead (see SetInlineHandler); only the benchmark's null-call
// echo probe installs one, so every memory-server and controller
// request runs on a worker.
type Server struct {
	handler Handler
	lis     net.Listener
	log     *slog.Logger

	// inlineHandler, when set, runs requests matching inlineFast
	// synchronously on the connection's read pump. See SetInlineHandler.
	inlineHandler Handler
	inlineFast    func(method uint16, payloadLen int) bool

	mu     sync.Mutex
	conns  map[*ServerConn]struct{}
	closed bool

	wg sync.WaitGroup

	// metrics/tracer are the optional server-side telemetry sinks,
	// installed via SetObserver before Listen.
	metrics *obs.RPCMetrics
	tracer  *obs.Tracer

	// OnDisconnect, if set, runs after a client connection is torn
	// down; the subscription registry uses it to drop dead listeners.
	OnDisconnect func(*ServerConn)
}

// SetObserver attaches inbound-dispatch telemetry: per-method metrics
// and a tracer recording one server-side span per traced request.
// Must be called before Listen.
func (s *Server) SetObserver(m *obs.RPCMetrics, tr *obs.Tracer) {
	s.metrics = m
	s.tracer = tr
}

// SetInlineHandler installs the inline path: requests whose method
// and payload size pass fast run through h directly on the
// connection's read pump, with the request frame decoded in
// connection-owned storage (zero copies, zero goroutines). h must not
// block: the connection reads nothing more until it returns. The
// payload h sees is only valid until it returns. Telemetry, trace
// pairing, and the response ownership contract behave exactly as on
// the regular path. Must be called before Listen.
func (s *Server) SetInlineHandler(h Handler, fast func(method uint16, payloadLen int) bool) {
	s.inlineHandler = h
	s.inlineFast = fast
}

// NewServer creates a server around handler. Call Serve to start.
func NewServer(handler Handler, logger *slog.Logger) *Server {
	if logger == nil {
		logger = slog.Default()
	}
	return &Server{
		handler: handler,
		log:     logger,
		conns:   make(map[*ServerConn]struct{}),
	}
}

// Listen binds addr (TCP or mem://) and starts serving in background
// goroutines. It returns the bound address (useful with ":0").
func (s *Server) Listen(addr string) (string, error) {
	lis, err := wire.Listen(addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(lis)
	}()
	return lis.Addr().String(), nil
}

func (s *Server) acceptLoop(lis net.Listener) {
	for {
		nc, err := lis.Accept()
		if err != nil {
			return
		}
		sc := &ServerConn{conn: wire.NewConn(nc), srv: s, work: make(chan request)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sc.readLoop()
			s.dropConn(sc)
		}()
	}
}

func (s *Server) dropConn(sc *ServerConn) {
	s.mu.Lock()
	delete(s.conns, sc)
	s.mu.Unlock()
	sc.conn.Close()
	if s.OnDisconnect != nil {
		s.OnDisconnect(sc)
	}
}

// Close stops accepting, closes all live connections and waits for
// handler goroutines, parked workers included, to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	conns := make([]*ServerConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.conn.Close()
	}
	s.wg.Wait()
	return nil
}

// ServerConn represents one client connection on the server side.
// Handlers may retain it to push notifications later; Push fails once
// the peer disconnects.
type ServerConn struct {
	conn *wire.Conn
	srv  *Server

	// work hands a goroutine-path request to the parked worker. It is
	// unbuffered, so a send succeeds only while a worker waits on it;
	// parked admits at most one waiter. The read loop is the only
	// sender and closes it on exit, which releases the worker.
	work   chan request
	parked atomic.Bool

	reqWG sync.WaitGroup
}

// request is one goroutine-path request in flight to a worker. It
// carries its frame by value — the read loop's frame is the
// connection's, overwritten by the next read — so handing a request
// over costs no frame object. owned marks a payload copied out of the
// connection's storage into a wire.GetBuf buffer, which the worker
// hands back once the request is over; a large payload is a pooled
// receive buffer, which finish recycles.
type request struct {
	f     wire.Frame
	trace obs.SpanContext
	owned bool
}

// Push sends an unsolicited notification frame tagged with subID.
func (sc *ServerConn) Push(subID uint64, payload []byte) error {
	return sc.conn.WriteFrame(&wire.Frame{
		Kind:    wire.KindPush,
		Seq:     subID,
		Payload: payload,
	})
}

// RemoteAddr exposes the peer address.
func (sc *ServerConn) RemoteAddr() net.Addr { return sc.conn.RemoteAddr() }

// maxPendingTrace bounds the per-connection trace-extension pairing
// map so a peer spraying extensions without requests cannot grow it
// unboundedly.
const maxPendingTrace = 4096

// traceCache pairs trace-extension frames with the request that
// follows under the same seq. Single-goroutine use (the connection's
// read loop). When a burst of orphaned extensions fills it, the stale
// pairings are dropped wholesale: losing trace parentage for in-flight
// requests of one pathological burst is better than refusing every
// new pairing for the rest of the connection's life.
type traceCache struct {
	m map[uint64]obs.SpanContext
}

func (tc *traceCache) put(seq uint64, sc obs.SpanContext) {
	if tc.m == nil {
		tc.m = make(map[uint64]obs.SpanContext)
	}
	if len(tc.m) >= maxPendingTrace {
		clear(tc.m)
	}
	tc.m[seq] = sc
}

func (tc *traceCache) take(seq uint64) (sc obs.SpanContext) {
	if len(tc.m) == 0 {
		return
	}
	sc = tc.m[seq]
	delete(tc.m, seq)
	return
}

func (sc *ServerConn) readLoop() {
	var pending traceCache
	inlineFast := sc.srv.inlineFast
	for {
		// Large requests arrive in pooled buffers that finish recycles
		// once the response is written.
		f, reused, err := sc.conn.ReadFramePooled()
		if err != nil {
			close(sc.work)
			sc.reqWG.Wait()
			return
		}
		switch f.Kind {
		case wire.KindRequest:
		case wire.KindTraceExt:
			// DecodeTraceExt copies the IDs out, so a reused payload is
			// safe to pair here.
			if trace, span, ok := wire.DecodeTraceExt(f.Payload); ok {
				pending.put(f.Seq, obs.SpanContext{TraceID: trace, SpanID: span})
			}
			continue
		default:
			continue // ignore stray frames
		}
		trace := pending.take(f.Seq)
		if inlineFast != nil && inlineFast(f.Method, len(f.Payload)) {
			sc.dispatch(f, trace, sc.srv.inlineHandler)
			continue
		}
		req := request{f: *f, trace: trace}
		if reused && len(f.Payload) > 0 {
			// The worker outlives this iteration; give it its own copy of
			// the connection-owned payload (a small one fits wire.GetBuf's
			// buffers). The handler does not keep it (see Handler).
			req.f.Payload, req.owned = append(wire.GetBuf(), f.Payload...), true
		}
		select {
		case sc.work <- req:
		default:
			// No worker is parked: never wait for one.
			sc.reqWG.Add(1)
			go sc.worker(req)
		}
	}
}

// worker runs req, then parks as the connection's worker if that place
// is free and runs what the read loop hands it, until the loop ends.
// It exits at once when another worker is already parked.
func (sc *ServerConn) worker(req request) {
	defer sc.reqWG.Done()
	for {
		sc.dispatch(&req.f, req.trace, sc.srv.handler)
		if req.owned {
			wire.PutBuf(req.f.Payload)
		}
		if !sc.parked.CompareAndSwap(false, true) {
			return
		}
		var ok bool
		if req, ok = <-sc.work; !ok {
			return
		}
		sc.parked.Store(false)
	}
}

// dispatchState carries the pre-handler telemetry snapshot from begin
// to finish. Passed by value so the uninstrumented path allocates
// nothing.
type dispatchState struct {
	ctx    context.Context
	stats  *obs.MethodStats
	tracer *obs.Tracer
	start  time.Time
	spanID uint64
}

// begin opens one request's dispatch: per-method stats, the server-side
// span, and the handler context.
func (sc *ServerConn) begin(f *wire.Frame, trace obs.SpanContext) dispatchState {
	st := dispatchState{ctx: context.Background()}
	metrics, tracer := sc.srv.metrics, sc.srv.tracer
	if !obs.On() {
		metrics, tracer = nil, nil
	}
	if metrics != nil || (tracer != nil && trace.Valid()) {
		st.start = time.Now()
	}
	if metrics != nil {
		st.stats = metrics.Method(f.Method)
		st.stats.Requests.Inc()
		st.stats.BytesIn.Add(int64(len(f.Payload)))
		st.stats.InFlight.Inc()
	}
	if trace.Valid() {
		if tracer != nil {
			// One server-side span per traced request, child of the
			// client's span; the handler ctx carries it onward.
			st.tracer = tracer
			st.spanID = obs.NewID()
			st.ctx = obs.ContextWithSpan(st.ctx, obs.SpanContext{TraceID: trace.TraceID, SpanID: st.spanID})
		} else {
			// No local recorder: pass the inbound span through untouched
			// so downstream hops stay in the trace.
			st.ctx = obs.ContextWithSpan(st.ctx, trace)
		}
	}
	return st
}

// dispatch runs one request through h — the inline handler on the read
// pump, or the regular handler on a worker goroutine — and writes its
// response.
func (sc *ServerConn) dispatch(f *wire.Frame, trace obs.SpanContext, h Handler) {
	st := sc.begin(f, trace)
	resp, err := sc.callHandler(st.ctx, h, f)
	sc.finish(f, trace, st, resp, err)
}

// finish writes the response frame and closes out the telemetry opened
// by begin.
func (sc *ServerConn) finish(f *wire.Frame, trace obs.SpanContext, st dispatchState, resp Response, err error) {
	// The release hook rides on the frame so it fires exactly once on
	// every write path — success, staging error, or dead connection —
	// which is what lets handlers lease block memory into Vec.
	out := wire.Frame{Kind: wire.KindResponse, Seq: f.Seq, Release: resp.Release}
	if err != nil {
		out.Code = core.CodeOf(err)
		if out.Code == core.CodeOther {
			out.Payload = []byte(err.Error())
		} else {
			// Sentinel errors may carry a redirect/diagnostic payload.
			out.Payload = resp.Payload
			out.PayloadVec = resp.Vec
		}
	} else {
		out.Payload = resp.Payload
		out.PayloadVec = resp.Vec
	}
	respBytes := out.PayloadLen()
	if werr := sc.conn.WriteFrame(&out); werr != nil && !errors.Is(werr, net.ErrClosed) {
		sc.srv.log.Debug("rpc: response write failed", "err", werr)
		if errors.Is(werr, core.ErrTooLarge) {
			// Refused before a byte was written, so the session is
			// intact: answer with the typed error rather than leave the
			// caller to wait out its deadline.
			err, respBytes = werr, 0
			out = wire.Frame{Kind: wire.KindResponse, Seq: f.Seq, Code: core.CodeTooLarge}
			if werr = sc.conn.WriteFrame(&out); werr != nil {
				sc.srv.log.Debug("rpc: response write failed", "err", werr)
			}
		}
	}

	if st.tracer != nil && trace.Valid() {
		ev := obs.SpanEvent{
			TraceID:  trace.TraceID,
			SpanID:   st.spanID,
			ParentID: trace.SpanID,
			Name:     "srv:" + methodLabel(f.Method),
			Peer:     sc.conn.RemoteAddr().String(),
			Start:    st.start,
			Duration: time.Since(st.start),
		}
		if err != nil {
			ev.Err = err.Error()
		}
		st.tracer.Record(ev)
	}
	if st.stats != nil {
		st.stats.InFlight.Dec()
		st.stats.Latency.ObserveDuration(time.Since(st.start))
		st.stats.BytesOut.Add(int64(respBytes))
		if err != nil {
			st.stats.Errors.Inc()
		}
	}
	// WriteFrame consumed the contiguous payload (see the Response
	// ownership contract); recycle it for the next response. Vec
	// segments are the handler's memory — never pooled here.
	wire.PutBuf(resp.Payload)
	// The request is over too: the handler has returned and its response
	// has left, so nothing may reference the request payload any more
	// (see Handler) and a large frame's buffer goes back to its pool.
	wire.RecycleFrame(f)
}

// callHandler runs h, turning a panic into an ErrClosed answer for this
// request alone.
func (sc *ServerConn) callHandler(ctx context.Context, h Handler, f *wire.Frame) (resp Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			sc.srv.log.Error("rpc: handler panic", "method", f.Method, "panic", r)
			resp, err = Response{}, core.ErrClosed
		}
	}()
	return h(ctx, sc, f.Method, f.Payload)
}
