package rpc

import (
	"context"
	"errors"
	"fmt"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/proto"
	"jiffy/internal/wire"
)

// Stubs go through Invoke and servers through Handle, the only two
// places a control body is encoded (internal/lint's TestOneCodec).

// Caller is what Invoke sends a call through: one session (*Client) or
// a replicated controller group (*Group). The answer may come back in
// borrowed memory (see Client.CallBorrowedContext).
type Caller interface {
	CallBorrowedContext(ctx context.Context, method uint16, payload []byte) (out []byte, pooled bool, err error)
}

// Invoke performs the control call m: encode req, send it through c,
// decode the answer. The descriptor fixes both message types, so a
// mispaired call is a compile error. The request is encoded into a
// pooled buffer and the answer read from a borrowed one; both go back
// to the pool before Invoke returns (the decoder never aliases its
// input, and an error answer's text is copied into the error). The
// request is encoded from, and the answer decoded into, a box of the
// method's free list (proto.Call), so neither moves to the heap.
//
// An error answer whose text says more than the error its wire code
// maps to (core.ErrOf) — "controller: dag parent "missing": jiffy: not
// found" for ErrNotFound — comes back as an answerError: the callee's
// text, unwrapping to that error, so errors.Is still holds.
func Invoke[Req, Resp any](ctx context.Context, c Caller, m proto.Method[Req, Resp], req Req) (resp Resp, err error) {
	call := m.GetCall()
	defer m.PutCall(call)
	call.Req = req
	payload, err := codec.Append(wire.GetBuf(), &call.Req)
	if err != nil {
		wire.PutBuf(payload)
		return resp, err
	}
	out, pooled, err := c.CallBorrowedContext(ctx, m.ID, payload)
	wire.PutBuf(payload)
	switch {
	case err == nil:
		err = codec.Unmarshal(out, &call.Resp)
	case len(out) > 0 && string(out) != err.Error():
		err = &answerError{text: string(out), err: err}
	}
	if pooled {
		wire.PutBuf(out)
	}
	return call.Resp, err
}

// answerError is a control call's error answer: the callee's text over
// the error its wire code maps to.
type answerError struct {
	text string
	err  error
}

func (e *answerError) Error() string { return e.text }
func (e *answerError) Unwrap() error { return e.err }

// InvokeAt is Invoke on p's pooled session for addr. A session found
// dead (a connection-class error) is dropped so the next call re-dials
// instead of reusing it.
func InvokeAt[Req, Resp any](ctx context.Context, p *Pool, addr string, m proto.Method[Req, Resp], req Req) (resp Resp, err error) {
	cl, err := p.Get(addr)
	if err != nil {
		return resp, err
	}
	resp, err = Invoke(ctx, cl, m, req)
	if errors.Is(err, core.ErrClosed) {
		p.Drop(addr)
	}
	return resp, err
}

// Table is a server's control-method table: method id → decode, typed
// implementation, encode. The zero value is empty and ready for Handle.
// It is filled at construction and read-only afterwards.
type Table struct {
	m map[uint16]func(context.Context, *ServerConn, []byte) ([]byte, error)
}

// Handle registers fn as the implementation of m in t. A returned error
// travels as its wire code with its text as the body, from which
// core.ErrOf rebuilds the typed errors (NotLeaderError's hint,
// ThrottleError's retry-after).
//
// The request is decoded into, and the answer encoded from, a box of
// the method's free list (proto.Call), zeroed before it goes back.
func Handle[Req, Resp any](t *Table, m proto.Method[Req, Resp], fn func(context.Context, *ServerConn, Req) (Resp, error)) {
	if t.m == nil {
		t.m = make(map[uint16]func(context.Context, *ServerConn, []byte) ([]byte, error))
	}
	if _, dup := t.m[m.ID]; dup {
		panic("rpc: method " + m.Name + " registered twice")
	}
	t.m[m.ID] = func(ctx context.Context, conn *ServerConn, payload []byte) (out []byte, err error) {
		b := m.GetCall()
		defer m.PutCall(b)
		if err = codec.Unmarshal(payload, &b.Req); err != nil {
			return nil, err
		}
		if b.Resp, err = fn(ctx, conn, b.Req); err != nil {
			return []byte(err.Error()), err
		}
		// finish returns the buffer to the pool once the answer is
		// written (see Response).
		return codec.Append(wire.GetBuf(), &b.Resp)
	}
}

// Dispatch serves one request from the table; an id nobody registered
// is answered with ErrNotFound.
func (t *Table) Dispatch(ctx context.Context, conn *ServerConn, method uint16, payload []byte) ([]byte, error) {
	h, ok := t.m[method]
	if !ok {
		return nil, fmt.Errorf("rpc: unknown method %#x: %w", method, core.ErrNotFound)
	}
	return h(ctx, conn, payload)
}
