package rpc

import (
	"context"
	"errors"
	"fmt"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/proto"
)

// Stubs go through Invoke and servers through Handle, the only two
// places a control body is encoded (internal/lint's TestOneCodec).

// Caller is what Invoke sends a call through: one session (*Client) or
// a replicated controller group (*Group).
type Caller interface {
	CallContext(ctx context.Context, method uint16, payload []byte) ([]byte, error)
}

// Invoke performs the control call m: encode req, send it through c,
// decode the answer. The descriptor fixes both message types, so a
// mispaired call is a compile error.
func Invoke[Req, Resp any](ctx context.Context, c Caller, m proto.Method[Req, Resp], req Req) (resp Resp, err error) {
	payload, err := codec.Marshal(&req)
	if err != nil {
		return resp, err
	}
	out, err := c.CallContext(ctx, m.ID, payload)
	if err != nil {
		return resp, err
	}
	return resp, codec.Unmarshal(out, &resp)
}

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
func Handle[Req, Resp any](t *Table, m proto.Method[Req, Resp], fn func(context.Context, *ServerConn, Req) (Resp, error)) {
	if t.m == nil {
		t.m = make(map[uint16]func(context.Context, *ServerConn, []byte) ([]byte, error))
	}
	if _, dup := t.m[m.ID]; dup {
		panic("rpc: method " + m.Name + " registered twice")
	}
	t.m[m.ID] = func(ctx context.Context, conn *ServerConn, payload []byte) ([]byte, error) {
		var req Req
		if err := codec.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		resp, err := fn(ctx, conn, req)
		if err != nil {
			return []byte(err.Error()), err
		}
		return codec.Marshal(&resp)
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
