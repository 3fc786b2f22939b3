package client

import (
	"context"
	"fmt"
	"sync"
	"time"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
)

// pushRouter dispatches push frames on one data-plane connection to
// the listeners that subscribed through it. conn records the session
// the router is installed on: the pool replaces dead sessions
// transparently, so dataConn must re-install routing whenever the
// session it gets back is not the one the router was bound to.
type pushRouter struct {
	conn  *rpc.Client
	mu    sync.Mutex
	chans map[uint64]chan proto.Notification
}

func (r *pushRouter) route(subID uint64, payload []byte) {
	var n proto.Notification
	if err := codec.Unmarshal(payload, &n); err != nil {
		return
	}
	r.mu.Lock()
	ch := r.chans[subID]
	r.mu.Unlock()
	if ch != nil {
		select {
		case ch <- n:
		default: // listener buffer full; drop (best-effort semantics)
		}
	}
}

// dataConn returns the pooled connection to a memory server with its
// push router installed. A cached session that has died (server crash,
// forced disconnect) is evicted and re-dialed transparently.
func (c *Client) dataConn(addr string) (*rpc.Client, error) {
	conn, err := c.pool.Get(addr)
	if err != nil {
		return nil, err
	}
	if conn.IsClosed() {
		c.dropData(addr)
		conn, err = c.pool.Get(addr)
		if err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	if r, ok := c.routers[addr]; !ok || r.conn != conn {
		// First use of this address, or the pool evicted a dead session
		// and handed back a fresh one: (re)install push routing. Old
		// subscriptions died with the old session; Listener.Resync
		// re-registers them and repopulates the new router.
		router := &pushRouter{conn: conn, chans: make(map[uint64]chan proto.Notification)}
		c.routers[addr] = router
		conn.OnPush(router.route)
	}
	c.mu.Unlock()
	return conn, nil
}

// dropData evicts a dead data-plane session and its push router; the
// next dataConn re-dials and re-installs routing. Live subscriptions
// over the old session are gone server-side; Listener.Resync detects
// the dead session and re-subscribes.
func (c *Client) dropData(addr string) {
	c.pool.Drop(addr)
	c.mu.Lock()
	delete(c.routers, addr)
	c.mu.Unlock()
}

func (c *Client) router(addr string) *pushRouter {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.routers[addr]
}

// Listener receives notifications for one subscription
// (listener = ds.subscribe(op) in Table 1). When the underlying data
// structure scales, the listener transparently extends its
// subscriptions to the new blocks (see Resync).
type Listener struct {
	c   *Client
	h   *handle
	ops []core.OpType
	ch  chan proto.Notification

	mu sync.Mutex
	// subs records (server, subID) pairs for unsubscription.
	subs []serverSub
	// covered tracks the blocks already subscribed.
	covered map[core.BlockID]bool
}

type serverSub struct {
	addr  string
	subID uint64
	// blocks covered through this subscription; uncovered again if the
	// session dies so Resync re-subscribes them.
	blocks []core.BlockID
	// conn is the session the subscription was registered over.
	conn *rpc.Client
}

// subscribe registers op-type subscriptions on every server currently
// hosting blocks of the handle's data structure. ctx bounds the
// initial registration round trips; the listener itself outlives it.
func (c *Client) subscribe(ctx context.Context, h *handle, ops []core.OpType) (*Listener, error) {
	l := &Listener{
		c:       c,
		h:       h,
		ops:     ops,
		ch:      make(chan proto.Notification, 1024),
		covered: make(map[core.BlockID]bool),
	}
	if err := l.subscribeNew(ctx, h.snapshot()); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// subscribeNew subscribes to any blocks of m not yet covered.
func (l *Listener) subscribeNew(ctx context.Context, m ds.PartitionMap) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	byServer := make(map[string][]core.BlockID)
	for _, e := range m.Blocks {
		if !l.covered[e.Info.ID] {
			byServer[e.Info.Server] = append(byServer[e.Info.Server], e.Info.ID)
		}
	}
	for addr, blocks := range byServer {
		conn, err := l.c.dataConn(addr)
		if err != nil {
			return err
		}
		resp, err := rpc.Invoke(ctx, conn, proto.Subscribe, proto.SubscribeReq{Blocks: blocks, Ops: l.ops})
		if err != nil {
			return err
		}
		router := l.c.router(addr)
		router.mu.Lock()
		router.chans[resp.SubID] = l.ch
		router.mu.Unlock()
		l.subs = append(l.subs, serverSub{addr: addr, subID: resp.SubID, blocks: blocks, conn: conn})
		for _, b := range blocks {
			l.covered[b] = true
		}
	}
	return nil
}

// pruneDead drops subscriptions whose sessions have died (server crash
// or forced disconnect) and marks their blocks uncovered, so the next
// subscribeNew re-registers them over a fresh connection — the server
// side dropped them on disconnect.
func (l *Listener) pruneDead() {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.subs[:0]
	for _, s := range l.subs {
		if s.conn.IsClosed() {
			for _, b := range s.blocks {
				delete(l.covered, b)
			}
			continue
		}
		kept = append(kept, s)
	}
	l.subs = kept
}

// Resync refreshes the partition map and extends the subscription to
// any blocks added by elastic scaling since Subscribe; subscriptions
// lost to dead connections are re-established.
func (l *Listener) Resync() error {
	ctx := context.Background()
	l.pruneDead()
	if err := l.h.refresh(ctx); err != nil {
		return err
	}
	return l.subscribeNew(ctx, l.h.snapshot())
}

// Get waits up to timeout for the next notification
// (listener.get(timeout) in Table 1). On timeout, the listener resyncs
// its block coverage before reporting ErrTimeout, so a consumer polling
// Get in a loop keeps up with structures that scale under it.
func (l *Listener) Get(timeout time.Duration) (proto.Notification, error) {
	select {
	case n := <-l.ch:
		return n, nil
	case <-time.After(timeout):
		l.Resync()
		return proto.Notification{}, fmt.Errorf("client: notification: %w", core.ErrTimeout)
	}
}

// TryGet returns a pending notification without blocking.
func (l *Listener) TryGet() (proto.Notification, bool) {
	select {
	case n := <-l.ch:
		return n, true
	default:
		return proto.Notification{}, false
	}
}

// Close unsubscribes from every server, over the session each
// subscription was registered on. A subscription whose session has
// died is skipped: the server dropped it on disconnect, and re-dialing
// only to cancel it could block on an unreachable host.
func (l *Listener) Close() {
	l.mu.Lock()
	subs := l.subs
	l.subs = nil
	l.mu.Unlock()
	for _, s := range subs {
		if router := l.c.router(s.addr); router != nil {
			router.mu.Lock()
			delete(router.chans, s.subID)
			router.mu.Unlock()
		}
		if !s.conn.IsClosed() {
			// Best effort: the session may die mid-call, which drops the
			// subscription server-side anyway.
			_, _ = rpc.Invoke(context.Background(), s.conn, proto.Unsubscribe, proto.UnsubscribeReq{SubID: s.subID})
		}
	}
}
