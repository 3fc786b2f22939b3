package server

import (
	"sync"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
)

// subRegistry implements the data plane's subscription map (§4.2.2):
// data-structure operations → client handles that want notifications.
type subRegistry struct {
	mu     sync.Mutex
	nextID uint64
	subs   map[uint64]*subscription
	// byBlock indexes subscriptions for fast notify on the data path.
	byBlock map[core.BlockID]map[uint64]*subscription
}

type subscription struct {
	id     uint64
	conn   *rpc.ServerConn
	ops    map[core.OpType]bool
	blocks []core.BlockID
}

func (r *subRegistry) init() {
	r.subs = make(map[uint64]*subscription)
	r.byBlock = make(map[core.BlockID]map[uint64]*subscription)
}

// add registers a subscription and returns its ID.
func (r *subRegistry) add(conn *rpc.ServerConn, blocks []core.BlockID, ops []core.OpType) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	sub := &subscription{
		id:     r.nextID,
		conn:   conn,
		ops:    make(map[core.OpType]bool, len(ops)),
		blocks: blocks,
	}
	for _, op := range ops {
		sub.ops[op] = true
	}
	for _, b := range blocks {
		m := r.byBlock[b]
		if m == nil {
			m = make(map[uint64]*subscription)
			r.byBlock[b] = m
		}
		m[sub.id] = sub
	}
	r.subs[sub.id] = sub
	return sub.id
}

// count reports the number of live subscriptions (telemetry).
func (r *subRegistry) count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.subs))
}

// remove drops one subscription.
func (r *subRegistry) remove(id uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sub, ok := r.subs[id]
	if !ok {
		return
	}
	delete(r.subs, id)
	for _, b := range sub.blocks {
		delete(r.byBlock[b], id)
		if len(r.byBlock[b]) == 0 {
			delete(r.byBlock, b)
		}
	}
}

// dropConn removes every subscription held by a disconnected client.
func (r *subRegistry) dropConn(conn *rpc.ServerConn) {
	r.mu.Lock()
	var ids []uint64
	for id, sub := range r.subs {
		if sub.conn == conn {
			ids = append(ids, id)
		}
	}
	r.mu.Unlock()
	for _, id := range ids {
		r.remove(id)
	}
}

// targets returns the (subID, conn) pairs subscribed to op on block.
func (r *subRegistry) targets(block core.BlockID, op core.OpType) []*subscription {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.byBlock[block]
	if len(m) == 0 {
		return nil
	}
	out := make([]*subscription, 0, len(m))
	for _, sub := range m {
		if sub.ops[op] {
			out = append(out, sub)
		}
	}
	return out
}

// notify pushes a notification to every matching subscriber. Called on
// the data path after a successful operation; pushes are best-effort.
func (s *Server) notify(block core.BlockID, op core.OpType, data []byte) {
	targets := s.subs.targets(block, op)
	if len(targets) == 0 {
		return
	}
	payload, err := codec.Marshal(proto.Notification{Block: block, Op: op, Data: data})
	if err != nil {
		return
	}
	for _, sub := range targets {
		if err := sub.conn.Push(sub.id, payload); err != nil {
			s.log.Debug("server: notification push failed", "sub", sub.id, "err", err)
		}
	}
}
