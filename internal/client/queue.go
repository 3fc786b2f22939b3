package client

import (
	"context"
	"sync"

	"jiffy/internal/core"
	"jiffy/internal/ds"
)

// Queue is the client handle for a Jiffy FIFO queue (§5.2). The client
// caches the head and tail segments ("the controller only stores the
// head and the tail blocks ... which the client caches and updates");
// redirects from drained/sealed segments walk the cache forward without
// a controller round trip.
type Queue struct {
	h *handle

	mu         sync.Mutex
	head, tail ds.PartitionEntry // zero until seeded from the map
}

// Path returns the handle's address prefix.
func (q *Queue) Path() core.Path { return q.h.path }

// route returns the cached end op works on — enqueues the tail, the
// rest the head — seeding both from the map first when there is no
// cache.
func (q *Queue) route(op core.OpType, _ string, _ int) (ds.PartitionEntry, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head.Info.Server == "" {
		m := q.h.snapshot()
		h, ok1 := m.Head()
		t, ok2 := m.Tail()
		if !ok1 || !ok2 {
			return ds.PartitionEntry{}, core.ErrNotFound
		}
		q.head, q.tail = h, t
	}
	if op == core.OpEnqueue {
		return q.tail, nil
	}
	return q.head, nil
}

// forget drops the cached ends: the next route seeds them from the map
// that replaced the one they came from.
func (q *Queue) forget() {
	q.mu.Lock()
	q.head, q.tail = ds.PartitionEntry{}, ds.PartitionEntry{}
	q.mu.Unlock()
}

// redirected follows a link: the tail sealed, or the head segment
// drained, and next is its successor. The map, when it already knows
// the successor, supplies its replica chain.
func (q *Queue) redirected(op core.OpType, _ int, next core.BlockInfo) {
	e := ds.PartitionEntry{Info: next}
	m := q.h.snapshot()
	for _, known := range m.Blocks {
		if known.Info == next {
			e = known
		}
	}
	q.mu.Lock()
	if op == core.OpEnqueue {
		q.tail = e
	} else {
		q.head = e
	}
	q.mu.Unlock()
}

// Enqueue appends an item to the queue tail. On a bounded queue at its
// block limit it reports ErrBlockFull as backpressure to the producer.
func (q *Queue) Enqueue(ctx context.Context, item []byte) error {
	_, _, err := q.h.run(ctx, core.OpEnqueue, "", 0, [][]byte{item}, nil)
	return err
}

// Dequeue removes and returns the oldest item; returns ErrEmpty when
// the queue has no pending items.
func (q *Queue) Dequeue(ctx context.Context) ([]byte, error) {
	var res [1][]byte
	return one(q.h.run(ctx, core.OpDequeue, "", 0, nil, res[:0]))
}

// Peek returns the oldest pending item without consuming it; returns
// ErrEmpty when the queue has no pending items. Peeks follow the same
// redirect chain as dequeues, and on the server they share the
// segment's read lock, so concurrent peeks never serialize against
// each other.
func (q *Queue) Peek(ctx context.Context) ([]byte, error) {
	var res [1][]byte
	return one(q.h.run(ctx, core.OpQueuePeek, "", 0, nil, res[:0]))
}

// Subscribe registers for notifications on the queue's blocks —
// dataflow consumers subscribe to enqueue to learn when channel data is
// available (§5.2).
func (q *Queue) Subscribe(ctx context.Context, ops ...core.OpType) (*Listener, error) {
	return q.h.c.subscribe(ctx, q.h, ops)
}
