package ds

import (
	"encoding/binary"
	"fmt"
	"sync"

	"jiffy/internal/codec"
	"jiffy/internal/core"
)

// Queue is the partition engine for one segment of a Jiffy FIFO queue
// (§5.2). A queue is a linked list of blocks: enqueues go to the tail
// segment, dequeues to the head segment. Each segment stores its items
// plus a pointer to the next segment; when a drained segment has a
// successor, dequeues are redirected there (and the controller reclaims
// the empty segment).
//
// Invariant: item bytes are immutable once stored — Enqueue copies the
// item in, and nothing ever writes through a stored slice. Dequeue and
// Peek may therefore return the stored slice itself (no copy): dequeue
// transfers ownership outright, and a peeked alias stays valid even if
// the item is dequeued, snapshotted or the segment reclaimed while the
// response is in flight, because those drop references rather than
// scribble bytes.
type Queue struct {
	mu    sync.RWMutex
	items [][]byte
	head  int // index of the next item to dequeue
	bytes int // payload bytes of pending items
	cap   int

	// next links to the successor segment; zero Info.Server means none.
	next core.BlockInfo
	// sealed marks the segment as no longer the tail: enqueues must go
	// to next.
	sealed bool
}

// NewQueue creates an empty queue segment of the given capacity.
func NewQueue(capacity int) *Queue {
	return &Queue{cap: capacity}
}

// Type implements Partition.
func (q *Queue) Type() core.DSType { return core.DSQueue }

// Capacity implements Partition.
func (q *Queue) Capacity() int {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.cap
}

// Bytes implements Partition: payload bytes of items not yet dequeued.
func (q *Queue) Bytes() int {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.bytes
}

// Len returns the number of pending items in this segment.
func (q *Queue) Len() int {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return len(q.items) - q.head
}

// SetNext links the successor segment and seals this one. Called by the
// memory server when the controller extends the queue (Fig. 8 applied
// to queues: overload → allocate → link).
func (q *Queue) SetNext(next core.BlockInfo) {
	q.mu.Lock()
	q.next = next
	q.sealed = true
	q.mu.Unlock()
}

// Next returns the successor link.
func (q *Queue) Next() (core.BlockInfo, bool) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.next, q.next.Server != ""
}

// RedirectPayload encodes a block location in the redirect wire form:
// u64 block id + server string. Shared by ErrRedirect replies and the
// OpQueueSetNext argument.
func RedirectPayload(b core.BlockInfo) []byte {
	return redirectPayload(b)
}

// redirectPayload encodes the successor block for ErrRedirect replies:
// u64 block id + server string.
func redirectPayload(b core.BlockInfo) []byte {
	buf := make([]byte, 8+len(b.Server))
	binary.BigEndian.PutUint64(buf[:8], uint64(b.ID))
	copy(buf[8:], b.Server)
	return buf
}

// ParseRedirect decodes an ErrRedirect payload.
func ParseRedirect(data []byte) (core.BlockInfo, error) {
	if len(data) < 8 {
		return core.BlockInfo{}, fmt.Errorf("ds: short redirect payload")
	}
	return core.BlockInfo{
		ID:     core.BlockID(binary.BigEndian.Uint64(data[:8])),
		Server: string(data[8:]),
	}, nil
}

// Apply implements Partition.
//
//	OpEnqueue: args[0]=item → [] ; ErrBlockFull when the segment cannot
//	           hold the item, ErrRedirect(next) when sealed.
//	OpDequeue: → [item] ; ErrRedirect(next) when drained with successor,
//	           ErrEmpty when drained without one.
func (q *Queue) Apply(op core.OpType, args [][]byte) ([][]byte, error) {
	switch op {
	case core.OpEnqueue:
		if len(args) != 1 {
			return nil, fmt.Errorf("ds: enqueue wants 1 arg, got %d", len(args))
		}
		return nil, q.Enqueue(args[0])
	case core.OpDequeue:
		item, err := q.Dequeue()
		if err != nil {
			return nil, err
		}
		return [][]byte{item}, nil
	case core.OpQueuePeek:
		item, err := q.Peek()
		if err != nil {
			return nil, err
		}
		return [][]byte{item}, nil
	case core.OpQueueSetNext:
		if len(args) != 1 {
			return nil, fmt.Errorf("ds: setnext wants 1 arg, got %d", len(args))
		}
		next, err := ParseRedirect(args[0])
		if err != nil {
			return nil, err
		}
		q.SetNext(next)
		return nil, nil
	case core.OpUsage:
		return applyAnswer(q, op, args)
	default:
		return nil, fmt.Errorf("ds: queue: %w (%v)", core.ErrWrongType, op)
	}
}

// appendAnswer is the appending form (AppendAnswer) of the usage.
func (q *Queue) appendAnswer(dst []byte, op core.OpType, _ [][]byte) ([]byte, bool, error) {
	if op != core.OpUsage {
		return dst, false, nil
	}
	return appendU64(dst, uint64(q.Bytes())), true, nil
}

// redirectError wraps ErrRedirect with the successor's location so the
// RPC layer can ship it to the client as the response payload.
type redirectError struct{ payload []byte }

func (e *redirectError) Error() string { return core.ErrRedirect.Error() }
func (e *redirectError) Unwrap() error { return core.ErrRedirect }

// RedirectPayloadOf extracts the payload from a redirect error produced
// by this package (nil if err is not one).
func RedirectPayloadOf(err error) []byte {
	if re, ok := err.(*redirectError); ok {
		return re.payload
	}
	return nil
}

// Enqueue appends an item to the segment.
func (q *Queue) Enqueue(item []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.sealed {
		if q.next.Server != "" {
			return &redirectError{payload: redirectPayload(q.next)}
		}
		return core.ErrBlockFull
	}
	if len(item) > q.cap {
		return fmt.Errorf("ds: item of %d bytes exceeds segment capacity %d: %w",
			len(item), q.cap, core.ErrTooLarge)
	}
	if q.bytes+len(item) > q.cap {
		return core.ErrBlockFull
	}
	q.items = append(q.items, append([]byte(nil), item...))
	q.bytes += len(item)
	return nil
}

// Dequeue removes and returns the oldest pending item.
func (q *Queue) Dequeue() ([]byte, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head >= len(q.items) {
		if q.next.Server != "" {
			return nil, &redirectError{payload: redirectPayload(q.next)}
		}
		return nil, core.ErrEmpty
	}
	item := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	q.bytes -= len(item)
	// Compact once everything has been consumed.
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return item, nil
}

// Peek returns the oldest pending item without removing it; concurrent
// peeks share the read lock. The returned slice aliases the stored
// item (safe: see the immutability invariant on Queue).
func (q *Queue) Peek() ([]byte, error) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.head >= len(q.items) {
		if q.next.Server != "" {
			return nil, &redirectError{payload: redirectPayload(q.next)}
		}
		return nil, core.ErrEmpty
	}
	return q.items[q.head], nil
}

// ApplyView implements ViewReader for OpQueuePeek: the returned value
// aliases the stored item with no lease needed (immutability
// invariant).
func (q *Queue) ApplyView(op core.OpType, args, dst [][]byte) (View, bool, error) {
	if op != core.OpQueuePeek {
		return View{}, false, nil
	}
	item, err := q.Peek()
	if err != nil {
		return View{}, true, err
	}
	return View{Vals: append(dst, item)}, true, nil
}

// Drained reports whether the segment is sealed and fully consumed —
// the condition under which the controller reclaims it.
func (q *Queue) Drained() bool {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.sealed && q.head >= len(q.items)
}

// queueSnapshot is the serialized form of a queue segment: its pending
// items, whose lengths sum to its byte usage, its capacity and its link.
type queueSnapshot struct {
	Items  [][]byte
	Cap    int
	Next   core.BlockInfo
	Sealed bool
}

// Snapshot implements Partition.
func (q *Queue) Snapshot() ([]byte, error) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return codec.Marshal(&queueSnapshot{Items: q.items[q.head:], Cap: q.cap, Next: q.next, Sealed: q.sealed})
}

// Restore implements Partition. A snapshot whose items exceed its
// capacity is refused; on any error the segment is left as it was.
func (q *Queue) Restore(snapshot []byte) error {
	var s queueSnapshot
	if err := codec.Unmarshal(snapshot, &s); err != nil {
		return fmt.Errorf("ds: queue snapshot: %w", err)
	}
	bytes := 0
	for _, it := range s.Items {
		bytes += len(it)
	}
	if bytes > s.Cap {
		return fmt.Errorf("ds: queue snapshot of %d bytes exceeds its capacity %d", bytes, s.Cap)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.items = s.Items
	q.head = 0
	q.bytes = bytes
	q.cap = s.Cap
	q.next = s.Next
	q.sealed = s.Sealed
	return nil
}
