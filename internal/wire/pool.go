package wire

import (
	"math/bits"
	"sync"
	"unsafe"

	"jiffy/internal/core"
)

// FreeList is a bounded free list of T, a pointer type: the scratch one
// owner — a connection, a client, a method descriptor — lends the
// requests it serves. A collection does not empty it, as it empties a
// sync.Pool, whose next use after every collection re-allocates its
// per-P array and chain element, so a steady stream of requests
// allocates nothing across collections too. It keeps at most the count
// Init gave it, so what an idle owner pins is bounded; the types it
// holds bound their own size (a vector past its cap is dropped, not
// kept). Safe for concurrent use. The zero FreeList keeps nothing.
type FreeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// Init makes l keep up to n items. Call it before l is shared.
func (l *FreeList[T]) Init(n int) { l.items = make([]T, 0, n) }

// Get takes an item off the list; ok is false when it is empty, and
// the caller makes a new one.
func (l *FreeList[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	if n := len(l.items); n > 0 {
		var zero T
		v, ok = l.items[n-1], true
		l.items[n-1] = zero
		l.items = l.items[:n-1]
	}
	l.mu.Unlock()
	if ok {
		debugItemGet(v)
	}
	return v, ok
}

// Put hands v back, or leaves it to the collector when the list is
// full. The caller must not touch v again.
func (l *FreeList[T]) Put(v T) {
	debugItemPut(v)
	l.mu.Lock()
	kept := len(l.items) < cap(l.items)
	if kept {
		l.items = append(l.items, v)
	}
	l.mu.Unlock()
	if !kept {
		debugItemDropped(v)
	}
}

// maxPooledBuf caps the size of buffers a BufList keeps, so one giant
// frame cannot pin megabytes of idle memory.
const maxPooledBuf = core.MB

// minPooledBuf is the capacity a BufList makes buffers with, and the
// least it keeps: a smaller one (a handler's few-byte answer, an error
// text) would make the next caller grow it again.
const minPooledBuf = 4096

// BufList is a FreeList of byte buffers, bounded by count and by the
// bytes it holds: the staging buffers of requests and responses. A
// slice fits the list as it is, so a buffer costs no box to keep, as
// it would in a sync.Pool's interface slot. The zero BufList keeps
// nothing: its Get makes a new buffer every time.
type BufList struct {
	mu              sync.Mutex
	bufs            [][]byte
	bytes, maxBytes int
}

// Init makes l keep up to n buffers and maxBytes bytes of capacity.
// Call it before l is shared.
func (l *BufList) Init(n, maxBytes int) {
	l.bufs, l.maxBytes = make([][]byte, 0, n), maxBytes
}

// Get returns an empty buffer. Append into it, use the result, then
// hand it back with Put.
func (l *BufList) Get() []byte {
	l.mu.Lock()
	n := len(l.bufs)
	if n == 0 {
		l.mu.Unlock()
		return make([]byte, 0, minPooledBuf)
	}
	b := l.bufs[n-1]
	l.bufs[n-1] = nil
	l.bufs = l.bufs[:n-1]
	l.bytes -= cap(b)
	l.mu.Unlock()
	debugTrackGet(b)
	return b[:0]
}

// Put hands a buffer back. The caller must not touch b afterwards.
// Buffers that grew beyond maxPooledBuf, or are smaller than the list
// makes them (minPooledBuf), are dropped, as is any that would take the
// list past its bounds; nil slices are ignored, so Put is safe on any
// response or request slice whose ownership has ended.
func (l *BufList) Put(b []byte) {
	if cap(b) < minPooledBuf || cap(b) > maxPooledBuf {
		return
	}
	debugTrackPut(b)
	l.mu.Lock()
	kept := len(l.bufs) < cap(l.bufs) && l.bytes+cap(b) <= l.maxBytes
	if kept {
		l.bufs = append(l.bufs, b[:0])
		l.bytes += cap(b)
	}
	l.mu.Unlock()
	if !kept {
		debugUntrack(b)
	}
}

// shared is the BufList of buffers that cross from one layer to another
// and so belong to no one connection: a borrowed answer a session hands
// its caller, a handler's response payload, a control call's request.
// Buffers that stay inside a connection come from the connection's own
// list (rpc.Client, rpc.ServerConn). Its bound covers the small ops in
// flight in a busy process, and caps what a burst leaves behind: unlike
// a sync.Pool, the list keeps what it holds until it is used again.
var shared = func() *BufList {
	l := new(BufList)
	l.Init(64, 256*core.KB)
	return l
}()

// GetBuf returns an empty buffer from the shared list. Append into it,
// use the result, then release it with PutBuf.
func GetBuf() []byte { return shared.Get() }

// PutBuf returns a buffer to the shared list (see BufList.Put).
func PutBuf(b []byte) { shared.Put(b) }

// Large-buffer class: receive buffers for request frames above
// InlineFrameThreshold, and the backing memory of file chunks. A server
// reads such a frame into one of these (ReadFramePooled), the handler
// works on the payload in place, and the rpc layer hands the buffer
// back (RecycleFrame) once the response is written — so a stream of
// 1 MiB writes reuses one buffer per connection instead of allocating a
// megabyte per request. A file chunk grows through the same class and
// gives back what it outgrows, and all of it when its block is deleted
// (ds.File). Buffers come in power-of-two sizes from 8 KiB, except the
// top class, which is readAllocChunk: it exists for the 1 MiB write
// plus its framing, and rounding that up to 2 MiB would double the
// memory the pool holds. Nothing above readAllocChunk is pooled.
//
// The classes stay sync.Pools: a collection empties them, so no idle
// connection or emptied file keeps a megabyte alive, and the memory they
// hold counts in the heap a store reports per user byte. A class slot
// holds the buffer's first byte, a pointer, so keeping a buffer costs no
// box: its class says its capacity.
const (
	minLargeShift = 13 // 8 KiB: the first size above InlineFrameThreshold + header
	largeClasses  = 9  // 8 KiB … 1 MiB, then readAllocChunk
)

var largePools [largeClasses]sync.Pool

// largeClass maps a length to its size class and buffer size; ok is
// false for lengths the class does not serve.
func largeClass(n int) (class, size int, ok bool) {
	if n <= 0 || n > readAllocChunk {
		return 0, 0, false
	}
	if n > core.MB {
		return largeClasses - 1, readAllocChunk, true
	}
	shift := bits.Len(uint(n - 1))
	if shift < minLargeShift {
		shift = minLargeShift
	}
	return shift - minLargeShift, 1 << shift, true
}

// GetLarge returns an n-byte buffer whose capacity is its class size,
// from the class's pool when it holds one. A pooled buffer is dirty:
// its bytes are whatever its last holder left (0xDB under -tags
// jiffydebug), so a caller that exposes bytes it did not write clears
// them first. A length the class does not serve (above readAllocChunk)
// gets a fresh buffer, which PutLarge then leaves to the collector.
func GetLarge(n int) []byte {
	class, size, ok := largeClass(n)
	if !ok {
		return make([]byte, n)
	}
	if p, _ := largePools[class].Get().(*byte); p != nil {
		b := unsafe.Slice(p, size)
		debugTrackGet(b)
		return b[:n]
	}
	return make([]byte, n, size)
}

// PutLarge hands a buffer to its class. The caller must own b — no
// other slice of its backing array may be used afterwards — and must
// not touch it again. A buffer whose capacity is not a class size is
// left to the collector, so PutLarge is safe on any owned slice.
func PutLarge(b []byte) {
	class, size, ok := largeClass(cap(b))
	if !ok || size != cap(b) {
		return
	}
	debugTrackPut(b)
	largePools[class].Put(unsafe.SliceData(b))
}
