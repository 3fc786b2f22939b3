package wire

import (
	"math/bits"
	"sync"

	"jiffy/internal/core"
)

// maxPooledBuf caps the size of buffers kept in the pool so one giant
// frame cannot pin megabytes of idle memory for the session's lifetime.
const maxPooledBuf = core.MB

// minPooledBuf is the capacity the pool makes buffers with, and the
// least it keeps: a smaller one (a handler's few-byte answer, an error
// text) would make the next GetBuf caller grow it again, and costs a
// box to hold besides.
const minPooledBuf = 4096

// payloadPool recycles frame/payload staging buffers on the data-plane
// hot path: request encoding on the client, response encoding on the
// server. Both sides encode into a pooled buffer, hand it to the frame
// writer (which copies it into the connection's write buffer
// synchronously), and return it — cutting the dominant per-op
// allocation on each end.
var payloadPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, minPooledBuf)
		return &b
	},
}

// hdrPool recycles the *[]byte boxes that carry slices through
// payloadPool. Without it every PutBuf allocates a fresh box to satisfy
// sync.Pool's interface{} contract (`&b` escapes), which put two heap
// allocations back on a hot path that exists to avoid them.
var hdrPool = sync.Pool{
	New: func() interface{} { return new([]byte) },
}

// unbox takes a buffer out of the *[]byte box a pool handed back and
// recycles the box.
func unbox(p *[]byte) []byte {
	b := *p
	*p = nil
	hdrPool.Put(p)
	return b
}

// box wraps a buffer for a pool's interface{} slot, emptied.
func box(b []byte) *[]byte {
	p := hdrPool.Get().(*[]byte)
	*p = b[:0]
	return p
}

// GetBuf returns an empty buffer from the pool. Append into it, use the
// result, then release it with PutBuf.
func GetBuf() []byte {
	b := unbox(payloadPool.Get().(*[]byte))
	debugTrackGet(b)
	return b
}

// PutBuf returns a buffer to the pool. The caller must not touch b
// afterwards. Buffers that grew beyond maxPooledBuf, or are smaller than
// the pool makes them (minPooledBuf), are dropped so the pool holds only
// hot-path-sized memory; nil slices are ignored, so PutBuf is safe to
// call on any response/request slice whose ownership has ended.
func PutBuf(b []byte) {
	if cap(b) < minPooledBuf || cap(b) > maxPooledBuf {
		return
	}
	debugTrackPut(b)
	payloadPool.Put(box(b))
}

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
	if p, _ := largePools[class].Get().(*[]byte); p != nil {
		b := unbox(p)
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
	largePools[class].Put(box(b))
}
