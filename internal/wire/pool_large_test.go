package wire

import (
	"bytes"
	"runtime"
	"testing"

	"jiffy/internal/core"
)

// TestLargeClassSizes pins the size classes of the large-buffer pool:
// powers of two from 8 KiB to 1 MiB, one class of readAllocChunk for
// the 1 MiB write plus its framing, and nothing above it.
func TestLargeClassSizes(t *testing.T) {
	cases := []struct {
		n, class, size int
		ok             bool
	}{
		{0, 0, 0, false},
		{InlineFrameThreshold + headerLen + 1, 0, 8 * core.KB, true},
		{8 * core.KB, 0, 8 * core.KB, true},
		{8*core.KB + 1, 1, 16 * core.KB, true},
		{core.MB, 7, core.MB, true},
		{core.MB + 1, largeClasses - 1, readAllocChunk, true},
		{readAllocChunk, largeClasses - 1, readAllocChunk, true},
		{readAllocChunk + 1, 0, 0, false},
	}
	for _, c := range cases {
		class, size, ok := largeClass(c.n)
		if class != c.class || size != c.size || ok != c.ok {
			t.Errorf("largeClass(%d) = (%d, %d, %v), want (%d, %d, %v)",
				c.n, class, size, ok, c.class, c.size, c.ok)
		}
	}
	// A buffer whose capacity is not a class size is never pooled: it
	// would come back out under a length it cannot hold.
	PutLarge(make([]byte, 12000))
	if b := GetLarge(16 * core.KB); cap(b) != 16*core.KB {
		t.Fatalf("GetLarge(16K) returned cap %d", cap(b))
	}
	// A length above the top class gets a fresh buffer of that length
	// (a file chunk's growth past it), which PutLarge then drops.
	if b := GetLarge(readAllocChunk + 1); len(b) != readAllocChunk+1 {
		t.Fatalf("GetLarge above the top class returned %d bytes", len(b))
	}
}

// TestReadFramePooledRecycles streams 1 MiB request frames through
// ReadFramePooled + RecycleFrame: payloads must arrive intact, small
// frames keep using connection storage, and once the first buffer is in
// the pool the steady state must not allocate a megabyte per frame.
func TestReadFramePooledRecycles(t *testing.T) {
	ca, cb := framePair(t)
	body := bytes.Repeat([]byte{0x5a}, core.MB)
	const frames = 32
	go func() {
		for i := 0; i < frames; i++ {
			f := Frame{Kind: KindRequest, Seq: uint64(i), Payload: []byte("head"), PayloadVec: [][]byte{body}}
			if ca.WriteFrame(&f) != nil {
				return
			}
		}
		ca.WriteFrame(&Frame{Kind: KindRequest, Seq: frames, Payload: []byte("small")})
	}()
	read := func(i int) {
		f, reused, err := cb.ReadFramePooled()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if reused || f.Seq != uint64(i) || len(f.Payload) != 4+core.MB ||
			string(f.Payload[:4]) != "head" || !bytes.Equal(f.Payload[4:], body) {
			t.Fatalf("frame %d: reused=%v seq=%d len=%d", i, reused, f.Seq, len(f.Payload))
		}
		RecycleFrame(f)
		if f.Payload != nil {
			t.Fatal("RecycleFrame left the payload reachable through the frame")
		}
		RecycleFrame(f) // a second call is a no-op, not a double put
	}
	read(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i < frames; i++ {
		read(i)
	}
	runtime.ReadMemStats(&after)
	// Without the pool every frame costs a megabyte. The bound is loose
	// because a collection may empty the pool mid-run, and under the
	// race detector sync.Pool drops a quarter of all puts on purpose.
	if got := after.TotalAlloc - before.TotalAlloc; got > (frames-1)*core.MB*3/4 {
		t.Fatalf("%d pooled 1 MiB reads allocated %d bytes", frames-1, got)
	}
	f, reused, err := cb.ReadFramePooled()
	if err != nil || !reused || string(f.Payload) != "small" {
		t.Fatalf("small frame: reused=%v err=%v", reused, err)
	}
	RecycleFrame(f) // connection-owned: nothing to recycle
	if string(f.Payload) != "small" {
		t.Fatal("RecycleFrame touched a connection-owned frame")
	}
}

// TestReadFramePooledAllocs is the wire allocation gate: a pooled
// 64 KiB request frame, read and recycled, costs no object once its
// size class holds a buffer — the frame is decoded into the
// connection's storage and the payload into the recycled buffer.
func TestReadFramePooledAllocs(t *testing.T) {
	if poolsInstrumented {
		t.Skip("pools are instrumented (-race or -tags jiffydebug)")
	}
	const runs = 100
	body := bytes.Repeat([]byte{0x5a}, 64*core.KB)
	var stream []byte
	for i := 0; i <= runs; i++ {
		stream = AppendFrame(stream, &Frame{Kind: KindRequest, Seq: uint64(i), Payload: body})
	}
	c := fuzzConn(stream)
	allocs := testing.AllocsPerRun(runs, func() {
		f, reused, err := c.ReadFramePooled()
		if err != nil || reused || len(f.Payload) != len(body) {
			t.Fatalf("pooled read: reused=%v err=%v", reused, err)
		}
		RecycleFrame(f)
	})
	if allocs > 0 {
		t.Fatalf("a pooled 64 KiB frame read and recycled allocates %.1f objects, want 0", allocs)
	}
}

// TestReadFrameLeavesNothingStale: every read overwrites the whole
// connection-owned frame, so a frame read after a large pooled one, or
// after a caller wrote into the frame it was handed, carries no Payload,
// PayloadVec, Release or receive buffer of the frame before it; and a
// copy the reader took of the pooled frame keeps its buffer, which only
// the copy recycles.
func TestReadFrameLeavesNothingStale(t *testing.T) {
	large := bytes.Repeat([]byte{0x6b}, 64*core.KB)
	var stream []byte
	for i, p := range [][]byte{large, []byte("small"), large, nil} {
		stream = AppendFrame(stream, &Frame{Kind: KindRequest, Seq: uint64(i), Payload: p})
	}
	c := fuzzConn(stream)
	stale := func(f *Frame) {
		t.Helper()
		if f.PayloadVec != nil || f.Release != nil || f.buf != nil {
			t.Fatalf("frame %d: PayloadVec %v, Release %v, buffer %v left from the frame before",
				f.Seq, f.PayloadVec != nil, f.Release != nil, f.buf != nil)
		}
	}

	f, _, err := c.ReadFramePooled()
	if err != nil || f.buf == nil {
		t.Fatalf("large pooled frame: buffer %v, %v", f.buf != nil, err)
	}
	kept := *f // the reader keeps the frame past the next read
	f.PayloadVec, f.Release = [][]byte{large}, releaseFunc(func() {})

	f, reused, err := c.ReadFramePooled()
	if err != nil || !reused || string(f.Payload) != "small" {
		t.Fatalf("small frame: %q reused=%v err=%v", f.Payload, reused, err)
	}
	stale(f)
	RecycleFrame(f) // connection-owned payload: nothing to recycle
	if kept.buf == nil || !bytes.Equal(kept.Payload, large) {
		t.Fatal("the next read disturbed the reader's copy of a pooled frame")
	}
	RecycleFrame(&kept)
	if kept.buf != nil || kept.Payload != nil {
		t.Fatal("RecycleFrame left the copy's buffer reachable")
	}

	// A large frame read unpooled: a fresh payload and no buffer.
	if f, reused, err = c.ReadFrameReused(); err != nil || reused || !bytes.Equal(f.Payload, large) {
		t.Fatalf("large unpooled frame: reused=%v err=%v", reused, err)
	}
	stale(f)
	if f, _, err = c.ReadFramePooled(); err != nil || f.Payload != nil {
		t.Fatalf("empty frame: payload %d bytes, %v", len(f.Payload), err)
	}
	stale(f)
}
