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
