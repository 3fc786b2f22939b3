//go:build jiffydebug

package wire

import "testing"

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic %q, got none", want)
		}
		if s, ok := r.(string); !ok || s != want {
			t.Fatalf("panic = %v, want %q", r, want)
		}
	}()
	fn()
}

func TestPoolDoublePutPanics(t *testing.T) {
	b := GetBuf()
	b = append(b, 1, 2, 3)
	PutBuf(b)
	mustPanic(t, "wire: double PutBuf of the same buffer", func() { PutBuf(b) })
	// Drain the poisoned entry so it doesn't leak into other tests.
	GetBuf()
}

func TestPoolPutPoisons(t *testing.T) {
	b := GetBuf()
	b = append(b, 1, 2, 3)
	PutBuf(b)
	for i, c := range b[:3] {
		if c != poisonByte {
			t.Fatalf("byte %d = %#x after PutBuf, want poison %#x", i, c, poisonByte)
		}
	}
	GetBuf()
}

func TestPoolUseAfterPutPanics(t *testing.T) {
	b := GetBuf()
	b = append(b, 1, 2, 3)
	PutBuf(b)
	b[0] = 42 // the bug: writing through a released slice
	mustPanic(t, "wire: buffer written after PutBuf (use after put)", func() { verifyPoison(b) })
	b[0] = poisonByte
	GetBuf()
}

// TestPoolUntrackedPutAllowed pins the documented PutBuf contract:
// slices that never came from the pool may be released exactly once
// without tripping the double-put oracle.
func TestPoolUntrackedPutAllowed(t *testing.T) {
	PutBuf(make([]byte, 16))
	GetBuf()
}

// TestLargePoolUseAfterRecyclePanics covers the large-buffer class: a
// handler that keeps writing through a request frame after
// RecycleFrame is caught when the buffer is next handed out.
func TestLargePoolUseAfterRecyclePanics(t *testing.T) {
	buf := GetLarge(64 * 1024)
	f := &Frame{Kind: KindRequest, Payload: buf[headerLen:], buf: buf}
	held := f.Payload
	RecycleFrame(f)
	if held[0] != poisonByte {
		t.Fatalf("recycled frame not poisoned: %#x", held[0])
	}
	held[0] = 42 // the bug: a retained alias of the request payload
	mustPanic(t, "wire: buffer written after PutBuf (use after put)", func() {
		for i := 0; i < 64; i++ { // the pool may hold other buffers of this class
			GetLarge(64 * 1024)
		}
	})
}

// Under the tag every FreeList is an oracle too: an item put twice, or
// written after its put, panics. The lists connections and clients own
// (rpc, proto, client) each have their own test of the same two.

type listItem struct {
	n    int
	next *listItem
}

const (
	itemDoublePut = "wire: double Put of the same FreeList item"
	itemUseAfter  = "wire: FreeList item written after Put (use after put)"
)

func TestFreeListDoublePutPanics(t *testing.T) {
	var l FreeList[*listItem]
	l.Init(4)
	it := &listItem{n: 1}
	l.Put(it)
	mustPanic(t, itemDoublePut, func() { l.Put(it) })
	if got, ok := l.Get(); !ok || got != it {
		t.Fatalf("Get = %p, %v; want the item put once", got, ok)
	}
}

func TestFreeListUseAfterPutPanics(t *testing.T) {
	var l FreeList[*listItem]
	l.Init(4)
	it := &listItem{}
	l.Put(it)
	it.next = it // the bug: a holder that kept writing through a released item
	mustPanic(t, itemUseAfter, func() { l.Get() })
}

// TestFreeListFullForgets: an item a full list left to the collector
// is no longer tracked, so handing it in again later is no double put.
func TestFreeListFullForgets(t *testing.T) {
	var l FreeList[*listItem]
	l.Init(1)
	a, b := &listItem{}, &listItem{}
	l.Put(a)
	l.Put(b) // full: dropped
	l.Get()
	l.Put(b)
	l.Get()
}

// TestBufListOwnerPoisons: a BufList an owner keeps (a connection's) is
// armed like the shared one behind GetBuf.
func TestBufListOwnerPoisons(t *testing.T) {
	var l BufList
	l.Init(4, 64*1024)
	b := append(l.Get(), 1, 2, 3)
	l.Put(b)
	mustPanic(t, "wire: double PutBuf of the same buffer", func() { l.Put(b) })
	b[0] = 42
	mustPanic(t, "wire: buffer written after PutBuf (use after put)", func() { l.Get() })
}
