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
