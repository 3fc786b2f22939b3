//go:build jiffydebug

package proto

import "testing"

// TestCallListPoisons: a method's Call boxes come from a free list the
// jiffydebug build arms: a box put back twice, or written after its
// put, panics.
func TestCallListPoisons(t *testing.T) {
	mustPanic := func(want string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != want {
				t.Fatalf("panic = %v, want %q", r, want)
			}
		}()
		fn()
	}
	m := declare[OpenReq, OpenResp](0xfff0, "ListCheck")
	methods = methods[:len(methods)-1]
	c := m.GetCall()
	m.PutCall(c)
	mustPanic("wire: double Put of the same FreeList item", func() { m.calls.Put(c) })
	c.Req.Path = "j/late" // the bug: a stub still writing its request
	mustPanic("wire: FreeList item written after Put (use after put)", func() { m.GetCall() })
}
