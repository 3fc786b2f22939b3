//go:build jiffydebug

package cuckoo

import "testing"

// TestFrontierListPoisons: relocation frontiers come from a free list
// the jiffydebug build arms: a frontier put back twice, or written after
// its put, panics.
func TestFrontierListPoisons(t *testing.T) {
	mustPanic := func(want string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != want {
				t.Fatalf("panic = %v, want %q", r, want)
			}
		}()
		fn()
	}
	f := getFrontier()
	frontiers.Put(f)
	mustPanic("wire: double Put of the same FreeList item", func() { frontiers.Put(f) })
	f[0].slot = 3 // the bug: a search still writing its returned frontier
	mustPanic("wire: FreeList item written after Put (use after put)", func() { getFrontier() })
}
