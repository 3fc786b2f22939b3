//go:build jiffydebug

package client

import "testing"

// What a file op and a batched call borrow from their client comes from
// free lists the jiffydebug build arms: an item put back twice, or
// written after its put, panics. One test per list.

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != want {
			t.Fatalf("panic = %v, want %q", r, want)
		}
	}()
	fn()
}

const (
	itemDoublePut = "wire: double Put of the same FreeList item"
	itemUseAfter  = "wire: FreeList item written after Put (use after put)"
)

func TestIntArgsListPoisons(t *testing.T) {
	c := new(Client)
	c.ints.Init(maxIntArgs)
	a := c.borrowIntArgs()
	c.ints.Put(a)
	mustPanic(t, itemDoublePut, func() { c.ints.Put(a) })
	a.put(0, 42) // the bug: an op still encoding into its released pair
	mustPanic(t, itemUseAfter, func() { c.borrowIntArgs() })
}

func TestBatchScratchListPoisons(t *testing.T) {
	c := new(Client)
	c.batches.Init(maxBatchScratch)
	sc := new(batchScratch)
	c.releaseBatch(sc)
	mustPanic(t, itemDoublePut, func() { c.releaseBatch(sc) })
	sc.ints = append(sc.ints, 1)
	mustPanic(t, itemUseAfter, func() { c.batches.Get() })
}
