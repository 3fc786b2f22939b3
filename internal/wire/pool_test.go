package wire

import (
	"sync"
	"testing"
)

// TestFreeListBounds: a FreeList keeps at most the count Init gave it,
// hands back what it kept, and the zero FreeList keeps nothing.
func TestFreeListBounds(t *testing.T) {
	var zero FreeList[*int]
	zero.Put(new(int))
	if _, ok := zero.Get(); ok {
		t.Fatal("the zero FreeList kept an item")
	}
	var l FreeList[*int]
	l.Init(2)
	a, b, c := new(int), new(int), new(int)
	l.Put(a)
	l.Put(b)
	l.Put(c) // full: left to the collector
	got := map[*int]bool{}
	for i := 0; i < 3; i++ {
		if v, ok := l.Get(); ok {
			got[v] = true
		}
	}
	if len(got) != 2 || !got[a] || !got[b] {
		t.Fatalf("the list gave back %d items, want the first 2 kept", len(got))
	}
}

// TestBufListBounds: a BufList keeps buffers up to its count and byte
// bounds, drops buffers outside the kept capacities, and hands out
// empty buffers of at least minPooledBuf.
func TestBufListBounds(t *testing.T) {
	var l BufList
	l.Init(4, 3*minPooledBuf)
	l.Put(make([]byte, 0, 16))             // too small to keep
	l.Put(make([]byte, 0, maxPooledBuf+1)) // too large to keep
	for i := 0; i < 4; i++ {
		l.Put(make([]byte, 5, minPooledBuf))
	}
	if len(l.bufs) != 3 || l.bytes != 3*minPooledBuf {
		t.Fatalf("list holds %d buffers, %d bytes; want 3 and %d (the byte bound)", len(l.bufs), l.bytes, 3*minPooledBuf)
	}
	for i := 0; i < 4; i++ {
		if b := l.Get(); len(b) != 0 || cap(b) < minPooledBuf {
			t.Fatalf("Get returned len %d cap %d", len(b), cap(b))
		}
	}
	if l.bytes != 0 {
		t.Fatalf("an emptied list counts %d bytes", l.bytes)
	}
}

// TestFreeListConcurrent: many goroutines borrow from and return to
// one list at once, as a connection's workers do; each item is held by
// one borrower at a time. Run it under -race.
func TestFreeListConcurrent(t *testing.T) {
	var l FreeList[*[2]int]
	l.Init(4)
	var bl BufList
	bl.Init(4, 4*minPooledBuf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v, ok := l.Get()
				if !ok {
					v = new([2]int)
				}
				v[0], v[1] = g, i
				if v[0] != g || v[1] != i {
					t.Errorf("item shared by two borrowers")
					return
				}
				*v = [2]int{}
				l.Put(v)
				b := append(bl.Get(), byte(g), byte(i))
				if b[0] != byte(g) {
					t.Errorf("buffer shared by two borrowers")
					return
				}
				bl.Put(b)
			}
		}(g)
	}
	wg.Wait()
}
