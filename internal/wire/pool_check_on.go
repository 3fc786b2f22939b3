//go:build jiffydebug

package wire

import (
	"bytes"
	"reflect"
	"sync"
	"unsafe"
)

// Debug-build ownership assertions (-tags jiffydebug). The release-hook
// payload contract makes ownership bugs easy to write, so under this
// tag every free list becomes an oracle for the two classic ones:
//
//   - double put: a put records the item (a buffer by its backing
//     array's address) until a get hands it out again; a second put
//     before that panics.
//   - use after put: a buffer put back is poisoned over its full
//     capacity, and a typed item (FreeList) has its bytes recorded; a
//     get verifies the poison, or the record, so a holder that kept
//     writing through a released buffer or item panics at its next
//     reuse.
//
// BufList.Put and PutLarge are documented as safe on arbitrary slices,
// so buffers that never came from a list are tracked from their first
// put onward — only genuinely double-released buffers trip the panic.

// Checked reports this build: every free list and pool tracks its
// items, so allocation gates skip.
const Checked = true

const poisonByte = 0xDB

// pooledBufs maps backing-array pointer → struct{} for buffers
// currently inside a list or pool. Entries for buffers the GC collects
// out of a sync.Pool leak; acceptable for a debug build.
var pooledBufs sync.Map

// pooledItems maps a FreeList item's pointer → the bytes it held when
// it was put.
var pooledItems sync.Map

func bufKey(b []byte) unsafe.Pointer {
	return unsafe.Pointer(unsafe.SliceData(b))
}

func debugTrackGet(b []byte) {
	if cap(b) == 0 {
		return
	}
	if _, wasPooled := pooledBufs.LoadAndDelete(bufKey(b)); wasPooled {
		verifyPoison(b)
	}
}

func debugTrackPut(b []byte) {
	if _, loaded := pooledBufs.LoadOrStore(bufKey(b), struct{}{}); loaded {
		panic("wire: double PutBuf of the same buffer")
	}
	poison(b)
}

// debugUntrack forgets a buffer a full list left to the collector.
func debugUntrack(b []byte) { pooledBufs.Delete(bufKey(b)) }

func poison(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = poisonByte
	}
}

func verifyPoison(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		if b[i] != poisonByte {
			panic("wire: buffer written after PutBuf (use after put)")
		}
	}
}

// itemBytes is the memory a FreeList item points at, read as bytes.
func itemBytes(v any) (unsafe.Pointer, []byte) {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		panic("wire: a FreeList holds non-nil pointers")
	}
	p := rv.UnsafePointer()
	return p, unsafe.Slice((*byte)(p), rv.Type().Elem().Size())
}

func debugItemPut[T any](v T) {
	p, b := itemBytes(v)
	if _, loaded := pooledItems.LoadOrStore(p, bytes.Clone(b)); loaded {
		panic("wire: double Put of the same FreeList item")
	}
}

func debugItemGet[T any](v T) {
	p, b := itemBytes(v)
	if kept, ok := pooledItems.LoadAndDelete(p); ok && !bytes.Equal(kept.([]byte), b) {
		panic("wire: FreeList item written after Put (use after put)")
	}
}

func debugItemDropped[T any](v T) {
	p, _ := itemBytes(v)
	pooledItems.Delete(p)
}
