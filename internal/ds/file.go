package ds

import (
	"fmt"
	"sync"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/wire"
)

// File is the partition engine for one chunk of a Jiffy file (§5.1).
// A Jiffy file is a sequence of blocks, each owning a fixed-size chunk
// of the file's byte range; the controller maps chunk index → block and
// the client routes by offset. Within a block, offsets are
// chunk-relative. Files are append-oriented but support writes at
// arbitrary in-capacity offsets (needed when concurrent map tasks write
// disjoint regions of a shuffle file) and seek reads.
//
// The chunk owns data: nothing outside it holds a slice of its backing
// array except a leased view, which holds the read lock. That lets the
// chunk take its memory from the large-buffer pool (wire.GetLarge) as it
// grows, give back what it outgrows, and give back all of it when its
// block is deleted (Release).
type File struct {
	mu       sync.RWMutex
	data     []byte
	size     int // high-water mark of written bytes
	cap      int
	released bool // Release ran: every op answers errReleased
	// next is the redirect to the chunk after this one, set by SetNext:
	// an append that no longer fits answers it instead of ErrBlockFull.
	// Built once, like errChunkFull. In memory only: no snapshot
	// carries it.
	next error
}

// NewFile creates an empty file chunk of the given capacity.
func NewFile(capacity int) *File {
	return &File{cap: capacity}
}

// Type implements Partition.
func (f *File) Type() core.DSType { return core.DSFile }

// Capacity implements Partition.
func (f *File) Capacity() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.cap
}

// Bytes implements Partition: the written high-water mark.
func (f *File) Bytes() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.size
}

// Apply implements Partition.
//
//	OpFileWrite: args[0]=chunk-relative offset (u64), args[1]=data
//	             → [bytesWritten u64]
//	OpFileRead:  args[0]=offset (u64), args[1]=length (u64)
//	             → [data] (short or empty at end of written region)
//	OpFileAppend: args[0]=data → [chunk-relative offset u64] ;
//	             ErrRedirect(next) when it does not fit and SetNext
//	             linked the chunk, else ErrBlockFull
//	OpUsage:     → [bytes used u64]
func (f *File) Apply(op core.OpType, args [][]byte) ([][]byte, error) {
	switch op {
	case core.OpFileWrite, core.OpFileAppend, core.OpUsage:
		return applyAnswer(f, op, args)
	case core.OpFileRead:
		if len(args) != 2 {
			return nil, fmt.Errorf("ds: file read wants 2 args, got %d", len(args))
		}
		off, err := ParseU64(args[0])
		if err != nil {
			return nil, err
		}
		length, err := ParseU64(args[1])
		if err != nil {
			return nil, err
		}
		data, err := f.ReadAt(int(off), int(length))
		if err != nil {
			return nil, err
		}
		return [][]byte{data}, nil
	default:
		return nil, fmt.Errorf("ds: file: %w (%v)", core.ErrWrongType, op)
	}
}

// appendAnswer is the appending form (AppendAnswer) of every file op
// whose answer is an integer: a write's byte count, an append's offset
// and the usage.
func (f *File) appendAnswer(dst []byte, op core.OpType, args [][]byte) ([]byte, bool, error) {
	var n int
	var err error
	switch op {
	case core.OpFileWrite:
		if len(args) != 2 {
			return dst, true, fmt.Errorf("ds: file write wants 2 args, got %d", len(args))
		}
		var off uint64
		if off, err = ParseU64(args[0]); err == nil {
			n, err = f.WriteAt(int(off), args[1])
		}
	case core.OpFileAppend:
		if len(args) != 1 {
			return dst, true, fmt.Errorf("ds: file append wants 1 arg, got %d", len(args))
		}
		n, err = f.Append(args[0])
	case core.OpUsage:
		n, err = f.usage()
	default:
		return dst, false, nil
	}
	if err != nil {
		return dst, true, err
	}
	return appendU64(dst, uint64(n)), true, nil
}

// errReleased answers every op on a chunk whose block was deleted: the
// answer Store.Get gives for an unknown block, so a client that
// resolved the block before the delete refreshes its map as it would
// after.
var errReleased = fmt.Errorf("ds: file chunk released: %w", core.ErrStaleEpoch)

// errChunkFull refuses a write or an append that does not fit the
// chunk. It is built once: both wire forms of an error (ds.ErrResult)
// carry only its code, so a message formatted per refusal would be
// dropped unread, and a shuffle's appends are refused once per chunk
// per writer.
var errChunkFull = fmt.Errorf("ds: write exceeds chunk capacity: %w", core.ErrBlockFull)

// SetNext links the chunk to its successor, the block holding the next
// chunk of the file: from then on an append that does not fit is
// redirected there. The server links a chunk when the controller
// answers its over-signal (§3.3), so writers follow the growth instead
// of asking for it.
func (f *File) SetNext(next core.BlockInfo) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.next = &redirectError{payload: redirectPayload(next)}
}

// Append atomically writes data at the chunk's current high-water mark
// and returns the chunk-relative offset it landed at. An append that
// does not fit entirely is refused — redirected to the next chunk once
// SetNext linked it, else ErrBlockFull — and the record moves whole to
// the next chunk, which is what lets many concurrent map tasks
// interleave records in one shuffle file safely (§5.1).
func (f *File) Append(data []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.released {
		return 0, errReleased
	}
	if len(data) > f.cap {
		return 0, fmt.Errorf("ds: record of %d bytes exceeds chunk capacity %d: %w",
			len(data), f.cap, core.ErrTooLarge)
	}
	off := f.size
	if off+len(data) > f.cap {
		if f.next != nil {
			return 0, f.next
		}
		return 0, errChunkFull
	}
	f.grow(off + len(data))
	copy(f.data[off:], data)
	f.size = off + len(data)
	return off, nil
}

// WriteAt stores data at the chunk-relative offset. A write that would
// cross the chunk capacity is rejected with ErrBlockFull — clients
// split writes at chunk boundaries, so this only fires on misuse.
func (f *File) WriteAt(off int, data []byte) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("ds: negative offset %d", off)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.released {
		return 0, errReleased
	}
	if off+len(data) > f.cap {
		return 0, errChunkFull
	}
	f.grow(off + len(data))
	copy(f.data[off:], data)
	if off+len(data) > f.size {
		f.size = off + len(data)
	}
	return len(data), nil
}

// grow extends the backing buffer to at least need bytes, doubling
// capacity (bounded by the chunk capacity) so sequences of small
// appends stay amortized O(1). The next buffer comes from the
// large-buffer pool, which rounds it up to its class (at least 8 KiB)
// and hands it over dirty: everything past the copied prefix is
// cleared, as make would have, because a WriteAt past the high-water
// mark exposes the gap to readers. The outgrown buffer goes back.
// Caller holds the lock; need <= f.cap.
func (f *File) grow(need int) {
	if need <= len(f.data) {
		return
	}
	if need <= cap(f.data) {
		f.data = f.data[:need]
		return
	}
	grown := wire.GetLarge(min(max(2*cap(f.data), need), f.cap))[:need]
	n := copy(grown, f.data)
	clear(grown[n:cap(grown)])
	wire.PutLarge(f.data)
	f.data = grown
}

// usage is OpUsage's answer: the high-water mark of a live chunk.
func (f *File) usage() (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.released {
		return 0, errReleased
	}
	return f.size, nil
}

// Release hands the chunk's memory back to the large-buffer pool once
// its block is deleted (blockstore.Store.Delete). It takes the write
// lock, which waits out every leased view, so no response still reads
// the buffer; every later op answers core.ErrStaleEpoch. The size is
// left as it was, so a straggling op's threshold check sees no
// crossing. Releasing twice is harmless.
func (f *File) Release() {
	f.mu.Lock()
	defer f.mu.Unlock()
	wire.PutLarge(f.data)
	f.data, f.released = nil, true
}

// ReadAt returns up to length bytes starting at the chunk-relative
// offset, truncated at the written high-water mark. Reading at or past
// the mark yields an empty slice (end of written data).
func (f *File) ReadAt(off, length int) ([]byte, error) {
	if off < 0 || length < 0 {
		return nil, fmt.Errorf("ds: negative offset/length")
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.released {
		return nil, errReleased
	}
	if off >= f.size {
		return nil, nil
	}
	end := off + length
	if end > f.size {
		end = f.size
	}
	out := make([]byte, end-off)
	copy(out, f.data[off:end])
	return out, nil
}

// ApplyView implements ViewReader for OpFileRead. Unlike queue items,
// file bytes ARE mutated in place (WriteAt over written
// regions), so the view is leased: it returns with the chunk's read
// lock held and Release drops it, which blocks writers — but not other
// readers or Snapshot — for exactly as long as the response is being
// handed to the transport.
func (f *File) ApplyView(op core.OpType, args, dst [][]byte) (View, bool, error) {
	if op != core.OpFileRead {
		return View{}, false, nil
	}
	if len(args) != 2 {
		return View{}, true, fmt.Errorf("ds: file read wants 2 args, got %d", len(args))
	}
	off, err := ParseU64(args[0])
	if err != nil {
		return View{}, true, err
	}
	length, err := ParseU64(args[1])
	if err != nil {
		return View{}, true, err
	}
	o, l := int(off), int(length)
	if o < 0 || l < 0 {
		return View{}, true, fmt.Errorf("ds: negative offset/length")
	}
	f.mu.RLock()
	if f.released {
		f.mu.RUnlock()
		return View{}, true, errReleased
	}
	if o >= f.size {
		f.mu.RUnlock()
		return View{Vals: append(dst, nil)}, true, nil
	}
	end := o + l
	if end > f.size || end < o {
		end = f.size
	}
	return View{
		Vals:    append(dst, f.data[o:end]),
		Release: f.mu.RUnlock,
	}, true, nil
}

// fileSnapshot is the serialized form of a file chunk: its written
// bytes, whose length is the high-water mark, and its capacity.
type fileSnapshot struct {
	Data []byte
	Cap  int
}

// Snapshot implements Partition.
func (f *File) Snapshot() ([]byte, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.released {
		return nil, errReleased
	}
	return codec.Marshal(&fileSnapshot{Data: f.data[:f.size], Cap: f.cap})
}

// Restore implements Partition. A snapshot holding more bytes than its
// capacity is refused; on any error the chunk is left as it was. The
// decoded bytes are a copy the chunk owns. An empty restore — how a
// demotion frees a block's memory — gives the buffer back to the pool,
// as a delete does. A non-empty one leaves the buffer it replaces to
// the collector: the server restores data only into chunks that hold
// none (a load into a new block, a rehydration), and a put that no
// grower matches costs the pool a box, and its re-creation after every
// collection.
func (f *File) Restore(snapshot []byte) error {
	var s fileSnapshot
	if err := codec.Unmarshal(snapshot, &s); err != nil {
		return fmt.Errorf("ds: file snapshot: %w", err)
	}
	if len(s.Data) > s.Cap {
		return fmt.Errorf("ds: file snapshot of %d bytes exceeds its capacity %d", len(s.Data), s.Cap)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.released {
		return errReleased
	}
	if len(s.Data) == 0 {
		wire.PutLarge(f.data)
	}
	f.data = s.Data
	f.size = len(s.Data)
	f.cap = s.Cap
	return nil
}
