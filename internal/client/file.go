package client

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"jiffy/internal/core"
	"jiffy/internal/ds"
)

// File is the client handle for a Jiffy file (§5.1): a sequence of
// fixed-size chunks, each stored in one block. Writes at arbitrary
// offsets are split at chunk boundaries; writing past the last chunk
// grows the file by requesting new blocks from the controller. Each
// handle tracks an append cursor for Append/Read streaming. Record
// appends follow links the way a queue's ends do: a full chunk
// redirects them to its successor, which the server learned when the
// controller answered the chunk's over-signal, so appenders rarely ask
// for growth themselves.
type File struct {
	h *handle

	mu     sync.Mutex
	wcur   int // append cursor
	rcur   int // sequential-read cursor
	maxEnd int // highest offset this handle has written
	// linked is the chunk a redirect sent appends to while the map does
	// not know it yet (zero when none), learned under the map of epoch
	// linkedEpoch.
	linked      ds.PartitionEntry
	linkedEpoch core.Epoch
}

// Path returns the handle's address prefix.
func (f *File) Path() core.Path { return f.h.path }

// chunkSize reads the immutable chunk size from the map.
func (f *File) chunkSize() int {
	return f.h.snapshot().ChunkSize
}

// tailChunk addresses whichever chunk is the file's last when the op
// is routed: where records are appended.
const tailChunk = -1

// route finds the block holding chunk. Appends go to the file's tail:
// the map's last chunk, or the chunk a redirect linked past it. A write
// to a chunk that does not exist yet asks the pipeline to grow the file
// from its tail (the server's proactive signal usually got there
// first); a read of one is past the end of the file — unless a link
// named it, and then the map is stale.
func (f *File) route(op core.OpType, _ string, chunk int) (ds.PartitionEntry, error) {
	m := f.h.snapshot()
	tail, ok := m.Tail()
	f.mu.Lock()
	linked := f.linked
	f.mu.Unlock()
	if chunk != tailChunk {
		if e, ok := m.BlockForChunk(chunk); ok {
			return e, nil
		}
		if linked.Info.Server != "" && chunk <= linked.Chunk {
			return linked, fmt.Errorf("client: file chunk %d linked but not mapped: %w", chunk, core.ErrStaleEpoch)
		}
		if !op.IsMutation() {
			return ds.PartitionEntry{}, fmt.Errorf("client: file chunk %d: %w", chunk, core.ErrNotFound)
		}
	}
	switch {
	case !ok:
		return tail, fmt.Errorf("client: file has no chunks: %w", core.ErrNotFound)
	case chunk != tailChunk:
		return tail, fmt.Errorf("client: file grow to chunk %d: %w", chunk, core.ErrBlockFull)
	case linked.Info.Server != "" && linked.Chunk > tail.Chunk:
		return linked, nil
	}
	return tail, nil
}

// forget drops the linked chunk once a map newer than the one it was
// learned under arrives: that map knows the chunk, or knows better.
func (f *File) forget() {
	epoch := f.h.snapshot().Epoch
	f.mu.Lock()
	if epoch > f.linkedEpoch {
		f.linked = ds.PartitionEntry{}
	}
	f.mu.Unlock()
}

// redirected follows a link: the chunk from is full and next holds the
// chunk after it, where the append goes again. The linked chunk only
// moves forward, so two batches redirected from successive chunks
// cannot send a later append back. The map, when it already knows the
// chunk, supplies its entry.
func (f *File) redirected(op core.OpType, from int, next core.BlockInfo) {
	if op != core.OpFileAppend {
		return
	}
	m := f.h.snapshot()
	e, ok := m.BlockForChunk(from + 1)
	if !ok {
		e = ds.PartitionEntry{Info: next, Chunk: from + 1}
	}
	f.mu.Lock()
	if e.Chunk > f.linked.Chunk {
		f.linked, f.linkedEpoch = e, m.Epoch
	}
	f.mu.Unlock()
}

// WriteAt writes data at an absolute file offset, spanning chunks as
// needed.
func (f *File) WriteAt(ctx context.Context, off int, data []byte) error {
	cs := f.chunkSize()
	if cs <= 0 {
		return fmt.Errorf("client: file has no chunk size")
	}
	ints := intArgsPool.Get().(*intArgs)
	defer intArgsPool.Put(ints)
	for len(data) > 0 {
		ci := off / cs
		in := off % cs
		n := cs - in
		if n > len(data) {
			n = len(data)
		}
		if _, _, err := f.h.run(ctx, core.OpFileWrite, "", ci, [][]byte{ints.put(0, uint64(in)), data[:n]}, nil, nil); err != nil {
			return err
		}
		off += n
		data = data[n:]
	}
	f.mu.Lock()
	if off > f.maxEnd {
		f.maxEnd = off
	}
	f.mu.Unlock()
	return nil
}

// Append writes data at this handle's append cursor and advances it.
func (f *File) Append(ctx context.Context, data []byte) (int, error) {
	f.mu.Lock()
	off := f.wcur
	f.wcur += len(data)
	f.mu.Unlock()
	if err := f.WriteAt(ctx, off, data); err != nil {
		return off, err
	}
	return off, nil
}

// ReadAt reads up to n bytes at an absolute offset; a short result
// means end of written data.
func (f *File) ReadAt(ctx context.Context, off, n int) ([]byte, error) {
	cs := f.chunkSize()
	if cs <= 0 {
		return nil, fmt.Errorf("client: file has no chunk size")
	}
	// Fast path: a read confined to one chunk returns the decoded
	// response slice directly instead of accumulating into a fresh
	// buffer — with the server's zero-copy view path this makes a
	// single-chunk read one copy end to end (socket → response buffer).
	if n > 0 && off/cs == (off+n-1)/cs {
		part, err := f.readChunk(ctx, off/cs, off%cs, n)
		if err != nil {
			if errors.Is(err, core.ErrNotFound) {
				return nil, nil // past the last chunk
			}
			return nil, err
		}
		return part, nil
	}
	out := make([]byte, 0, n)
	for n > 0 {
		ci := off / cs
		in := off % cs
		want := cs - in
		if want > n {
			want = n
		}
		part, err := f.readChunk(ctx, ci, in, want)
		if err != nil {
			if errors.Is(err, core.ErrNotFound) {
				break // past the last chunk
			}
			return out, err
		}
		out = append(out, part...)
		off += len(part)
		n -= len(part)
		if len(part) < want {
			break // hit this chunk's high-water mark
		}
	}
	return out, nil
}

// readChunk reads within one chunk.
func (f *File) readChunk(ctx context.Context, ci, in, n int) ([]byte, error) {
	ints := intArgsPool.Get().(*intArgs)
	defer intArgsPool.Put(ints)
	var res [1][]byte
	return one(f.h.run(ctx, core.OpFileRead, "", ci, [][]byte{ints.put(0, uint64(in)), ints.put(1, uint64(n))}, res[:0], nil))
}

// intArgs holds a file op's integer arguments while it runs. Args
// reach the transport through interfaces, so bytes on the stack would
// escape, and each ds.U64 costs a heap object; a pooled pair costs
// none. They are the op's own until run returns: no request is
// written after that (a hedged read's arms copy their args).
type intArgs [2][8]byte

var intArgsPool = sync.Pool{New: func() any { return new(intArgs) }}

// put encodes v as integer argument i and returns it.
func (a *intArgs) put(i int, v uint64) []byte {
	binary.BigEndian.PutUint64(a[i][:], v)
	return a[i][:]
}

// Seek positions the sequential-read cursor (seek in §5.1).
func (f *File) Seek(off int) {
	f.mu.Lock()
	f.rcur = off
	f.mu.Unlock()
}

// Read reads up to n bytes at the read cursor and advances it.
func (f *File) Read(ctx context.Context, n int) ([]byte, error) {
	f.mu.Lock()
	off := f.rcur
	f.mu.Unlock()
	data, err := f.ReadAt(ctx, off, n)
	f.mu.Lock()
	f.rcur = off + len(data)
	f.mu.Unlock()
	return data, err
}

// AppendRecord atomically appends data to the file's tail chunk on the
// server side and returns the absolute offset it landed at. Unlike the
// cursor-based Append, AppendRecord is safe for many concurrent
// writers (MapReduce shuffle files, §5.1): the server serializes
// appends within a chunk, and records never straddle chunks — a record
// that does not fit moves whole to the next chunk.
func (f *File) AppendRecord(ctx context.Context, data []byte) (int, error) {
	cs := f.chunkSize()
	if cs <= 0 {
		return 0, fmt.Errorf("client: file has no chunk size")
	}
	off, _, err := f.appendRun(ctx, cs, [][]byte{data})
	return off, err
}

// appendRun appends run, one append op, to the file's tail chunk. The
// server lands a prefix of it back to back; appendRun returns the
// absolute offset of the first landed record and how many landed,
// read in place from the answer: one value, the one record's offset,
// or two, the first offset and the count.
func (f *File) appendRun(ctx context.Context, cs int, run [][]byte) (off, n int, err error) {
	_, chunk, err := f.h.run(ctx, core.OpFileAppend, "", tailChunk, run, nil, func(payload []byte) error {
		var v [2][]byte
		vals, err := ds.DecodeValsInto(v[:0], payload)
		if err != nil {
			return err
		}
		if len(vals) == 0 || len(vals) > len(v) {
			return fmt.Errorf("client: append answered %d values", len(vals))
		}
		first, err := ds.ParseU64(vals[0])
		count := uint64(1)
		if err == nil && len(vals) == 2 {
			count, err = ds.ParseU64(vals[1])
		}
		if err == nil && (count < 1 || count > uint64(len(run))) {
			err = fmt.Errorf("client: %d landed of a run of %d", count, len(run))
		}
		off, n = int(first), int(count)
		return err
	})
	return chunk*cs + off, n, err
}

// Chunks returns the current number of chunks (after a refresh), so
// readers can scan chunk by chunk.
func (f *File) Chunks(ctx context.Context) (int, error) {
	if err := f.h.refresh(ctx); err != nil {
		return 0, err
	}
	m := f.h.snapshot()
	max := -1
	for _, e := range m.Blocks {
		if e.Chunk > max {
			max = e.Chunk
		}
	}
	return max + 1, nil
}

// ReadChunk reads one whole chunk's written bytes.
func (f *File) ReadChunk(ctx context.Context, ci int) ([]byte, error) {
	cs := f.chunkSize()
	if cs <= 0 {
		return nil, fmt.Errorf("client: file has no chunk size")
	}
	return f.readChunk(ctx, ci, 0, cs)
}

// Subscribe registers for notifications on the file's blocks.
func (f *File) Subscribe(ctx context.Context, ops ...core.OpType) (*Listener, error) {
	return f.h.c.subscribe(ctx, f.h, ops)
}
