package ds

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"jiffy/internal/core"
)

// A file chunk takes its memory from the large-buffer pool, gives back
// what it outgrows, and gives back all of it when its block is deleted
// (Release). These tests pin the two ways that can go wrong: a reused
// buffer exposing its last holder's bytes, and a released chunk
// serving as if it were empty. Run them under -race and -tags
// jiffydebug too: the debug pool poisons every buffer it takes back
// (0xDB), so a missing clear reads poison instead of zeros.

// TestReleasedBufferGapReadsZero releases a chunk full of one tenant's
// bytes, then has a new chunk reuse its buffer and write past its
// high-water mark: the gap must read as zeros, as a fresh chunk's does.
// It covers both ways a write exposes memory it did not write — the
// write that grows the buffer, and a later one inside the grown
// capacity.
func TestReleasedBufferGapReadsZero(t *testing.T) {
	const chunkCap = 64 * core.KB
	secret := bytes.Repeat([]byte{0xA5}, chunkCap)
	zeros := make([]byte, chunkCap)
	record := []byte("other tenant's record")

	reused := false
	for try := 0; try < 100 && !reused; try++ { // a pool may drop a buffer (it does under -race)
		old := NewFile(chunkCap)
		if _, err := old.WriteAt(0, secret); err != nil {
			t.Fatal(err)
		}
		buf := unsafe.SliceData(old.data)
		old.Release()

		// A write past the mark grows the chunk straight to the class
		// the released buffer sits in.
		grown := NewFile(chunkCap)
		gap := chunkCap - len(record)
		if _, err := grown.WriteAt(gap, record); err != nil {
			t.Fatal(err)
		}
		reused = unsafe.SliceData(grown.data) == buf
		got, err := grown.ReadAt(0, chunkCap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:gap], zeros[:gap]) || !bytes.Equal(got[gap:], record) {
			t.Fatalf("try %d: a gap in a reused buffer reads %x…, want zeros", try, got[:16])
		}

		// A small append takes a small buffer — one the old chunk
		// outgrew — and a write inside its capacity leaves a gap.
		small := NewFile(chunkCap)
		if _, err := small.Append(record); err != nil {
			t.Fatal(err)
		}
		at := 2 * core.KB
		if _, err := small.WriteAt(at, record); err != nil {
			t.Fatal(err)
		}
		if got, _ := small.ReadAt(len(record), at-len(record)); !bytes.Equal(got, zeros[:at-len(record)]) {
			t.Fatalf("try %d: a gap inside a reused capacity reads %x…, want zeros", try, got[:16])
		}
	}
	if !reused {
		t.Fatal("no new chunk reused a released buffer in 100 tries")
	}
}

// TestReleasedChunkIsStale: after Release every op on the chunk answers
// core.ErrStaleEpoch — the answer an unknown block gets — instead of
// serving an emptied chunk. Snapshot is among them, so a fill can never
// copy an emptied source.
func TestReleasedChunkIsStale(t *testing.T) {
	f := NewFile(core.MB)
	if _, err := f.WriteAt(0, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	f.Release() // twice is harmless
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Append", func() error { _, err := f.Append([]byte("v1")); return err }},
		{"WriteAt", func() error { _, err := f.WriteAt(0, []byte("v1")); return err }},
		{"ReadAt", func() error { _, err := f.ReadAt(0, 2); return err }},
		{"ApplyView", func() error {
			v, handled, err := f.ApplyView(core.OpFileRead, [][]byte{U64(0), U64(2)}, nil)
			if !handled || v.Release != nil {
				t.Errorf("ApplyView: handled %v, lease %v", handled, v.Release != nil)
			}
			return err
		}},
		{"Snapshot", func() error { _, err := f.Snapshot(); return err }},
		{"Restore", func() error { return f.Restore(snap) }},
		{"Apply usage", func() error { _, err := f.Apply(core.OpUsage, nil); return err }},
		{"AppendAnswer append", func() error {
			_, _, err := AppendAnswer(f, nil, core.OpFileAppend, [][]byte{[]byte("v1")})
			return err
		}},
	} {
		if err := c.run(); !errors.Is(err, core.ErrStaleEpoch) {
			t.Errorf("%s on a released chunk: %v, want ErrStaleEpoch", c.name, err)
		}
	}
}

// TestEmptyRestoreReturnsBuffer: an empty restore — how a demotion
// frees a block's memory — hands the chunk's buffer back to the pool,
// as a delete does, and the chunk grows from there as a fresh one.
func TestEmptyRestoreReturnsBuffer(t *testing.T) {
	const chunkCap = 64 * core.KB
	empty, err := NewFile(chunkCap).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	reused := false
	for try := 0; try < 100 && !reused; try++ { // a pool may drop a buffer (it does under -race)
		full := NewFile(chunkCap)
		if _, err := full.WriteAt(0, bytes.Repeat([]byte{0xA5}, chunkCap)); err != nil {
			t.Fatal(err)
		}
		buf := unsafe.SliceData(full.data)
		if err := full.Restore(empty); err != nil {
			t.Fatal(err)
		}
		if full.data != nil || full.Bytes() != 0 {
			t.Fatalf("after an empty restore the chunk holds %d bytes (mark %d)", cap(full.data), full.Bytes())
		}
		next := NewFile(chunkCap)
		if _, err := next.WriteAt(chunkCap-1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		reused = unsafe.SliceData(next.data) == buf
		if _, err := full.WriteAt(core.KB, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if got, _ := full.ReadAt(0, core.KB); !bytes.Equal(got, make([]byte, core.KB)) {
			t.Fatalf("gap after an empty restore reads %x…, want zeros", got[:16])
		}
	}
	if !reused {
		t.Fatal("no new chunk reused a buffer an empty restore gave back in 100 tries")
	}
}
