package ds

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"jiffy/internal/codec"
	"jiffy/internal/core"
)

// TestRestoreDerivesSize: a snapshot carries no usage figure of its own.
// A file chunk's high-water mark is the length of its bytes and a queue
// segment's usage the sum of its items, so a restored partition serves
// exactly what it holds; contents beyond the snapshot's capacity are
// refused, leaving the partition as it was.
func TestRestoreDerivesSize(t *testing.T) {
	snap := func(v any) []byte {
		data, err := codec.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	f := NewFile(0)
	if err := f.Restore(snap(&fileSnapshot{Data: []byte("abc"), Cap: 100})); err != nil {
		t.Fatal(err)
	}
	if got, err := f.ReadAt(0, 50); err != nil || string(got) != "abc" || f.Bytes() != 3 {
		t.Errorf("restored file reads %q, %v with %d bytes, want \"abc\" and 3", got, err, f.Bytes())
	}
	if err := f.Restore(snap(&fileSnapshot{Data: []byte("abcd"), Cap: 3})); err == nil {
		t.Error("file snapshot over its capacity restored")
	}
	if got, _ := f.ReadAt(0, 50); string(got) != "abc" || f.Capacity() != 100 {
		t.Errorf("refused restore changed the file: reads %q, capacity %d", got, f.Capacity())
	}

	q := NewQueue(0)
	if err := q.Restore(snap(&queueSnapshot{Items: [][]byte{[]byte("ab"), []byte("cde")}, Cap: 10})); err != nil {
		t.Fatal(err)
	}
	if q.Bytes() != 5 || q.Len() != 2 {
		t.Errorf("restored queue holds %d bytes in %d items, want 5 in 2", q.Bytes(), q.Len())
	}
	if err := q.Restore(snap(&queueSnapshot{Items: [][]byte{[]byte("abcd")}, Cap: 3})); err == nil {
		t.Error("queue snapshot over its capacity restored")
	}
	if item, err := q.Peek(); err != nil || string(item) != "ab" || q.Capacity() != 10 {
		t.Errorf("refused restore changed the queue: peek %q, %v, capacity %d", item, err, q.Capacity())
	}
}

// TestParentSnapshotRefused: a file snapshot written before snapshots
// moved to the codec (gob, kept in testdata) is refused with an error
// naming the codec version, and the chunk keeps what it held.
func TestParentSnapshotRefused(t *testing.T) {
	gobSnapshot, err := os.ReadFile("testdata/gob-file-snapshot")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFile(100)
	if _, err := f.WriteAt(0, []byte("current")); err != nil {
		t.Fatal(err)
	}
	if err := f.Restore(gobSnapshot); err == nil || !strings.Contains(err.Error(), "codec version") {
		t.Fatalf("restoring a gob snapshot = %v, want a codec version error", err)
	}
	if got, _ := f.ReadAt(0, 100); string(got) != "current" || f.Capacity() != 100 {
		t.Errorf("refused restore changed the file: reads %q, capacity %d", got, f.Capacity())
	}
}

// FuzzSnapshotRestore: arbitrary bytes restored into a file chunk, a
// queue segment and a KV shard never panic and allocate at most a small
// multiple of their length; a refused snapshot leaves the partition
// empty, and an accepted one serves reads — a file read at 0, a queue
// peek, a get of every restored key — without panicking.
// testdata/fuzz/FuzzSnapshotRestore adds gob snapshots in the format
// the codec replaced, one of them a file whose stored size exceeded its
// bytes, and codec snapshots over their capacity.
func FuzzSnapshotRestore(f *testing.F) {
	file := NewFile(64)
	file.WriteAt(0, []byte("chunk"))
	queue := NewQueue(64)
	queue.Enqueue([]byte("one"))
	queue.Enqueue(nil)
	queue.SetNext(core.BlockInfo{ID: 9, Server: "s"})
	kv := NewKV(64, 16, []SlotRange{{Lo: 0, Hi: 15}})
	kv.Put("k", []byte("v"))
	kv.Put("key", nil)
	for _, p := range []Partition{file, queue, kv} {
		snap, err := p.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(snap)
		f.Add(snap[:len(snap)-1])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		parts := []Partition{NewFile(64), NewQueue(64), NewKV(64, 16, []SlotRange{{Lo: 0, Hi: 15}})}
		errs := make([]error, len(parts))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, p := range parts {
			errs[i] = p.Restore(data)
		}
		runtime.ReadMemStats(&after)
		// Every count is bounded by the bytes left, so decoding allocates
		// a bounded multiple of the input; a KV shard adds its hash
		// table's growth. The constant absorbs error formatting.
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(1024*len(data)+1<<20); n > limit {
			t.Fatalf("restoring %d bytes 3 ways allocated %d bytes, limit %d", len(data), n, limit)
		}
		for i, p := range parts {
			if errs[i] != nil {
				if p.Bytes() != 0 || p.Capacity() != 64 {
					t.Fatalf("refused %v restore left %d bytes, capacity %d", p.Type(), p.Bytes(), p.Capacity())
				}
				continue
			}
			switch p := p.(type) {
			case *File:
				_, _ = p.ReadAt(0, p.Capacity())
			case *Queue:
				_, _ = p.Peek()
			case *KV:
				var keys []string
				p.table.Range(func(key string, _ []byte) bool {
					keys = append(keys, key)
					return true
				})
				for _, key := range keys {
					_, _ = p.Get(key)
				}
			}
		}
	})
}
