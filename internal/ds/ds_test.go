package ds

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/wire"
)

// --- codec ----------------------------------------------------------------

func TestRequestCodecRoundTrip(t *testing.T) {
	f := func(op uint8, block uint64, args [][]byte) bool {
		data := AppendRequest(nil, core.OpType(op), core.BlockID(block), args)
		gotOp, gotBlock, gotArgs, err := DecodeRequestInto(nil, data)
		if err != nil {
			return false
		}
		if gotOp != core.OpType(op) || gotBlock != core.BlockID(block) {
			return false
		}
		if len(gotArgs) != len(args) {
			return false
		}
		for i := range args {
			if !bytes.Equal(gotArgs[i], args[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValsCodecRoundTrip(t *testing.T) {
	f := func(vals [][]byte) bool {
		got, err := DecodeValsInto(nil, EncodeVals(vals))
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if !bytes.Equal(got[i], vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDecodeRequestTruncated: a request or result vector cut short, or
// followed by stray bytes, is refused.
func TestDecodeRequestTruncated(t *testing.T) {
	full := AppendRequest(nil, core.OpPut, 7, [][]byte{[]byte("key"), []byte("value")})
	for cut := 0; cut < len(full); cut++ {
		if _, _, _, err := DecodeRequestInto(nil, full[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, _, args, err := DecodeRequestInto(nil, append(full, 0xde, 0xad)); err == nil {
		t.Errorf("request with 2 trailing bytes accepted with args %q", args)
	}
	vals := EncodeVals([][]byte{[]byte("v"), nil})
	if got, err := DecodeValsInto(nil, append(vals, 1, 2, 3)); err == nil {
		t.Errorf("result vector with 3 trailing bytes accepted as %q", got)
	}
}

func TestU64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
		got, err := ParseU64(U64(v))
		if err != nil || got != v {
			t.Errorf("U64(%d) round trip = %d, %v", v, got, err)
		}
	}
	if _, err := ParseU64([]byte{1, 2}); err == nil {
		t.Error("short integer accepted")
	}
}

// --- file -------------------------------------------------------------------

func TestFileWriteRead(t *testing.T) {
	f := NewFile(1024)
	if f.Type() != core.DSFile || f.Capacity() != 1024 {
		t.Fatal("metadata wrong")
	}
	n, err := f.WriteAt(0, []byte("hello"))
	if err != nil || n != 5 {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	got, err := f.ReadAt(0, 5)
	if err != nil || string(got) != "hello" {
		t.Errorf("ReadAt = %q, %v", got, err)
	}
	if f.Bytes() != 5 {
		t.Errorf("Bytes = %d", f.Bytes())
	}
}

func TestFileSparseWrite(t *testing.T) {
	f := NewFile(1024)
	f.WriteAt(100, []byte("tail"))
	if f.Bytes() != 104 {
		t.Errorf("high-water mark = %d, want 104", f.Bytes())
	}
	got, _ := f.ReadAt(0, 10)
	if len(got) != 10 || !bytes.Equal(got, make([]byte, 10)) {
		t.Errorf("hole read = %v", got)
	}
}

func TestFileReadBeyondEOF(t *testing.T) {
	f := NewFile(100)
	f.WriteAt(0, []byte("abc"))
	got, err := f.ReadAt(3, 10)
	if err != nil || len(got) != 0 {
		t.Errorf("read at EOF = %v, %v", got, err)
	}
	got, err = f.ReadAt(2, 10) // short read
	if err != nil || string(got) != "c" {
		t.Errorf("short read = %q, %v", got, err)
	}
}

func TestFileCapacityEnforced(t *testing.T) {
	f := NewFile(10)
	if _, err := f.WriteAt(5, []byte("123456")); !errors.Is(err, core.ErrBlockFull) {
		t.Errorf("over-capacity write = %v", err)
	}
	if _, err := f.WriteAt(-1, []byte("x")); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestFileApply(t *testing.T) {
	f := NewFile(100)
	res, err := f.Apply(core.OpFileWrite, [][]byte{U64(0), []byte("data")})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := ParseU64(res[0]); n != 4 {
		t.Errorf("written = %d", n)
	}
	res, err = f.Apply(core.OpFileRead, [][]byte{U64(0), U64(4)})
	if err != nil || string(res[0]) != "data" {
		t.Errorf("read = %q, %v", res[0], err)
	}
	if _, err := f.Apply(core.OpPut, [][]byte{nil, nil}); !errors.Is(err, core.ErrWrongType) {
		t.Errorf("kv op on file = %v", err)
	}
	if _, err := f.Apply(core.OpFileWrite, nil); err == nil {
		t.Error("missing args accepted")
	}
}

func TestFileSnapshotRestore(t *testing.T) {
	f := NewFile(100)
	f.WriteAt(0, []byte("persistent"))
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	g := NewFile(0)
	if err := g.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got, _ := g.ReadAt(0, 10)
	if string(got) != "persistent" || g.Capacity() != 100 {
		t.Errorf("restored = %q cap=%d", got, g.Capacity())
	}
}

// --- queue -------------------------------------------------------------------

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(1024)
	for i := 0; i < 10; i++ {
		if err := q.Enqueue([]byte(fmt.Sprintf("item-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 10 {
		t.Errorf("len = %d", q.Len())
	}
	for i := 0; i < 10; i++ {
		item, err := q.Dequeue()
		if err != nil || string(item) != fmt.Sprintf("item-%d", i) {
			t.Fatalf("dequeue %d = %q, %v", i, item, err)
		}
	}
	if _, err := q.Dequeue(); !errors.Is(err, core.ErrEmpty) {
		t.Errorf("empty dequeue = %v", err)
	}
	if q.Bytes() != 0 {
		t.Errorf("bytes after drain = %d", q.Bytes())
	}
}

func TestQueueCapacity(t *testing.T) {
	q := NewQueue(10)
	if err := q.Enqueue(make([]byte, 11)); !errors.Is(err, core.ErrTooLarge) {
		t.Errorf("oversized item = %v", err)
	}
	q.Enqueue(make([]byte, 6))
	if err := q.Enqueue(make([]byte, 6)); !errors.Is(err, core.ErrBlockFull) {
		t.Errorf("over-capacity enqueue = %v", err)
	}
	// Dequeue frees space.
	q.Dequeue()
	if err := q.Enqueue(make([]byte, 6)); err != nil {
		t.Errorf("enqueue after dequeue = %v", err)
	}
}

func TestQueueRedirect(t *testing.T) {
	q := NewQueue(10)
	q.Enqueue([]byte("last"))
	next := core.BlockInfo{ID: 42, Server: "srv-2"}
	q.SetNext(next)
	// Sealed segment redirects enqueues.
	err := q.Enqueue([]byte("x"))
	if !errors.Is(err, core.ErrRedirect) {
		t.Fatalf("enqueue on sealed = %v", err)
	}
	got, perr := ParseRedirect(RedirectPayloadOf(err))
	if perr != nil || got != next {
		t.Errorf("redirect target = %v, %v", got, perr)
	}
	// Pending items still dequeue locally, then redirect.
	if item, err := q.Dequeue(); err != nil || string(item) != "last" {
		t.Fatalf("dequeue = %q, %v", item, err)
	}
	if !q.Drained() {
		t.Error("sealed+empty should be drained")
	}
	err = q.Dequeue2()
	if !errors.Is(err, core.ErrRedirect) {
		t.Errorf("drained dequeue = %v", err)
	}
}

// Dequeue2 is a helper to get just the error.
func (q *Queue) Dequeue2() error { _, err := q.Dequeue(); return err }

func TestQueueApply(t *testing.T) {
	q := NewQueue(100)
	if _, err := q.Apply(core.OpEnqueue, [][]byte{[]byte("a")}); err != nil {
		t.Fatal(err)
	}
	res, err := q.Apply(core.OpDequeue, nil)
	if err != nil || string(res[0]) != "a" {
		t.Errorf("dequeue = %v, %v", res, err)
	}
	if _, err := q.Apply(core.OpGet, [][]byte{[]byte("k")}); !errors.Is(err, core.ErrWrongType) {
		t.Errorf("kv op on queue = %v", err)
	}
}

func TestQueueSnapshotRestore(t *testing.T) {
	q := NewQueue(1000)
	q.Enqueue([]byte("one"))
	q.Enqueue([]byte("two"))
	q.Dequeue() // consume "one"; snapshot holds only pending items
	q.SetNext(core.BlockInfo{ID: 9, Server: "s"})
	snap, err := q.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r := NewQueue(0)
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	item, err := r.Dequeue()
	if err != nil || string(item) != "two" {
		t.Errorf("restored dequeue = %q, %v", item, err)
	}
	next, ok := r.Next()
	if !ok || next.ID != 9 {
		t.Errorf("restored next = %v, %v", next, ok)
	}
}

func TestQueueFIFOProperty(t *testing.T) {
	f := func(items [][]byte) bool {
		q := NewQueue(1 << 30)
		for _, it := range items {
			if err := q.Enqueue(it); err != nil {
				return false
			}
		}
		for _, want := range items {
			got, err := q.Dequeue()
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		_, err := q.Dequeue()
		return errors.Is(err, core.ErrEmpty)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// --- kv ---------------------------------------------------------------------

func fullKV(capacity int) *KV {
	return NewKV(capacity, 64, []SlotRange{{Lo: 0, Hi: 63}})
}

func TestKVPutGetDelete(t *testing.T) {
	kv := fullKV(core.MB)
	if err := kv.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := kv.Get("k1")
	if err != nil || string(v) != "v1" {
		t.Errorf("Get = %q, %v", v, err)
	}
	old, err := kv.Delete("k1")
	if err != nil || string(old) != "v1" {
		t.Errorf("Delete = %q, %v", old, err)
	}
	if _, err := kv.Get("k1"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Get deleted = %v", err)
	}
	if _, err := kv.Delete("k1"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Delete missing = %v", err)
	}
}

func TestKVUpdate(t *testing.T) {
	kv := fullKV(core.MB)
	if _, err := kv.Update("k", []byte("v")); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("update missing = %v", err)
	}
	kv.Put("k", []byte("v1"))
	old, err := kv.Update("k", []byte("v2"))
	if err != nil || string(old) != "v1" {
		t.Errorf("update = %q, %v", old, err)
	}
	v, _ := kv.Get("k")
	if string(v) != "v2" {
		t.Errorf("after update = %q", v)
	}
}

func TestKVOwnership(t *testing.T) {
	// Shard owning no slots rejects everything with ErrStaleEpoch.
	kv := NewKV(core.MB, 64, nil)
	if err := kv.Put("k", []byte("v")); !errors.Is(err, core.ErrStaleEpoch) {
		t.Errorf("put on disowned = %v", err)
	}
	if _, err := kv.Get("k"); !errors.Is(err, core.ErrStaleEpoch) {
		t.Errorf("get on disowned = %v", err)
	}
}

func TestKVCapacity(t *testing.T) {
	kv := fullKV(100)
	if err := kv.Put("k", make([]byte, 200)); !errors.Is(err, core.ErrTooLarge) {
		t.Errorf("oversized = %v", err)
	}
	kv.Put("a", make([]byte, 60))
	if err := kv.Put("b", make([]byte, 60)); !errors.Is(err, core.ErrBlockFull) {
		t.Errorf("over capacity = %v", err)
	}
	// Overwriting an existing key is allowed even at capacity.
	if err := kv.Put("a", make([]byte, 50)); err != nil {
		t.Errorf("overwrite at capacity = %v", err)
	}
}

func TestKVApply(t *testing.T) {
	kv := fullKV(core.MB)
	if _, err := kv.Apply(core.OpPut, [][]byte{[]byte("k"), []byte("v")}); err != nil {
		t.Fatal(err)
	}
	res, err := kv.Apply(core.OpGet, [][]byte{[]byte("k")})
	if err != nil || string(res[0]) != "v" {
		t.Errorf("get = %v, %v", res, err)
	}
	if _, err := kv.Apply(core.OpExists, [][]byte{[]byte("k")}); err != nil {
		t.Errorf("exists = %v", err)
	}
	if _, err := kv.Apply(core.OpExists, [][]byte{[]byte("zz")}); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("exists missing = %v", err)
	}
	if _, err := kv.Apply(core.OpEnqueue, [][]byte{[]byte("x")}); !errors.Is(err, core.ErrWrongType) {
		t.Errorf("queue op on kv = %v", err)
	}
}

// TestKVOverwriteBoundedByCapacity: an overwrite or Update that grows
// the shard past its capacity is refused like an insert, and a pair
// larger than the block is refused outright, whatever the op.
func TestKVOverwriteBoundedByCapacity(t *testing.T) {
	kv := fullKV(1024)
	if err := kv.Put("a", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("b", bytes.Repeat([]byte("b"), 800)); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("a", make([]byte, 1000)); !errors.Is(err, core.ErrBlockFull) {
		t.Errorf("overwrite growing to 1 802 B in 1 024 = %v, want ErrBlockFull", err)
	}
	if _, err := kv.Update("b", make([]byte, 5000)); !errors.Is(err, core.ErrTooLarge) {
		t.Errorf("update with a 5 001 B pair = %v, want ErrTooLarge", err)
	}
	if _, err := kv.Update("b", make([]byte, 1000)); !errors.Is(err, core.ErrBlockFull) {
		t.Errorf("update growing to 1 102 B in 1 024 = %v, want ErrBlockFull", err)
	}
	if kv.Bytes() != 902 {
		t.Fatalf("refused writes left %d bytes, want 902", kv.Bytes())
	}
	old, err := kv.Update("b", make([]byte, 700))
	if err != nil || !bytes.Equal(old, bytes.Repeat([]byte("b"), 800)) {
		t.Errorf("shrinking update = %d bytes, %v; want the old 800", len(old), err)
	}
}

// slots applies one slot ownership op.
func slots(t testing.TB, kv *KV, op core.OpType, ranges []SlotRange, drop bool) {
	t.Helper()
	if _, err := kv.Apply(op, SlotArgs(op, ranges, drop)); err != nil {
		t.Fatal(err)
	}
}

// TestKVDisownStrandsNoWrite: a put racing a disown either lands
// before the disown, and is pulled with its slot, or is refused as
// stale. An acknowledged put is never stranded in the donor, where no
// client would look for it again.
func TestKVDisownStrandsNoWrite(t *testing.T) {
	for round := 0; round < 200; round++ {
		kv := fullKV(core.MB)
		upper := UpperHalf(kv.Owned())
		stop := make(chan struct{})
		acked := make([][]string, 4)
		var wg sync.WaitGroup
		for w := range acked {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					key := fmt.Sprintf("w%d-%d", w, i)
					if kv.Put(key, []byte("v")) == nil {
						acked[w] = append(acked[w], key)
					}
				}
			}()
		}
		time.Sleep(100 * time.Microsecond)
		slots(t, kv, core.OpDisownSlots, upper, false)
		snap, err := kv.SnapshotSlots(upper)
		if err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		pulled := NewKV(core.MB, 64, nil)
		if err := pulled.LoadSlots(upper, snap); err != nil {
			t.Fatal(err)
		}
		slots(t, pulled, core.OpOwnSlots, upper, false)
		for _, keys := range acked {
			for _, key := range keys {
				slot := SlotOf(key, 64)
				if _, err := pulled.Get(key); slot >= upper[0].Lo && err != nil {
					t.Fatalf("round %d: put of %s (slot %d) acknowledged but neither pulled nor refused", round, key, slot)
				}
			}
		}
	}
}

// TestKVAppendRead: a get answered by appending encodes the same
// one-value vector Apply returns, behind whatever dst held; a miss or a
// foreign slot leaves dst as it was.
func TestKVAppendRead(t *testing.T) {
	kv := fullKV(core.MB)
	kv.Put("k", []byte("value"))
	out, handled, err := AppendAnswer(kv, []byte("head"), core.OpGet, [][]byte{[]byte("k")})
	if !handled || err != nil || !bytes.Equal(out, append([]byte("head"), EncodeVals([][]byte{[]byte("value")})...)) {
		t.Fatalf("AppendAnswer = %q, %v, %v", out, handled, err)
	}
	out, _, err = AppendAnswer(kv, []byte("head"), core.OpGet, [][]byte{[]byte("missing")})
	if !errors.Is(err, core.ErrNotFound) || string(out) != "head" {
		t.Errorf("miss = %q, %v", out, err)
	}
	if _, handled, _ := AppendAnswer(kv, nil, core.OpPut, nil); handled {
		t.Error("a put took the appending path")
	}
}

// TestAppendAnswerMatchesApply: every op a built-in answers by
// appending encodes, behind whatever dst held, the vector its Apply
// returns on a twin partition; Apply's integer answer is one object;
// and an op without the appending form is left to the caller.
func TestAppendAnswerMatchesApply(t *testing.T) {
	seeded := func(typ core.DSType) Partition {
		switch typ {
		case core.DSFile:
			f := NewFile(1024)
			f.Append([]byte("xy"))
			return f
		case core.DSKV:
			kv := fullKV(core.MB)
			kv.Put("k", []byte("value"))
			return kv
		}
		q := NewQueue(1024)
		q.Enqueue([]byte("item"))
		return q
	}
	for _, c := range []struct {
		typ     core.DSType
		op      core.OpType
		args    [][]byte
		handled bool
	}{
		{core.DSFile, core.OpFileWrite, [][]byte{U64(3), []byte("abc")}, true},
		{core.DSFile, core.OpFileAppend, [][]byte{[]byte("abc")}, true},
		{core.DSFile, core.OpUsage, nil, true},
		{core.DSFile, core.OpFileRead, [][]byte{U64(0), U64(2)}, false},
		{core.DSKV, core.OpGet, [][]byte{[]byte("k")}, true},
		{core.DSKV, core.OpUsage, nil, true},
		{core.DSKV, core.OpPut, [][]byte{[]byte("k"), []byte("v")}, false},
		{core.DSQueue, core.OpUsage, nil, true},
		{core.DSQueue, core.OpEnqueue, [][]byte{[]byte("x")}, false},
	} {
		name := fmt.Sprintf("%v %v", c.typ, c.op)
		want, err := seeded(c.typ).Apply(c.op, c.args)
		if err != nil {
			t.Fatalf("%s: Apply: %v", name, err)
		}
		got, handled, err := AppendAnswer(seeded(c.typ), []byte("head"), c.op, c.args)
		if handled != c.handled || err != nil {
			t.Fatalf("%s: handled=%v, %v; want handled=%v", name, handled, err, c.handled)
		}
		if !handled {
			if string(got) != "head" {
				t.Errorf("%s: unhandled op extended dst to %q", name, got)
			}
			continue
		}
		if !bytes.Equal(got, append([]byte("head"), EncodeVals(want)...)) {
			t.Errorf("%s: AppendAnswer = %q, Apply = %q", name, got, want)
		}
	}
	f := seeded(core.DSFile)
	if allocs := testing.AllocsPerRun(100, func() { f.Apply(core.OpUsage, nil) }); allocs != 1 {
		t.Errorf("Apply's integer answer is %.1f objects, want 1", allocs)
	}
}

func TestKVSplitUpper(t *testing.T) {
	kv := fullKV(core.MB)
	upper := UpperHalf(kv.Owned())
	count := 0
	for _, r := range upper {
		count += r.Count()
	}
	if count != 32 {
		t.Errorf("upper half = %d slots, want 32", count)
	}
	// A single-slot shard cannot split.
	if upper := UpperHalf([]SlotRange{{Lo: 5, Hi: 5}}); upper != nil {
		t.Errorf("single-slot shard split = %v, want none", upper)
	}
}

// splitKV runs a split's shard steps in order: the donor disowns upper,
// the target loads the donor's pairs there and owns upper, and the donor
// drops them.
func splitKV(t testing.TB, donor *KV) *KV {
	upper := UpperHalf(donor.Owned())
	slots(t, donor, core.OpDisownSlots, upper, false)
	snap, err := donor.SnapshotSlots(upper)
	if err != nil {
		t.Fatal(err)
	}
	target := NewKV(core.MB, 64, nil)
	if err := target.LoadSlots(upper, snap); err != nil {
		t.Fatal(err)
	}
	slots(t, target, core.OpOwnSlots, upper, false)
	slots(t, donor, core.OpDisownSlots, upper, true)
	return target
}

// TestKVSlotMove: after a split's steps every key is reachable from
// exactly one shard, the donor holds none of the moved pairs, and a
// load into slots the shard owns is refused.
func TestKVSlotMove(t *testing.T) {
	donor := fullKV(core.MB)
	const n = 500
	for i := 0; i < n; i++ {
		donor.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i)))
	}
	recipient := splitKV(t, donor)
	if moved := recipient.Len(); moved == 0 || moved == n || donor.Len()+moved != n {
		t.Fatalf("moved %d of %d entries, donor kept %d; expected a proper split", moved, n, donor.Len())
	}

	// Every key is now reachable from exactly one shard.
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		want := fmt.Sprintf("val-%d", i)
		dv, derr := donor.Get(key)
		rv, rerr := recipient.Get(key)
		switch {
		case derr == nil && rerr != nil:
			if string(dv) != want {
				t.Errorf("%s from donor = %q", key, dv)
			}
		case derr != nil && rerr == nil:
			if string(rv) != want {
				t.Errorf("%s from recipient = %q", key, rv)
			}
			if err := donor.Put(key, []byte("x")); !errors.Is(err, core.ErrStaleEpoch) {
				t.Errorf("donor accepted write to moved key %q: %v", key, err)
			}
		default:
			t.Errorf("%s reachable from %v shards (donor err %v, recipient err %v)",
				key, map[bool]int{true: 2, false: 0}[derr == nil && rerr == nil], derr, rerr)
		}
	}
	snap, err := donor.SnapshotSlots(donor.Owned())
	if err != nil {
		t.Fatal(err)
	}
	if err := recipient.LoadSlots(recipient.Owned(), snap); !errors.Is(err, core.ErrStaleEpoch) {
		t.Errorf("load into owned slots = %v, want ErrStaleEpoch", err)
	}
}

// TestKVSplitPreservesData is the repartition-invariant property test:
// after any sequence of splits, the union of shards contains exactly
// the original pairs.
func TestKVSplitPreservesData(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shards := []*KV{fullKV(core.MB)}
		want := map[string]string{}
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("key-%d", rng.Intn(1000))
			v := fmt.Sprintf("val-%d", rng.Int())
			// Route to owning shard.
			for _, s := range shards {
				if err := s.Put(k, []byte(v)); err == nil {
					want[k] = v
					break
				} else if !errors.Is(err, core.ErrStaleEpoch) {
					return false
				}
			}
			// Occasionally split a random shard.
			if i%50 == 49 {
				donor := shards[rng.Intn(len(shards))]
				if UpperHalf(donor.Owned()) != nil {
					shards = append(shards, splitKV(t, donor))
				}
			}
		}
		// Every expected pair is reachable from exactly one shard.
		for k, v := range want {
			found := 0
			for _, s := range shards {
				if got, err := s.Get(k); err == nil {
					if string(got) != v {
						return false
					}
					found++
				}
			}
			if found != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestKVSnapshotRestore(t *testing.T) {
	kv := NewKV(1000, 64, []SlotRange{{Lo: 0, Hi: 31}})
	for i := 0; i < 20; i++ {
		kv.Put(fmt.Sprintf("k%d", i), []byte("v")) // some will fail ownership
	}
	snap, err := kv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r := NewKV(0, 0, nil)
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if r.Len() != kv.Len() || r.Capacity() != 1000 {
		t.Errorf("restored len=%d cap=%d, want len=%d cap=1000", r.Len(), r.Capacity(), kv.Len())
	}
	owned := r.Owned()
	if len(owned) != 1 || owned[0] != (SlotRange{Lo: 0, Hi: 31}) {
		t.Errorf("restored owned = %v", owned)
	}
}

// --- slot range algebra -------------------------------------------------------

func TestSubtractRanges(t *testing.T) {
	owned := []SlotRange{{Lo: 0, Hi: 63}}
	out := SubtractRanges(owned, []SlotRange{{Lo: 32, Hi: 63}})
	if len(out) != 1 || out[0] != (SlotRange{Lo: 0, Hi: 31}) {
		t.Errorf("subtract upper = %v", out)
	}
	out = SubtractRanges(owned, []SlotRange{{Lo: 10, Hi: 20}})
	if len(out) != 2 || out[0] != (SlotRange{Lo: 0, Hi: 9}) || out[1] != (SlotRange{Lo: 21, Hi: 63}) {
		t.Errorf("subtract middle = %v", out)
	}
	out = SubtractRanges(owned, []SlotRange{{Lo: 0, Hi: 63}})
	if len(out) != 0 {
		t.Errorf("subtract all = %v", out)
	}
}

func TestAddRangesCoalesces(t *testing.T) {
	out := AddRanges([]SlotRange{{Lo: 0, Hi: 31}}, []SlotRange{{Lo: 32, Hi: 63}})
	if len(out) != 1 || out[0] != (SlotRange{Lo: 0, Hi: 63}) {
		t.Errorf("adjacent ranges not coalesced: %v", out)
	}
	out = AddRanges([]SlotRange{{Lo: 0, Hi: 10}}, []SlotRange{{Lo: 20, Hi: 30}})
	if len(out) != 2 {
		t.Errorf("disjoint ranges merged: %v", out)
	}
}

func TestRangeAlgebraProperty(t *testing.T) {
	// Property: subtract-then-add restores coverage of every slot.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lo := rng.Intn(32)
		hi := lo + rng.Intn(32)
		owned := []SlotRange{{Lo: 0, Hi: 63}}
		sub := []SlotRange{{Lo: lo, Hi: hi}}
		reduced := SubtractRanges(owned, sub)
		restored := AddRanges(reduced, sub)
		for s := 0; s <= 63; s++ {
			inReduced := false
			for _, r := range reduced {
				if r.Contains(s) {
					inReduced = true
				}
			}
			wantReduced := s < lo || s > hi
			if inReduced != wantReduced {
				return false
			}
			inRestored := false
			for _, r := range restored {
				if r.Contains(s) {
					inRestored = true
				}
			}
			if !inRestored {
				return false
			}
		}
		// The upper half of what is left is half its slots (rounded
		// down), all inside it.
		total, half := 0, 0
		for _, r := range reduced {
			total += r.Count()
		}
		upper := UpperHalf(reduced)
		for _, u := range upper {
			half += u.Count()
			if len(SubtractRanges([]SlotRange{u}, reduced)) != 0 {
				return false
			}
		}
		return half == total/2 && (upper == nil) == (total < 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSlotOfStableAndBounded(t *testing.T) {
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		s1 := SlotOf(key, 64)
		s2 := SlotOf(key, 64)
		if s1 != s2 {
			t.Fatalf("SlotOf unstable for %q", key)
		}
		if s1 < 0 || s1 >= 64 {
			t.Fatalf("SlotOf(%q) = %d out of range", key, s1)
		}
	}
}

// --- partition map -----------------------------------------------------------

func TestPartitionMapRouting(t *testing.T) {
	m := &PartitionMap{
		Type:     core.DSKV,
		NumSlots: 64,
		Blocks: []PartitionEntry{
			{Info: core.BlockInfo{ID: 1, Server: "a"}, Slots: []SlotRange{{Lo: 0, Hi: 31}}},
			{Info: core.BlockInfo{ID: 2, Server: "b"}, Slots: []SlotRange{{Lo: 32, Hi: 63}}},
		},
	}
	e, ok := m.BlockForSlot(5)
	if !ok || e.Info.ID != 1 {
		t.Errorf("slot 5 → %v, %v", e, ok)
	}
	e, ok = m.BlockForSlot(40)
	if !ok || e.Info.ID != 2 {
		t.Errorf("slot 40 → %v, %v", e, ok)
	}
	if _, ok := m.BlockForSlot(64); ok {
		t.Error("out-of-range slot routed")
	}
}

func TestPartitionMapChunksAndQueueEnds(t *testing.T) {
	m := &PartitionMap{
		Type: core.DSQueue,
		Blocks: []PartitionEntry{
			{Info: core.BlockInfo{ID: 10, Server: "a"}, Chunk: 2},
			{Info: core.BlockInfo{ID: 11, Server: "b"}, Chunk: 0},
			{Info: core.BlockInfo{ID: 12, Server: "c"}, Chunk: 1},
		},
	}
	head, ok := m.Head()
	if !ok || head.Info.ID != 11 {
		t.Errorf("head = %v", head)
	}
	tail, ok := m.Tail()
	if !ok || tail.Info.ID != 10 {
		t.Errorf("tail = %v", tail)
	}
	c, ok := m.BlockForChunk(1)
	if !ok || c.Info.ID != 12 {
		t.Errorf("chunk 1 = %v", c)
	}
	if _, ok := m.BlockForChunk(9); ok {
		t.Error("missing chunk found")
	}
	empty := &PartitionMap{}
	if _, ok := empty.Head(); ok {
		t.Error("empty map has a head")
	}
}

func TestNewPartition(t *testing.T) {
	for _, typ := range []core.DSType{core.DSFile, core.DSQueue, core.DSKV} {
		p, err := New(typ, 1024, 64)
		if err != nil || p.Type() != typ {
			t.Errorf("New(%v) = %v, %v", typ, p, err)
		}
	}
	if _, err := New(core.DSNone, 1024, 64); err == nil {
		t.Error("DSNone partition created")
	}
}

// TestFileLinkRedirectsAppends: once SetNext links a chunk, an append
// that does not fit is redirected to the successor, in the wire form a
// queue's redirect takes and with an error built once; a write past the
// capacity is still refused, and a snapshot carries no link.
func TestFileLinkRedirectsAppends(t *testing.T) {
	f := NewFile(64)
	if _, err := f.Append(make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 10)
	if _, err := f.Append(rec); !errors.Is(err, core.ErrBlockFull) {
		t.Fatalf("unlinked full chunk: append = %v, want ErrBlockFull", err)
	}
	next := core.BlockInfo{ID: 9, Server: "s9"}
	f.SetNext(next)
	out, args := make([]byte, 0, 16), [][]byte{rec}
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		_, _, err = AppendAnswer(f, out, core.OpFileAppend, args)
	})
	r := ErrResult(err)
	if to, perr := ParseRedirect(r.Blob); r.Code != core.CodeRedirect || perr != nil || to != next {
		t.Fatalf("linked full chunk: append = %v (%+v), want a redirect to %+v", err, to, next)
	}
	if allocs != 0 {
		t.Errorf("a redirected append allocates %.1f objects, want 0", allocs)
	}
	if off, err := f.Append(make([]byte, 4)); err != nil || off != 60 {
		t.Errorf("a record that fits: offset %d, %v; want 60", off, err)
	}
	if _, err := f.WriteAt(60, rec); !errors.Is(err, core.ErrBlockFull) {
		t.Errorf("write past the capacity of a linked chunk = %v, want ErrBlockFull", err)
	}
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	g := NewFile(64)
	if err := g.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Append(rec); !errors.Is(err, core.ErrBlockFull) {
		t.Errorf("restored chunk: append = %v, want ErrBlockFull (no link travels)", err)
	}
}

// TestNewKVFootprint: a new KV partition's table starts at its minimum,
// so one NewKV allocates about 1.3 KB. Pre-sized for 256 entries with
// all 64 of its stripes, it took 18.5 KB, in every KV block a server
// created.
func TestNewKVFootprint(t *testing.T) {
	if wire.Checked {
		t.Skip("allocation gates skip in an instrumented build")
	}
	const n = 64
	kvs := make([]*KV, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range kvs {
		kvs[i] = NewKV(core.MB, 64, []SlotRange{{Lo: 0, Hi: 63}})
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("NewKV: %d B", per)
	if per > 2*core.KB {
		t.Errorf("NewKV allocates %d B, want <= %d", per, 2*core.KB)
	}
}

// TestLoadSlotsAllocs: a split's import (LoadSlots) and a restore grow
// the empty shard's table once for the pairs they load
// (cuckoo.Table.Grow), so past decoding the snapshot they allocate
// that one growth's bucket and stripe arrays; a second growth would
// add its bucket array.
func TestLoadSlotsAllocs(t *testing.T) {
	if wire.Checked {
		t.Skip("allocation gates skip in an instrumented build")
	}
	const n = 3000
	donor := fullKV(core.MB)
	for i := 0; donor.Len() < 2*n; i++ {
		donor.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i)))
	}
	upper := UpperHalf(donor.Owned())
	slotSnap, err := donor.SnapshotSlots(upper)
	if err != nil {
		t.Fatal(err)
	}
	fullSnap, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	decode := func(snap []byte) func() {
		return func() {
			NewKV(core.MB, 64, nil)
			var s kvSnapshot
			if err := codec.Unmarshal(snap, &s); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name string
		snap []byte
		load func(k *KV) error
	}{
		{"LoadSlots", slotSnap, func(k *KV) error { return k.LoadSlots(upper, slotSnap) }},
		{"Restore", fullSnap, func(k *KV) error { return k.Restore(fullSnap) }},
	} {
		base := testing.AllocsPerRun(5, decode(c.snap))
		var k *KV
		got := testing.AllocsPerRun(5, func() {
			k = NewKV(core.MB, 64, nil)
			if err := c.load(k); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s of %d pairs: %.0f objects, %.0f past decoding", c.name, k.Len(), got, got-base)
		if got-base > 2 {
			t.Errorf("%s of %d pairs allocates %.0f objects past decoding, want <= 2", c.name, k.Len(), got-base)
		}
	}
}
