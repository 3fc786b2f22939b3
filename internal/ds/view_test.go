package ds

import (
	"bytes"
	"testing"
	"time"

	"jiffy/internal/core"
)

// TestFileViewAliasesChunk proves the read view is genuinely zero-copy:
// the returned slice points into the chunk's backing array, and the
// lease blocks an in-place writer until Release fires.
func TestFileViewAliasesChunk(t *testing.T) {
	f := NewFile(core.MB)
	payload := bytes.Repeat([]byte("jiffy!"), 1024)
	if _, err := f.WriteAt(64, payload); err != nil {
		t.Fatal(err)
	}

	v, handled, err := f.ApplyView(core.OpFileRead,
		[][]byte{U64(64), U64(uint64(len(payload)))}, nil)
	if err != nil || !handled {
		t.Fatalf("ApplyView: handled=%v err=%v", handled, err)
	}
	if len(v.Vals) != 1 || !bytes.Equal(v.Vals[0], payload) {
		t.Fatalf("view returned wrong bytes")
	}
	if &v.Vals[0][0] != &f.data[64] {
		t.Fatalf("view copied the chunk bytes instead of aliasing them")
	}

	// The lease must hold writers off the chunk until released.
	wrote := make(chan struct{})
	go func() {
		f.WriteAt(64, []byte("overwrite"))
		close(wrote)
	}()
	select {
	case <-wrote:
		t.Fatal("WriteAt proceeded while a read lease was held")
	case <-time.After(20 * time.Millisecond):
	}
	v.Lease.Release()
	select {
	case <-wrote:
	case <-time.After(2 * time.Second):
		t.Fatal("WriteAt still blocked after the lease was released")
	}
}

// TestFileViewBounds exercises the hostile-offset edges: past the
// high-water mark (empty value, no lease) and length overflowing the
// mark (truncated, still aliased).
func TestFileViewBounds(t *testing.T) {
	f := NewFile(core.MB)
	if _, err := f.WriteAt(0, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}

	v, handled, err := f.ApplyView(core.OpFileRead, [][]byte{U64(100), U64(4)}, nil)
	if err != nil || !handled {
		t.Fatalf("past-end read: handled=%v err=%v", handled, err)
	}
	if len(v.Vals) != 1 || len(v.Vals[0]) != 0 || v.Lease != nil {
		t.Fatalf("past-end read: want empty value with no lease, got %d vals lease=%v",
			len(v.Vals), v.Lease != nil)
	}

	v, _, err = f.ApplyView(core.OpFileRead, [][]byte{U64(6), U64(1 << 40)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Vals[0]) != "6789" {
		t.Fatalf("truncated read = %q, want %q", v.Vals[0], "6789")
	}
	v.Lease.Release()
}

// TestFileReadViewAllocs is the allocation gate for the server-side
// read path: serving a pooled-size File read as a view (ApplyView +
// AppendValsVec into a reused head buffer) allocates nothing. The
// View's value slice and the scatter-gather segments extend reused
// vectors, and the lease is the chunk itself, so neither a copy of the
// data (64KiB here) nor any bookkeeping object may appear. Measured: 0
// objects; 2 with a bound RUnlock method value as the lease and a
// fresh segment vector per read.
func TestFileReadViewAllocs(t *testing.T) {
	f := NewFile(core.MB)
	payload := make([]byte, 64*core.KB)
	if _, err := f.WriteAt(0, payload); err != nil {
		t.Fatal(err)
	}
	args := [][]byte{U64(0), U64(uint64(len(payload)))}
	head := make([]byte, 0, 64)
	vals := make([][]byte, 0, 1)
	segs := make([][]byte, 0, 1)

	allocs := testing.AllocsPerRun(200, func() {
		v, handled, err := f.ApplyView(core.OpFileRead, args, vals[:0])
		if !handled || err != nil {
			t.Fatalf("ApplyView: handled=%v err=%v", handled, err)
		}
		_, vec := AppendValsVec(segs[:0], head, v.Vals)
		if len(vec) != 1 || len(vec[0]) != len(payload) {
			t.Fatalf("unexpected vector shape")
		}
		v.Lease.Release()
	})
	if allocs > 0 {
		t.Fatalf("view read path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestAppendValsVecLayout checks the vectored encoding byte-for-byte
// against the contiguous encoder for assorted value shapes, including
// the empty vector and empty values.
func TestAppendValsVecLayout(t *testing.T) {
	cases := [][][]byte{
		nil,
		{[]byte("x")},
		{nil},
		{[]byte("abc"), nil, bytes.Repeat([]byte("y"), 5000)},
		{U64(1), U64(2), U64(3)},
	}
	for _, vals := range cases {
		payload, vec := AppendValsVec(nil, nil, vals)
		var flat []byte
		flat = append(flat, payload...)
		for _, seg := range vec {
			flat = append(flat, seg...)
		}
		want := EncodeVals(vals)
		if !bytes.Equal(flat, want) {
			t.Fatalf("vals %d: vectored %x != contiguous %x", len(vals), flat, want)
		}
		got, err := DecodeValsInto(nil, flat)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(vals) {
			t.Fatalf("round trip lost values: %d != %d", len(got), len(vals))
		}
	}
}

// TestAppendRequestVecLayout checks the vectored request encoding
// against the contiguous encoder and that args ride as aliases.
func TestAppendRequestVecLayout(t *testing.T) {
	big := bytes.Repeat([]byte("z"), 9000)
	cases := [][][]byte{
		nil,
		{[]byte("k")},
		{U64(77), big},
	}
	for _, args := range cases {
		vec, buf := AppendRequestVec(nil, nil, core.OpFileWrite, 42, args)
		var flat []byte
		for _, seg := range vec {
			flat = append(flat, seg...)
		}
		want := AppendRequest(nil, core.OpFileWrite, 42, args)
		if !bytes.Equal(flat, want) {
			t.Fatalf("args %d: vectored %d bytes != contiguous %d bytes",
				len(args), len(flat), len(want))
		}
		op, block, gotArgs, err := DecodeRequestInto(nil, flat)
		if err != nil {
			t.Fatal(err)
		}
		if op != core.OpFileWrite || block != 42 || len(gotArgs) != len(args) {
			t.Fatalf("round trip mismatch: op=%v block=%v args=%d", op, block, len(gotArgs))
		}
		if len(args) > 0 && &vec[1][0] != &args[0][0] {
			t.Fatal("request vector copied its first arg")
		}
		_ = buf
	}
}
