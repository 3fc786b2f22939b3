package ds

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"jiffy/internal/core"
)

func TestBatchRequestRoundTrip(t *testing.T) {
	in := []BatchOp{
		{Op: core.OpPut, Block: 7, Args: [][]byte{[]byte("k1"), []byte("v1")}},
		{Op: core.OpGet, Block: 9, Args: [][]byte{[]byte("k2")}},
		{Op: core.OpEnqueue, Block: 1 << 40, Args: [][]byte{bytes.Repeat([]byte{0xee}, 300)}},
		{Op: core.OpExists, Block: 0, Args: nil},
	}
	out, err := DecodeBatchRequest(AppendBatchRequest(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d ops, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Op != in[i].Op || out[i].Block != in[i].Block {
			t.Fatalf("op %d: got %+v, want %+v", i, out[i], in[i])
		}
		if len(out[i].Args) != len(in[i].Args) {
			t.Fatalf("op %d: %d args, want %d", i, len(out[i].Args), len(in[i].Args))
		}
		for j := range in[i].Args {
			if !bytes.Equal(out[i].Args[j], in[i].Args[j]) {
				t.Fatalf("op %d arg %d mismatch", i, j)
			}
		}
	}
}

func TestBatchRequestEmpty(t *testing.T) {
	out, err := DecodeBatchRequest(AppendBatchRequest(nil, nil))
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
}

func TestBatchRequestMalformed(t *testing.T) {
	good := AppendBatchRequest(nil, []BatchOp{
		{Op: core.OpPut, Block: 1, Args: [][]byte{[]byte("k"), []byte("v")}},
	})
	cases := []struct {
		name string
		data []byte
	}{
		{"empty input", nil},
		{"one byte", []byte{0}},
		{"count beyond payload", []byte{0xff, 0xff}},
		{"truncated op", good[:len(good)-3]},
		{"trailing bytes", append(append([]byte{}, good...), 0xaa)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeBatchRequest(tc.data); err == nil {
				t.Fatalf("malformed request decoded cleanly")
			}
		})
	}
}

func TestBatchResultsRoundTrip(t *testing.T) {
	in := []BatchResult{
		OKResult([][]byte{[]byte("value")}),
		OKResult(nil),
		{Code: core.CodeNotFound},
		{Code: core.CodeOther, Blob: []byte("custom failure")},
	}
	out, err := DecodeBatchResults(AppendBatchResults(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d results, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Code != in[i].Code || !bytes.Equal(out[i].Blob, in[i].Blob) {
			t.Fatalf("result %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
	if err := out[0].Err(); err != nil {
		t.Fatalf("result 0 Err = %v", err)
	}
	vals, err := DecodeValsInto(nil, out[0].Blob)
	if err != nil || len(vals) != 1 || string(vals[0]) != "value" {
		t.Fatalf("DecodeVals = %q, %v", vals, err)
	}
	if !errors.Is(out[2].Err(), core.ErrNotFound) {
		t.Fatalf("result 2 Err = %v, want ErrNotFound", out[2].Err())
	}
	if got := out[3].Err(); got == nil || got.Error() != "custom failure" {
		t.Fatalf("result 3 Err = %v", got)
	}
}

func TestBatchResultsMalformed(t *testing.T) {
	good := AppendBatchResults(nil, []BatchResult{OKResult([][]byte{[]byte("v")})})
	cases := []struct {
		name string
		data []byte
	}{
		{"empty input", nil},
		{"count beyond payload", []byte{0x00, 0x03, byte(core.CodeOK)}},
		{"truncated blob", good[:len(good)-1]},
		{"trailing bytes", append(append([]byte{}, good...), 0xbb)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeBatchResults(tc.data); err == nil {
				t.Fatalf("malformed response decoded cleanly")
			}
		})
	}
}

// TestErrResultRoundTrip checks that every error class survives the
// result encoding the way the single-op response path carries it:
// sentinels by code, redirects with their payload, everything else by
// message.
func TestErrResultRoundTrip(t *testing.T) {
	t.Run("sentinel", func(t *testing.T) {
		r := ErrResult(fmt.Errorf("wrapping: %w", core.ErrBlockFull))
		if !errors.Is(r.Err(), core.ErrBlockFull) {
			t.Fatalf("Err = %v, want ErrBlockFull", r.Err())
		}
	})
	t.Run("redirect carries successor", func(t *testing.T) {
		next := core.BlockInfo{ID: 42, Server: "mem://server-1"}
		r := ErrResult(&redirectError{payload: RedirectPayload(next)})
		if !errors.Is(r.Err(), core.ErrRedirect) {
			t.Fatalf("Err = %v, want ErrRedirect", r.Err())
		}
		got, err := ParseRedirect(r.Blob)
		if err != nil || got != next {
			t.Fatalf("redirect payload = %+v, %v; want %+v", got, err, next)
		}
	})
	t.Run("unclassified keeps message", func(t *testing.T) {
		r := ErrResult(errors.New("disk on fire"))
		if r.Code != core.CodeOther || r.Err().Error() != "disk on fire" {
			t.Fatalf("unclassified = %+v, Err=%v", r, r.Err())
		}
	})
	t.Run("survives the wire", func(t *testing.T) {
		in := []BatchResult{
			ErrResult(core.ErrStaleEpoch),
			ErrResult(&redirectError{payload: RedirectPayload(core.BlockInfo{ID: 7, Server: "s"})}),
		}
		out, err := DecodeBatchResults(AppendBatchResults(nil, in))
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(out[0].Err(), core.ErrStaleEpoch) || !errors.Is(out[1].Err(), core.ErrRedirect) {
			t.Fatalf("decoded errors = %v, %v", out[0].Err(), out[1].Err())
		}
	})
}

// FuzzBatchRequestDecode covers the batch request codec the server runs
// on every MethodDataOpBatch frame: arbitrary bytes never panic, an
// accepted frame re-encodes byte-identically through AppendBatchRequest,
// and although every op's args share the frame's one arg vector,
// appending to one op's Args never changes another op's. Each input is
// decoded twice, fresh and into the vectors the previous input left
// dirty, as the server's pooled decode does: the two must agree on
// acceptance and on every op, so a window left from a recycled frame
// fails.
func FuzzBatchRequestDecode(f *testing.F) {
	f.Add(AppendBatchRequest(nil, []BatchOp{
		{Op: core.OpFileAppend, Block: 7, Args: [][]byte{bytes.Repeat([]byte{0xab}, 100)}},
		{Op: core.OpFileAppend, Block: 7, Args: [][]byte{[]byte("r")}},
	}))
	f.Add(AppendBatchRequest(nil, []BatchOp{
		{Op: core.OpGet, Block: 1, Args: [][]byte{[]byte("k")}},
		{Op: core.OpPut, Block: 2, Args: [][]byte{[]byte("k"), []byte("v")}},
		{Op: core.OpDequeue, Block: 3},
		{Op: core.OpFileWrite, Block: 1 << 40, Args: [][]byte{U64(4096), nil}},
	}))
	// testdata/fuzz/FuzzBatchRequestDecode adds the raw frames: a count
	// that wrapped (two ops under a count of one, as 65 537 ops became
	// one), a forged count, a forged arg count, an arg length reaching
	// past the frame.

	var dirtyOps []BatchOp
	var dirtyArgv [][]byte
	f.Fuzz(func(t *testing.T, raw []byte) {
		ops, err := DecodeBatchRequest(raw)
		pooled, argv, perr := DecodeBatchRequestInto(dirtyOps, dirtyArgv, raw)
		dirtyArgv = argv
		if (err == nil) != (perr == nil) {
			t.Fatalf("fresh decode: %v; into dirty vectors: %v", err, perr)
		}
		if err != nil {
			return
		}
		dirtyOps = pooled
		if len(pooled) != len(ops) {
			t.Fatalf("%d ops decoded into dirty vectors, %d fresh", len(pooled), len(ops))
		}
		for i, o := range ops {
			p := pooled[i]
			if p.Op != o.Op || p.Block != o.Block || len(p.Args) != len(o.Args) || cap(p.Args) != len(p.Args) {
				t.Fatalf("op %d into dirty vectors = %v %v %d/%d args, fresh %v %v %d", i, p.Op, p.Block, len(p.Args), cap(p.Args), o.Op, o.Block, len(o.Args))
			}
			for j, a := range o.Args {
				if b := p.Args[j]; len(b) != len(a) || (len(a) > 0 && &b[0] != &a[0]) {
					t.Fatalf("op %d arg %d into dirty vectors is not the fresh one", i, j)
				}
			}
		}
		if back := AppendBatchRequest(nil, ops); !bytes.Equal(back, raw) {
			t.Fatalf("accepted frame is not canonical: %x re-encodes to %x", raw, back)
		}
		before := make([][][]byte, len(ops))
		for i, o := range ops {
			before[i] = append([][]byte(nil), o.Args...)
		}
		for i := range ops {
			_ = append(ops[i].Args, []byte("appended"))
		}
		for i, o := range ops {
			for j, a := range o.Args {
				if len(a) != len(before[i][j]) || (len(a) > 0 && &a[0] != &before[i][j][0]) {
					t.Fatalf("op %d arg %d changed after appending to its neighbours' args", i, j)
				}
			}
		}
	})
}
