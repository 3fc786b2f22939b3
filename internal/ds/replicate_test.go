package ds

import (
	"bytes"
	"encoding/binary"
	"testing"

	"jiffy/internal/core"
)

// flattenVec concatenates scatter-gather segments as the wire does.
func flattenVec(vec [][]byte) []byte {
	var out []byte
	for _, seg := range vec {
		out = append(out, seg...)
	}
	return out
}

// contiguousReplicate is the reference encoding of a hop: the seq|gen
// prefix followed by the contiguous request encoding.
func contiguousReplicate(seq, gen uint64, op core.OpType, block core.BlockID, args [][]byte) []byte {
	out := binary.BigEndian.AppendUint64(nil, seq)
	out = binary.BigEndian.AppendUint64(out, gen)
	return AppendRequest(out, op, block, args)
}

// TestReplicateVecAliasesArgs: the hop's segments carry the argument
// slices themselves — at a mid-chain member those are views of the
// inbound frame — and the decoded args are views of the decoded frame.
func TestReplicateVecAliasesArgs(t *testing.T) {
	big := bytes.Repeat([]byte("r"), 9000)
	args := [][]byte{U64(4096), big}
	vec, buf := AppendReplicateVec(nil, make([]byte, 0, 64), 7, 3, core.OpFileWrite, 42, args)
	if len(vec) != 4 || &vec[1][0] != &args[0][0] || &vec[3][0] != &big[0] {
		t.Fatalf("hop vector copied its args: %d segments", len(vec))
	}
	if &vec[0][0] != &buf[0] {
		t.Fatal("head segment is not backed by the returned buffer")
	}
	flat := flattenVec(vec)
	seq, gen, op, block, got, err := DecodeReplicateInto(nil, flat)
	if err != nil || seq != 7 || gen != 3 || op != core.OpFileWrite || block != 42 || len(got) != 2 {
		t.Fatalf("decode: seq=%d gen=%d op=%v block=%v args=%d err=%v", seq, gen, op, block, len(got), err)
	}
	if &got[1][0] != &flat[len(flat)-len(big)] {
		t.Fatal("decoded payload arg is a copy, not a view of the frame")
	}
}

// FuzzReplicateDecode covers the replication hop's codec: the vectored
// encoding is byte-identical to the contiguous one, decodes back to
// what was encoded, every truncation and an overflowing arg length are
// rejected, and arbitrary bytes either fail cleanly or decode to
// something that re-encodes to the same bytes — never a panic, never
// an arg reaching past the frame.
func FuzzReplicateDecode(f *testing.F) {
	f.Add(uint64(0), uint64(0), byte(core.OpPut), uint64(1), []byte("k"), []byte("v"), []byte(nil))
	f.Add(uint64(41), uint64(7), byte(core.OpFileWrite), uint64(1)<<40, U64(1<<20), bytes.Repeat([]byte{0xab}, 8192), []byte(nil))
	f.Add(^uint64(0), ^uint64(0), byte(core.OpEnqueue), ^uint64(0), []byte(nil), []byte(nil), []byte(nil))
	// testdata/fuzz/FuzzReplicateDecode adds the raw frames: short and
	// bare prefixes, a forged arg count, an arg length reaching past the
	// frame, trailing garbage after a valid hop.

	f.Fuzz(func(t *testing.T, seq, gen uint64, opByte byte, blockID uint64, argA, argB, raw []byte) {
		op, block := core.OpType(opByte), core.BlockID(blockID)
		args := [][]byte{argA, argB}

		vec, _ := AppendReplicateVec(nil, nil, seq, gen, op, block, args)
		flat := flattenVec(vec)
		if want := contiguousReplicate(seq, gen, op, block, args); !bytes.Equal(flat, want) {
			t.Fatalf("vectored encoding (%d bytes) != contiguous (%d bytes)", len(flat), len(want))
		}
		gotSeq, gotGen, gotOp, gotBlock, gotArgs, err := DecodeReplicateInto(nil, flat)
		if err != nil {
			t.Fatalf("decode of a valid hop: %v", err)
		}
		if gotSeq != seq || gotGen != gen || gotOp != op || gotBlock != block ||
			len(gotArgs) != 2 || !bytes.Equal(gotArgs[0], argA) || !bytes.Equal(gotArgs[1], argB) {
			t.Fatalf("round trip: seq=%d gen=%d op=%v block=%v args=%d", gotSeq, gotGen, gotOp, gotBlock, len(gotArgs))
		}

		// Every truncation is rejected. Long bodies are cut at the
		// structural boundaries only; the bytes between behave alike.
		cuts := []int{0, 15, 16, 26, 27, 30, 31, 31 + len(argA), 35 + len(argA), len(flat) - 1}
		if len(flat) <= 512 {
			cuts = cuts[:0]
			for n := 0; n < len(flat); n++ {
				cuts = append(cuts, n)
			}
		}
		for _, n := range cuts {
			if n < 0 || n >= len(flat) {
				continue
			}
			if _, _, _, _, _, err := DecodeReplicateInto(nil, flat[:n]); err == nil {
				t.Fatalf("hop truncated to %d of %d bytes decoded", n, len(flat))
			}
		}
		// An arg length one past what the frame holds is rejected, as is
		// the largest one a peer can claim.
		for _, claim := range []uint32{uint32(len(argB)) + 1, ^uint32(0)} {
			forged := append([]byte(nil), flat...)
			binary.BigEndian.PutUint32(forged[31+len(argA):], claim)
			if _, _, _, _, _, err := DecodeReplicateInto(nil, forged); err == nil {
				t.Fatalf("arg length %d in a %d-byte hop decoded", claim, len(forged))
			}
		}

		// Arbitrary bytes: fail cleanly, or decode canonically with every
		// arg inside the frame.
		rSeq, rGen, rOp, rBlock, rArgs, err := DecodeReplicateInto(nil, raw)
		if err != nil {
			return
		}
		total := 0
		for _, a := range rArgs {
			total += len(a)
		}
		if total > len(raw) {
			t.Fatalf("decoded args hold %d bytes of a %d-byte frame", total, len(raw))
		}
		if back := contiguousReplicate(rSeq, rGen, rOp, rBlock, rArgs); !bytes.Equal(back, raw) {
			t.Fatalf("accepted frame is not canonical: %x re-encodes to %x", raw, back)
		}
	})
}
