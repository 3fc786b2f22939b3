package ds

import (
	"encoding/binary"
	"fmt"

	"jiffy/internal/core"
)

// Replication-hop codec (§4.2.2). A chain member forwards a sequenced
// mutation to its successor as
//
//	u64  seq   position in the block's replication stream
//	u64  gen   chain generation the stream belongs to
//	...  the data-plane request encoding (see AppendRequest), addressed
//	     to the successor's block
//
// The chain itself is not on the wire: every member of a generation
// was installed with the same chain (createBlock / UpdateChain), so
// each hop finds its own successor.

// replicatePrefixLen is the size of the seq|gen prefix.
const replicatePrefixLen = 16

// AppendReplicateVec encodes one hop without copying the argument
// bodies: prefix, fixed fields and arg lengths go into head, and the
// returned segments interleave subslices of head with the args — which
// at a mid-chain member still alias the inbound request frame. buf is
// head's final backing buffer; release it (wire.PutBuf) once the
// segments have been written.
func AppendReplicateVec(head []byte, seq, gen uint64, op core.OpType, block core.BlockID, args [][]byte) (vec [][]byte, buf []byte) {
	vec, buf = appendRequestVec(head, replicatePrefixLen, op, block, args)
	binary.BigEndian.PutUint64(buf[0:8], seq)
	binary.BigEndian.PutUint64(buf[8:16], gen)
	return vec, buf
}

// DecodeReplicate parses one hop into a fresh arg vector.
func DecodeReplicate(data []byte) (seq, gen uint64, op core.OpType, block core.BlockID, args [][]byte, err error) {
	return DecodeReplicateInto(nil, data)
}

// DecodeReplicateInto parses one hop, appending its args to dst; they
// alias data, and bytes after the hop are an error. The server decodes
// every hop into a pooled vector (dst[:0]).
func DecodeReplicateInto(dst [][]byte, data []byte) (seq, gen uint64, op core.OpType, block core.BlockID, args [][]byte, err error) {
	if len(data) < replicatePrefixLen {
		return 0, 0, 0, 0, nil, fmt.Errorf("ds: replicate hop too short (%d bytes)", len(data))
	}
	seq = binary.BigEndian.Uint64(data[0:8])
	gen = binary.BigEndian.Uint64(data[8:16])
	op, block, args, rest, err := decodeRequestPrefix(dst, data[replicatePrefixLen:])
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	if len(rest) != 0 {
		return 0, 0, 0, 0, nil, fmt.Errorf("ds: %d trailing bytes after replicate hop", len(rest))
	}
	return seq, gen, op, block, args, nil
}
