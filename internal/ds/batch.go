package ds

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"jiffy/internal/core"
)

// Batch codec: the wire form of MethodDataOpBatch. A batch groups many
// data-plane operations destined for one server into a single request
// frame; the server executes them in order and replies with one result
// per op in a single response frame. Layouts (big endian):
//
//	request:  u16 nops (at most MaxBatchOps), then per op the single-op
//	          request layout (u8 op, u64 block, u16 nargs, per arg u32
//	          len + bytes)
//	response: u16 nresults, then per result u8 code + u32 len + blob
//
// A result's blob is the EncodeVals-encoded value vector on CodeOK, the
// redirect payload on CodeRedirect, and the error message on CodeOther.
// Ops fail independently: one op's error never aborts its neighbours,
// so the client always gets per-op attribution.

// BatchOp is one operation inside a batch request.
type BatchOp struct {
	Op    core.OpType
	Block core.BlockID
	Args  [][]byte
}

// BatchResult is one operation's outcome inside a batch response.
type BatchResult struct {
	Code core.ErrorCode
	Blob []byte
}

// OKResult wraps a successful op's value vector.
func OKResult(vals [][]byte) BatchResult {
	return BatchResult{Code: core.CodeOK, Blob: EncodeVals(vals)}
}

// ErrResult converts an op error into its wire form, preserving the
// sentinel code, the redirect payload, and unclassified messages. It
// is the one rule for both response shapes: a single-op response
// frame carries the same blob as its payload.
func ErrResult(err error) BatchResult {
	r := BatchResult{Code: core.CodeOf(err)}
	if p := RedirectPayloadOf(err); p != nil {
		r.Blob = p
	} else if r.Code == core.CodeOther || r.Code == core.CodeQuotaExceeded {
		// Quota refusals keep their message too: ErrOf parses the
		// retry-after hint back out of it on the client side.
		r.Blob = []byte(err.Error())
	}
	return r
}

// Err maps a non-OK result back to the error the single-op path would
// have returned; OK results yield nil.
func (r BatchResult) Err() error {
	if r.Code == core.CodeOK {
		return nil
	}
	return core.ErrOf(r.Code, r.Blob)
}

// MaxBatchOps is the most ops one batch frame carries: its count is a
// u16. A larger batch is cut into frames of at most this many ops.
const MaxBatchOps = math.MaxUint16

// AppendBatchRequest appends the batch request encoding to dst (which
// may be a pooled buffer). ops holds at most MaxBatchOps operations;
// more would wrap the count, so it panics instead.
func AppendBatchRequest(dst []byte, ops []BatchOp) []byte {
	if len(ops) > MaxBatchOps {
		panic(fmt.Sprintf("ds: batch of %d ops exceeds MaxBatchOps (%d)", len(ops), MaxBatchOps))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(ops)))
	for _, o := range ops {
		dst = AppendRequest(dst, o.Op, o.Block, o.Args)
	}
	return dst
}

// DecodeBatchRequest parses a batch request into fresh vectors.
func DecodeBatchRequest(data []byte) ([]BatchOp, error) {
	ops, _, err := DecodeBatchRequestInto(nil, nil, data)
	return ops, err
}

// DecodeBatchRequestInto parses a batch request, appending its ops to
// dst and every op's args to argv, the one arg vector of the whole
// frame; it returns both, so a caller decoding many frames reuses them
// (dst[:0], argv[:0]). argv grows to fit, at first by the first op's
// arg count per op (a client batch is one op kind); op i's Args is a
// full-slice-capped window into it, so appending to one op's Args never
// writes into another's. Args alias data; a nil dst and argv cost one
// vector each.
func DecodeBatchRequestInto(dst []BatchOp, argv [][]byte, data []byte) (ops []BatchOp, args [][]byte, err error) {
	if len(data) < 2 {
		return nil, argv, fmt.Errorf("ds: batch request too short (%d bytes)", len(data))
	}
	nops := int(binary.BigEndian.Uint16(data[0:2]))
	data = data[2:]
	if nops > len(data)/11 {
		// Every op needs at least its fixed fields; checking up front
		// keeps a forged count from sizing the allocations below.
		return nil, argv, fmt.Errorf("ds: batch of %d ops in %d bytes", nops, len(data))
	}
	ops = slices.Grow(dst[:0], nops)
	argv = argv[:0]
	if nops > 0 {
		perOp := int(binary.BigEndian.Uint16(data[9:11]))
		argv = slices.Grow(argv, min(nops*perOp, len(data)/4))
	}
	for i := 0; i < nops; i++ {
		start := len(argv)
		op, block, a, rest, err := decodeRequestPrefix(argv, data)
		if err != nil {
			return nil, argv, fmt.Errorf("ds: batch op %d: %w", i, err)
		}
		argv = a
		ops = append(ops, BatchOp{Op: op, Block: block, Args: argv[start:]})
		data = rest
	}
	if len(data) != 0 {
		return nil, argv, fmt.Errorf("ds: batch request has %d trailing bytes", len(data))
	}
	// Windows taken before a mixed batch outgrew the first guess point
	// into an older vector: cut every window from the final one.
	k := 0
	for i := range ops {
		n := len(ops[i].Args)
		ops[i].Args = argv[k : k+n : k+n]
		k += n
	}
	return ops, argv, nil
}

// AppendResult appends one result to a batch response under
// construction. An OK result without a blob — ErrResult(nil) — takes
// vals as its blob, encoded straight into dst, so a server answers a
// batch without an allocation per op.
func AppendResult(dst []byte, r BatchResult, vals [][]byte) []byte {
	dst = append(dst, byte(r.Code), 0, 0, 0, 0)
	start := len(dst)
	if r.Code == core.CodeOK && r.Blob == nil {
		dst = AppendVals(dst, vals)
	} else {
		dst = append(dst, r.Blob...)
	}
	binary.BigEndian.PutUint32(dst[start-4:start], uint32(len(dst)-start))
	return dst
}

// BeginResult opens an OK result on dst whose value vector is then
// encoded straight onto it (AppendAnswer). EndResult closes it, mark
// being len(dst) before BeginResult: it backfills the result's length.
func BeginResult(dst []byte) []byte { return append(dst, byte(core.CodeOK), 0, 0, 0, 0) }

// EndResult closes a result opened by BeginResult at mark.
func EndResult(dst []byte, mark int) []byte {
	binary.BigEndian.PutUint32(dst[mark+1:mark+5], uint32(len(dst)-mark-5))
	return dst
}

// AppendBatchResults appends the batch response encoding to dst (which
// may be a pooled buffer).
func AppendBatchResults(dst []byte, results []BatchResult) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(results)))
	for _, r := range results {
		dst = AppendResult(dst, r, nil)
	}
	return dst
}

// DecodeBatchResults parses a batch response into a fresh vector.
// Blobs alias data.
func DecodeBatchResults(data []byte) ([]BatchResult, error) {
	return DecodeBatchResultsInto(nil, data)
}

// DecodeBatchResultsInto parses a batch response, appending its results
// to dst, so a caller decoding many responses reuses one vector
// (dst[:0]). Blobs alias data.
func DecodeBatchResultsInto(dst []BatchResult, data []byte) ([]BatchResult, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("ds: batch response too short (%d bytes)", len(data))
	}
	n := int(binary.BigEndian.Uint16(data[0:2]))
	if n > (len(data)-2)/5 {
		return nil, fmt.Errorf("ds: batch of %d results in %d bytes", n, len(data)-2)
	}
	off := 2
	results := slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		if off+5 > len(data) {
			return nil, fmt.Errorf("ds: batch result %d: truncated header", i)
		}
		code := core.ErrorCode(data[off])
		l := int(binary.BigEndian.Uint32(data[off+1 : off+5]))
		off += 5
		if off+l > len(data) {
			return nil, fmt.Errorf("ds: batch result %d: truncated blob", i)
		}
		r := BatchResult{Code: code}
		if l > 0 {
			r.Blob = data[off : off+l]
		}
		off += l
		results = append(results, r)
	}
	if off != len(data) {
		return nil, fmt.Errorf("ds: batch response has %d trailing bytes", len(data)-off)
	}
	return results, nil
}
